#!/usr/bin/env python3
"""Median-vs-median regression gate over two BENCH_E*.json trees.

Compares the per-case median timings of two directories produced by
scripts/run_benches.sh (schema: bench/harness/json_writer.hpp,
schema_version 1) and fails when the current tree is slower than the
baseline beyond a relative threshold plus an absolute noise floor:

    regression  iff  cur > base * (1 + threshold)
                 and  cur - base > min_seconds

Usage:
    scripts/compare_benches.py BASELINE_DIR CURRENT_DIR
        [--threshold 0.5] [--min-seconds 0.005]
        [--allow-missing] [--allow-new-cases] [--verbose]

Exit codes: 0 clean, 1 regression (or missing/new coverage without the
matching --allow flag), 2 usage / unreadable input.

Notes:
  * Cases are matched by (experiment, case name); baseline cases missing
    from CURRENT are reported but never fatal (sweeps legitimately
    change). A whole *file* missing from CURRENT_DIR is fatal by default
    — that means an experiment stopped producing JSON.
  * Cases (or whole experiments) present in CURRENT but absent from the
    baseline — e.g. a freshly added experiment whose baseline was not
    committed — are fatal by default so the committed tree stays in sync;
    --allow-new-cases downgrades them to informational. The refresh
    procedure is documented in bench-baselines/README.md.
  * Files that do not carry schema_version 1 (e.g. the google-benchmark
    E12 output) are skipped.
  * Trees whose meta.precision disagree for an experiment are never
    compared (exit 2): fp32 and fp64 runs are different workloads.
    Files without the field (pre-precision runs) count as fp64.
  * Trees whose meta.threads disagree for an experiment are never
    compared either (exit 2): a 4-thread run against a 1-thread
    baseline measures the thread count, not the change. Run with
    OMP_NUM_THREADS set to the baseline's thread count.
  * CI runs this with a deliberately loose threshold: shared runners
    have noisy clocks, so the committed baseline gates catastrophic
    slowdowns and pipeline breakage, not single-digit percent drift.
    Tight thresholds are for like-for-like machines (local before/after
    runs against the same hardware).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load_tree(directory: Path) -> dict[str, dict]:
    """Maps experiment id (from the file stem, e.g. 'E5') to parsed JSON."""
    tree = {}
    for path in sorted(directory.glob("BENCH_E*.json")):
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot parse {path}: {exc}", file=sys.stderr)
            sys.exit(2)
        if doc.get("schema_version") != 1:
            continue  # foreign schema (e.g. google-benchmark E12)
        tree[path.stem.removeprefix("BENCH_")] = doc
    return tree


def case_medians(doc: dict) -> dict[str, float]:
    """Maps case name -> median seconds. Repeated names (an experiment
    recording one configuration several times) get a '#k' occurrence
    suffix so every measurement is compared, none silently shadowed —
    emission order is deterministic, so the suffixes align across trees.
    """
    out = {}
    seen: dict[str, int] = {}
    for case in doc.get("cases", []):
        timing = case.get("timing_s") or {}
        median = timing.get("median")
        if not (isinstance(median, (int, float)) and median > 0):
            continue
        name = case["name"]
        occurrence = seen.get(name, 0)
        seen[name] = occurrence + 1
        out[name if occurrence == 0 else f"{name}#{occurrence}"] = float(median)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(
        description="median-vs-median bench regression gate")
    parser.add_argument("baseline", type=Path)
    parser.add_argument("current", type=Path)
    parser.add_argument("--threshold", type=float, default=0.5,
                        help="relative slowdown that fails (0.5 = +50%%)")
    parser.add_argument("--min-seconds", type=float, default=0.005,
                        help="absolute slowdown floor; smaller deltas are "
                             "noise regardless of ratio")
    parser.add_argument("--allow-missing", action="store_true",
                        help="do not fail when CURRENT lacks a baseline "
                             "experiment's JSON file")
    parser.add_argument("--allow-new-cases", action="store_true",
                        help="report cases/experiments present in CURRENT "
                             "but absent from the baseline as informational "
                             "instead of failing (the default failure exists "
                             "so new experiments get their baseline "
                             "committed; see bench-baselines/README.md)")
    parser.add_argument("--verbose", action="store_true",
                        help="print every compared case, not just changes")
    args = parser.parse_args()

    for d in (args.baseline, args.current):
        if not d.is_dir():
            print(f"error: {d} is not a directory", file=sys.stderr)
            return 2

    base_tree = load_tree(args.baseline)
    cur_tree = load_tree(args.current)
    if not base_tree:
        print(f"error: no schema-1 BENCH_E*.json in {args.baseline}",
              file=sys.stderr)
        return 2

    regressions = []
    missing_files = []
    new_files = sorted(set(cur_tree) - set(base_tree))
    new_cases = []
    precision_mismatches = []
    thread_mismatches = []
    compared = 0
    rows = []
    for exp, base_doc in sorted(base_tree.items()):
        if exp not in cur_tree:
            missing_files.append(exp)
            continue
        # Never cross-compare precision modes: an fp32 run is a different
        # workload (half the value bytes, refinement iterations), not a
        # faster/slower version of the fp64 one. Pre-precision files have
        # no meta.precision; they were fp64 runs.
        base_prec = (base_doc.get("meta") or {}).get("precision", "fp64")
        cur_prec = (cur_tree[exp].get("meta") or {}).get("precision", "fp64")
        if base_prec != cur_prec:
            precision_mismatches.append((exp, base_prec, cur_prec))
            continue
        # Likewise never compare different thread counts: the timings
        # would measure the parallel speedup, not the change.
        base_threads = (base_doc.get("meta") or {}).get("threads")
        cur_threads = (cur_tree[exp].get("meta") or {}).get("threads")
        if base_threads != cur_threads:
            thread_mismatches.append((exp, base_threads, cur_threads))
            continue
        base_cases = case_medians(base_doc)
        cur_cases = case_medians(cur_tree[exp])
        for name in sorted(set(cur_cases) - set(base_cases)):
            new_cases.append((exp, name))
            rows.append((exp, name, None, cur_cases[name], "new-case"))
        for name, base_median in sorted(base_cases.items()):
            cur_median = cur_cases.get(name)
            if cur_median is None:
                rows.append((exp, name, base_median, None, "missing-case"))
                continue
            compared += 1
            ratio = cur_median / base_median
            slow = (cur_median > base_median * (1.0 + args.threshold)
                    and cur_median - base_median > args.min_seconds)
            status = "REGRESSION" if slow else (
                "faster" if ratio < 1.0 / (1.0 + args.threshold) else "ok")
            if slow:
                regressions.append((exp, name, base_median, cur_median))
            if slow or args.verbose or status == "faster":
                rows.append((exp, name, base_median, cur_median, status))

    if rows:
        width = max(len(f"{exp}/{name}") for exp, name, *_ in rows)
        print(f"{'case'.ljust(width)}  {'base_ms':>10}  {'cur_ms':>10}  "
              f"{'ratio':>6}  status")
        for exp, name, base_median, cur_median, status in rows:
            label = f"{exp}/{name}".ljust(width)
            if cur_median is None:
                print(f"{label}  {base_median * 1e3:10.3f}  {'-':>10}  "
                      f"{'-':>6}  {status}")
            elif base_median is None:
                print(f"{label}  {'-':>10}  {cur_median * 1e3:10.3f}  "
                      f"{'-':>6}  {status}")
            else:
                print(f"{label}  {base_median * 1e3:10.3f}  "
                      f"{cur_median * 1e3:10.3f}  "
                      f"{cur_median / base_median:6.2f}  {status}")

    print(f"compared {compared} case(s) across {len(base_tree)} "
          f"experiment(s); threshold +{args.threshold * 100:.0f}% "
          f"(abs floor {args.min_seconds * 1e3:.1f} ms)")
    if missing_files:
        level = "warning" if args.allow_missing else "error"
        print(f"{level}: experiments missing from {args.current}: "
              f"{', '.join(missing_files)}", file=sys.stderr)
    if new_files or new_cases:
        level = "info" if args.allow_new_cases else "error"
        if new_files:
            print(f"{level}: experiments in {args.current} without a "
                  f"committed baseline: {', '.join(new_files)}",
                  file=sys.stderr)
        if new_cases:
            named = ", ".join(f"{e}/{n}" for e, n in new_cases[:10])
            more = "" if len(new_cases) <= 10 else f" (+{len(new_cases) - 10})"
            print(f"{level}: cases without a baseline: {named}{more}",
                  file=sys.stderr)
        if not args.allow_new_cases:
            print("hint: refresh and commit the baseline "
                  "(bench-baselines/README.md) or pass --allow-new-cases",
                  file=sys.stderr)
    if precision_mismatches:
        named = ", ".join(f"{e} ({b} vs {c})"
                          for e, b, c in precision_mismatches)
        print(f"error: precision mismatch — refusing to compare: {named}",
              file=sys.stderr)
        print("hint: run both trees with the same --precision "
              "(scripts/run_benches.sh) and keep per-mode baselines apart",
              file=sys.stderr)
        return 2
    if thread_mismatches:
        named = ", ".join(f"{e} ({b} vs {c} threads)"
                          for e, b, c in thread_mismatches)
        print(f"error: thread-count mismatch — refusing to compare: {named}",
              file=sys.stderr)
        print("hint: run the current tree with OMP_NUM_THREADS equal to "
              "the baseline's meta.threads", file=sys.stderr)
        return 2
    if regressions:
        print(f"error: {len(regressions)} regression(s) beyond threshold",
              file=sys.stderr)
        return 1
    if missing_files and not args.allow_missing:
        return 1
    if (new_files or new_cases) and not args.allow_new_cases:
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
