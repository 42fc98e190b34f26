#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON file emitted by --trace-out.

Checks the structural contract chrome://tracing and Perfetto rely on
(docs/OBSERVABILITY.md): a top-level "traceEvents" array of complete
("ph": "X") events with numeric non-negative ts/dur, string name/cat,
integer pid/tid, and a numeric "args.span_id". Optionally asserts that
specific categories appear, so CI can prove the instrumented layers
actually recorded spans.

Usage:
  scripts/check_trace.py trace.json [--require-cats build,apply,cache]
                         [--min-events N]
                         [--require-request-ids serve]
                         [--request-id-exempt serve.drain]

--require-request-ids asserts that every span in the listed categories
carries a positive numeric "args.request_id" (the admission-minted
correlation id the serve daemon threads through its workers), except
spans named in --request-id-exempt (default "serve.drain" — the drain
sequence runs outside any request).

Exits non-zero with a line per problem on failure.
"""

import argparse
import json
import sys
from numbers import Number


def reject_constant(name):
    """json parse_constant hook: NaN and Infinity are not JSON, so a
    trace carrying them is malformed (non-finite args must be null)."""
    raise ValueError(f"non-standard JSON constant {name}")


def check_event(ev, i, errors):
    if not isinstance(ev, dict):
        errors.append(f"event {i}: not an object")
        return None
    name = ev.get("name")
    if not isinstance(name, str) or not name:
        errors.append(f"event {i}: missing/empty name")
    tag = name if isinstance(name, str) else f"#{i}"
    if ev.get("ph") != "X":
        errors.append(f"event {i} ({tag}): ph is {ev.get('ph')!r}, want 'X'")
    if not isinstance(ev.get("cat"), str) or not ev.get("cat"):
        errors.append(f"event {i} ({tag}): missing/empty cat")
    for key in ("ts", "dur"):
        v = ev.get(key)
        if not isinstance(v, Number) or isinstance(v, bool) or v < 0:
            errors.append(f"event {i} ({tag}): {key} is {v!r}, "
                          "want a non-negative number")
    for key in ("pid", "tid"):
        v = ev.get(key)
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            errors.append(f"event {i} ({tag}): {key} is {v!r}, "
                          "want a non-negative integer")
    args = ev.get("args")
    if not isinstance(args, dict):
        errors.append(f"event {i} ({tag}): args missing or not an object")
    else:
        span_id = args.get("span_id")
        if not isinstance(span_id, Number) or span_id <= 0:
            errors.append(f"event {i} ({tag}): args.span_id is {span_id!r}, "
                          "want a positive number")
    return ev.get("cat")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", help="Chrome trace-event JSON file")
    ap.add_argument("--require-cats", default="",
                    help="comma-separated categories that must appear")
    ap.add_argument("--min-events", type=int, default=1,
                    help="minimum number of events (default 1)")
    ap.add_argument("--require-request-ids", default="",
                    help="comma-separated categories whose spans must "
                         "carry a positive args.request_id")
    ap.add_argument("--request-id-exempt", default="serve.drain",
                    help="comma-separated span names exempt from the "
                         "request-id requirement (default: serve.drain)")
    opts = ap.parse_args()

    errors = []
    try:
        with open(opts.trace, encoding="utf-8") as f:
            doc = json.load(f, parse_constant=reject_constant)
    except (OSError, ValueError) as e:
        print(f"error: {opts.trace}: {e}", file=sys.stderr)
        return 1

    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(events, list):
        print(f"error: {opts.trace}: no traceEvents array", file=sys.stderr)
        return 1

    if len(events) < opts.min_events:
        errors.append(f"only {len(events)} event(s), "
                      f"want >= {opts.min_events}")

    rid_cats = set(c for c in opts.require_request_ids.split(",") if c)
    rid_exempt = set(n for n in opts.request_id_exempt.split(",") if n)
    rid_checked = 0

    cats = set()
    for i, ev in enumerate(events):
        cat = check_event(ev, i, errors)
        if cat:
            cats.add(cat)
        if (cat in rid_cats and isinstance(ev, dict)
                and ev.get("name") not in rid_exempt):
            rid_checked += 1
            args = ev.get("args")
            rid = args.get("request_id") if isinstance(args, dict) else None
            if not isinstance(rid, Number) or isinstance(rid, bool) or rid <= 0:
                errors.append(f"event {i} ({ev.get('name')}): "
                              f"args.request_id is {rid!r}, want a "
                              "positive number")
        if len(errors) > 20:
            errors.append("... further problems suppressed")
            break

    if rid_cats and rid_checked == 0:
        errors.append("--require-request-ids matched no spans "
                      f"(cats: {', '.join(sorted(rid_cats))})")

    required = [c for c in opts.require_cats.split(",") if c]
    for cat in required:
        if cat not in cats:
            errors.append(f"required category {cat!r} absent "
                          f"(saw: {', '.join(sorted(cats)) or 'none'})")

    if errors:
        for e in errors:
            print(f"error: {opts.trace}: {e}", file=sys.stderr)
        return 1
    print(f"{opts.trace}: {len(events)} event(s), "
          f"categories: {', '.join(sorted(cats))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
