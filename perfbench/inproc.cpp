// perfbench_inproc — the in-process half of the end-to-end benchmark
// (perfbench/run.py runs it; perfbench/README.md defines the metrics).
//
//   perfbench_inproc probe [--threads T]
//       Host calibration: a STREAM triad over arrays of at least four
//       times the last-level cache, plus a fixed dependent scalar loop.
//   perfbench_inproc solve --spec S --seed N --rhs-seed R [options]
//       Generates S (seed N), factors it with LaplacianSolver (seed N),
//       solves right-hand sides drawn from R to eps 1e-8, one at a time
//       and as width-8 panels, and checks every solution against the
//       input graph's exact Laplacian.
//
// Every call into the library is timed from outside with steady_clock;
// with --trace-out each such call is also recorded as a Chrome trace
// span. Output is one JSON object on stdout; the exit code is 0 when
// every solve converged and passed the residual check, 1 otherwise,
// 2 on a usage error.
#include <omp.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "api/graph_source.hpp"
#include "api/rhs.hpp"
#include "core/solver.hpp"
#include "harness/json_writer.hpp"
#include "linalg/panel.hpp"

namespace {

using parlap::LaplacianSolver;
using parlap::Multigraph;
using parlap::Panel;
using parlap::SolveStats;
using parlap::Vector;
using parlap::bench::JsonWriter;
using Clock = std::chrono::steady_clock;

constexpr double kEps = 1e-8;              // relative residual of every solve
constexpr std::size_t kPanelWidth = 8;     // right-hand sides per panel

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// ---------------------------------------------------------------------------
// Spans: one per public library call, kept in memory and written as
// Chrome trace-event JSON when the process ends.
// ---------------------------------------------------------------------------
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  class Scope {
   public:
    Scope(SpanLog& log, std::string name, std::string cat)
        : log_(log), name_(std::move(name)), cat_(std::move(cat)),
          t0_(Clock::now()) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { log_.record(std::move(name_), std::move(cat_), t0_); }

   private:
    SpanLog& log_;
    std::string name_, cat_;
    Clock::time_point t0_;
  };

  /// Writes the spans; returns false when the file cannot be written.
  [[nodiscard]] bool write(const std::string& path) const {
    std::ofstream os(path);
    JsonWriter w(os);
    w.begin_object();
    w.key("traceEvents");
    w.begin_array();
    for (const Event& e : events_) {
      w.begin_object();
      w.member("name", e.name);
      w.member("cat", e.cat);
      w.member("ph", "X");
      w.member("ts", e.ts_us);
      w.member("dur", e.dur_us);
      w.member("pid", static_cast<std::int64_t>(getpid()));
      w.member("tid", 0);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    os << "\n";
    return static_cast<bool>(os);
  }

 private:
  struct Event {
    std::string name, cat;
    double ts_us = 0.0, dur_us = 0.0;
  };

  void record(std::string name, std::string cat, Clock::time_point t0) {
    if (!enabled_) return;
    const auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin_).count();
    };
    const double start = us(t0);
    events_.push_back({std::move(name), std::move(cat), start,
                       us(Clock::now()) - start});
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Event> events_;
};

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------
struct Args {
  std::string mode;
  std::string spec;
  std::uint64_t seed = 1;      // graph generator and factorization
  std::uint64_t rhs_seed = 1;  // right-hand sides
  int threads = 4;
  int repeat_solves = 0;     // warm width-1 re-solves of the first rhs
  double panel_seconds = 0;  // width-8 phase budget
  int min_panels = 0;
  double single_seconds = 0;  // width-1 phase budget
  int min_singles = 0;
  bool layers = false;        // per-layer probes after the timed phases
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_inproc: " << why
            << "\nusage: perfbench_inproc probe [--threads T]\n"
               "       perfbench_inproc solve --spec S --seed N [--rhs-seed R]"
               " [--threads T] [--repeat-solves K]\n"
               "         [--panel-seconds P --min-panels A]"
               " [--single-seconds Q --min-singles B] [--layers]"
               " [--trace-out FILE]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) usage("missing mode");
  Args a;
  a.mode = argv[1];
  if (a.mode != "probe" && a.mode != "solve") usage("unknown mode " + a.mode);
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--layers") {
      a.layers = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--spec") a.spec = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--rhs-seed") a.rhs_seed = std::stoull(v);
      else if (k == "--threads") a.threads = std::stoi(v);
      else if (k == "--repeat-solves") a.repeat_solves = std::stoi(v);
      else if (k == "--panel-seconds") a.panel_seconds = std::stod(v);
      else if (k == "--min-panels") a.min_panels = std::stoi(v);
      else if (k == "--single-seconds") a.single_seconds = std::stod(v);
      else if (k == "--min-singles") a.min_singles = std::stoi(v);
      else if (k == "--trace-out") a.trace_out = v;
      else usage("unknown option " + k);
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (a.threads < 1 || a.repeat_solves < 0 || a.min_panels < 0 ||
      a.min_singles < 0) {
    usage("out-of-range option value");
  }
  if (a.mode == "solve" && a.spec.empty()) usage("solve needs --spec");
  return a;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// probe
// ---------------------------------------------------------------------------
int run_probe(const Args& a) {
  omp_set_num_threads(a.threads);
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (llc <= 0) llc = 32L << 20;
  // Each array is at least 4x the last-level cache so the triad streams
  // from memory, not from cache.
  const std::size_t n = std::max<std::size_t>(
      4 * static_cast<std::size_t>(llc) / sizeof(double), std::size_t{1} << 22);
  std::unique_ptr<double[]> x(new double[n]), y(new double[n]), z(new double[n]);
  const auto len = static_cast<std::int64_t>(n);
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < len; ++i) {
    x[i] = 0.0;
    y[i] = 1.0 + static_cast<double>(i % 7);
    z[i] = 2.0;
  }
  std::vector<double> gbps;
  for (int rep = 0; rep < 3; ++rep) {
    const double s = 0.5 + rep;
    const auto t0 = Clock::now();
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < len; ++i) x[i] = y[i] + s * z[i];
    const double dt = seconds_since(t0);
    gbps.push_back(3.0 * sizeof(double) * static_cast<double>(n) / dt / 1e9);
  }
  const double check = x[n / 2] + x[n - 1];

  // A fixed dependent chain of multiply-adds: one core's latency-bound
  // scalar speed, independent of memory.
  constexpr int kSteps = 1 << 24;
  std::vector<double> scalar_ns;
  volatile double sink = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    double v = 1.0 + rep * 1e-3;
    const auto t0 = Clock::now();
    for (int i = 0; i < kSteps; ++i) v = v * 0.999999 + 1e-6;
    scalar_ns.push_back(seconds_since(t0) * 1e9 / kSteps);
    sink = sink + v;
  }

  const parlap::bench::RunMetadata md = parlap::bench::collect_metadata();
  JsonWriter w(std::cout);
  w.begin_object();
  w.member("triad_gbps", median(gbps));
  w.member("triad_array_mb",
           static_cast<double>(n * sizeof(double)) / (1 << 20));
  w.member("llc_mb", static_cast<double>(llc) / (1 << 20));
  w.member("scalar_ns", median(scalar_ns));
  w.member("threads", a.threads);
  w.member("simd", md.simd_active);
  w.member("simd_detected", md.simd_detected);
  w.member("numa_nodes", md.numa_nodes);
  w.member("compiler", md.compiler);
  w.member("hostname", md.hostname);
  w.member("checksum", check + sink);
  w.end_object();
  std::cout << std::endl;
  return 0;
}

// ---------------------------------------------------------------------------
// solve
// ---------------------------------------------------------------------------

/// Order-sensitive FNV-1a over the solution's bits (exact-repeat check).
std::uint64_t solution_hash(std::span<const double> x) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const double v : x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

std::string hex(std::uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Checks every solve: ||b - L x|| / ||b|| recomputed with the input
/// graph's exact Laplacian must not exceed eps, and the solver must say
/// it converged.
class Checker {
 public:
  explicit Checker(const LaplacianSolver& solver) : solver_(solver) {}

  void check(const char* what, std::span<const double> b,
               std::span<const double> x, const SolveStats& st) {
    Vector lx(b.size());
    solver_.apply_laplacian(x, lx);
    double rr = 0.0, bb = 0.0;
    for (std::size_t i = 0; i < b.size(); ++i) {
      rr += (b[i] - lx[i]) * (b[i] - lx[i]);
      bb += b[i] * b[i];
    }
    const double rel = bb > 0 ? std::sqrt(rr / bb) : std::sqrt(rr);
    ++solves;
    if (!st.converged || !(rel <= kEps)) {
      fail(std::string(what) + ": residual " + std::to_string(rel) +
           (st.converged ? "" : " (not converged)"));
    }
  }

  void fail(std::string why) {
    ++failed;
    errors.push_back(std::move(why));
  }

  std::int64_t solves = 0, failed = 0;
  std::vector<std::string> errors;

 private:
  const LaplacianSolver& solver_;
};

/// Times `fn` over enough repetitions to run for at least `min_seconds`,
/// and returns the median seconds per call over five such batches.
template <typename Fn>
double time_per_call(double min_seconds, Fn&& fn) {
  fn();  // warm the workspace
  int reps = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r) fn();
    const double dt = seconds_since(t0);
    if (dt >= min_seconds / 5 || reps >= (1 << 20)) break;
    reps *= 2;
  }
  std::vector<double> per_call;
  for (int batch = 0; batch < 5; ++batch) {
    const auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r) fn();
    per_call.push_back(seconds_since(t0) / reps);
  }
  return median(per_call);
}

int run_solve(const Args& a) {
  omp_set_num_threads(a.threads);
  SpanLog spans(!a.trace_out.empty());
  parlap::SolverOptions opts;
  opts.seed = a.seed;
  opts.max_block_width = kPanelWidth;

  // The cold path: generate, factor, first solve.
  const auto t0 = Clock::now();
  const Multigraph graph = [&] {
    SpanLog::Scope s(spans, "graph.make_generated_graph", "graph");
    return parlap::make_generated_graph(a.spec, a.seed);
  }();
  const double gen_s = seconds_since(t0);
  const auto t1 = Clock::now();
  const LaplacianSolver solver = [&] {
    SpanLog::Scope s(spans, "core.LaplacianSolver", "build");
    return LaplacianSolver(graph, opts);
  }();
  const double factor_s = seconds_since(t1);
  const parlap::FactorizationInfo& info = solver.info();
  if (info.components != 1) {
    std::cerr << "perfbench_inproc: " << a.spec
              << " is not connected; the benchmark needs one component\n";
    return 1;
  }
  const auto n = static_cast<std::size_t>(info.n);
  const Vector b0 = parlap::random_rhs(info.n, a.rhs_seed);
  Vector x0(n, 0.0);
  const auto t2 = Clock::now();
  const SolveStats first = [&] {
    SpanLog::Scope s(spans, "core.solve.first", "richardson");
    return solver.solve(b0, x0, kEps);
  }();
  const double first_s = seconds_since(t2);
  const double cold_s = seconds_since(t0);
  const std::string first_hash = hex(solution_hash(x0));
  Checker checker(solver);
  checker.check("first solve", b0, x0, first);

  // Warm width-1 re-solves of the first right-hand side: the first solve
  // minus these is the step-size estimation the first solve paid for.
  std::vector<double> repeat_s, repeat_apply_s;
  for (int r = 0; r < a.repeat_solves; ++r) {
    Vector x(n, 0.0);
    const auto ts = Clock::now();
    SolveStats st;
    {
      SpanLog::Scope s(spans, "core.solve.warm", "richardson");
      st = solver.solve(b0, x, kEps);
    }
    repeat_s.push_back(seconds_since(ts));
    repeat_apply_s.push_back(st.apply_seconds);
    checker.check("warm re-solve", b0, x, st);
    if (hex(solution_hash(x)) != first_hash) {
      checker.fail("warm re-solve is not bit-identical to the first solve");
    }
  }

  // The fixed right-hand-side pool of the panel and single phases:
  // rhs i is keyed by (rhs seed, i), so every run of a seed sees the same.
  const auto rhs = [&](std::size_t i) {
    return parlap::random_rhs(info.n, a.rhs_seed * 1000003ull + 17 + i);
  };
  const std::size_t width = kPanelWidth;
  std::vector<double> panel_s;
  std::vector<int> panel_iters;
  std::vector<std::string> rhs_hash;  // by rhs index, from the panel phase
  if (a.panel_seconds > 0 || a.min_panels > 0) {
    {
      // One untimed panel apply sizes the width-k workspaces, so the
      // timed panels all run warm.
      Panel r(n, width), y(n, width);
      solver.apply_preconditioner(r, y);
    }
    const auto t_phase = Clock::now();
    for (std::size_t p = 0;
         static_cast<int>(p) < a.min_panels ||
         seconds_since(t_phase) < a.panel_seconds;
         ++p) {
      std::vector<Vector> bs(width), xs(width, Vector(n, 0.0));
      for (std::size_t c = 0; c < width; ++c) bs[c] = rhs(p * width + c);
      const auto ts = Clock::now();
      std::vector<SolveStats> st;
      {
        SpanLog::Scope s(spans, "core.solve_many.w" + std::to_string(width),
                         "richardson");
        st = solver.solve_many(bs, xs, kEps);
      }
      panel_s.push_back(seconds_since(ts));
      for (std::size_t c = 0; c < width; ++c) {
        checker.check("panel solve", bs[c], xs[c], st[c]);
        panel_iters.push_back(st[c].iterations);
        rhs_hash.push_back(hex(solution_hash(xs[c])));
      }
    }
  }
  std::vector<double> single_s;
  std::vector<int> single_iters;
  if (a.single_seconds > 0 || a.min_singles > 0) {
    const auto t_phase = Clock::now();
    for (std::size_t i = 0; static_cast<int>(i) < a.min_singles ||
                            seconds_since(t_phase) < a.single_seconds;
         ++i) {
      const Vector b = rhs(i);
      Vector x(n, 0.0);
      const auto ts = Clock::now();
      SolveStats st;
      {
        SpanLog::Scope s(spans, "core.solve.w1", "richardson");
        st = solver.solve(b, x, kEps);
      }
      single_s.push_back(seconds_since(ts));
      single_iters.push_back(st.iterations);
      checker.check("single solve", b, x, st);
      // Panel results are bit-identical, column for column, to width-1
      // solves of the same right-hand side.
      const std::string h = hex(solution_hash(x));
      if (i < rhs_hash.size() && rhs_hash[i] != h) {
        checker.fail("width-1 solve of rhs " + std::to_string(i) +
                     " differs from its panel column");
      }
      if (i >= rhs_hash.size()) rhs_hash.push_back(h);
    }
  }

  // Per-layer probes through the public surface, at the workload's thread
  // count and at one thread.
  double w1_t = 0, wk_t = 0, w1_1 = 0, wk_1 = 0, op_t = 0, level_rows = 0;
  if (a.layers) {
    const Vector r = rhs(0);
    Vector y(n);
    Panel rp(n, width), yp(n, width);
    for (std::size_t c = 0; c < width; ++c) {
      const Vector rc = rhs(c);
      std::copy(rc.begin(), rc.end(), rp.col(c).begin());
    }
    const auto apply_w1 = [&] { solver.apply_preconditioner(r, y); };
    const auto apply_wk = [&] { solver.apply_preconditioner(rp, yp); };
    w1_t = time_per_call(1.0, apply_w1);
    wk_t = time_per_call(1.0, apply_wk);
    op_t = time_per_call(0.3, [&] { solver.apply_laplacian(r, y); });
    omp_set_num_threads(1);
    w1_1 = time_per_call(1.0, apply_w1);
    wk_1 = time_per_call(1.0, apply_wk);
    omp_set_num_threads(a.threads);
    // Rows of every level of the chain: each level's vector is written on
    // the way down and read on the way up.
    for (const auto& ls : solver.level_stats()) level_rows += ls.n;
  }

  const parlap::BuildStats& bs = solver.build_stats();
  JsonWriter w(std::cout);
  const auto array = [&w](std::string_view key, const auto& values) {
    w.key(key);
    w.begin_array();
    for (const auto& v : values) w.value(v);
    w.end_array();
  };
  w.begin_object();
  w.key("graph");
  w.begin_object();
  w.member("spec", a.spec);
  w.member("vertices", static_cast<std::int64_t>(info.n));
  w.member("edges", static_cast<std::int64_t>(info.m));
  w.end_object();
  w.key("info");
  w.begin_object();
  w.member("levels", info.depth);
  w.member("split_edges", static_cast<std::int64_t>(info.split_edges));
  w.member("stored_entries", static_cast<std::int64_t>(info.stored_entries));
  w.member("stored_value_bytes",
           static_cast<std::int64_t>(info.stored_value_bytes));
  w.member("index_bytes", static_cast<std::int64_t>(sizeof(parlap::Vertex)));
  w.member("jacobi_terms", info.jacobi_terms);
  w.member("precision", parlap::precision_name(info.precision));
  w.end_object();
  w.key("build");
  w.begin_object();
  w.member("degrees_s", bs.phases.degrees);
  w.member("five_dd_s", bs.phases.five_dd);
  w.member("walk_graph_s", bs.phases.walk_graph);
  w.member("schur_s", bs.phases.schur);
  w.member("extract_s", bs.phases.extract);
  w.member("peak_arena_mb",
           static_cast<double>(bs.peak_arena_bytes) / (1 << 20));
  w.member("arena_allocs", bs.arena_allocations);
  w.end_object();
  w.member("gen_s", gen_s);
  w.member("factor_s", factor_s);
  w.member("first_solve_s", first_s);
  w.member("cold_s", cold_s);
  w.member("first_iterations", first.iterations);
  w.member("first_hash", first_hash);
  array("repeat_s", repeat_s);
  array("repeat_apply_s", repeat_apply_s);
  array("panel_s", panel_s);
  array("panel_iterations", panel_iters);
  w.member("panel_width", static_cast<std::int64_t>(width));
  array("single_s", single_s);
  array("single_iterations", single_iters);
  array("rhs_hash", rhs_hash);
  w.key("checks");
  w.begin_object();
  w.member("solves", checker.solves);
  w.member("failed", checker.failed);
  array("errors", checker.errors);
  w.end_object();
  w.member("peak_rss_mb", peak_rss_mb());
  w.member("threads", a.threads);
  if (a.layers) {
    w.key("layers");
    w.begin_object();
    w.member("apply_w1_s", w1_t);
    w.member("apply_wk_s", wk_t);
    w.member("apply_w1_1t_s", w1_1);
    w.member("apply_wk_1t_s", wk_1);
    w.member("op_s", op_t);
    w.member("level_rows", level_rows);
    w.end_object();
  }
  w.end_object();
  std::cout << std::endl;
  if (!a.trace_out.empty() && !spans.write(a.trace_out)) {
    std::cerr << "perfbench_inproc: cannot write " << a.trace_out << "\n";
    return 1;
  }
  return checker.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  try {
    return a.mode == "probe" ? run_probe(a) : run_solve(a);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_inproc: " << e.what() << "\n";
    return 1;
  }
}
