// The JSONL batch-job format (one job object per line).
//
// A job names a graph (generator spec or "file:PATH"), a solver method,
// a right-hand-side spec, and tuning knobs. Example line:
//
//   {"id": "ws-a", "graph": "ws:512,6,0.1", "method": "parlap",
//    "rhs": "random", "eps": 1e-8, "seed": 7}
//
// Fields (all but `graph` optional):
//   id              string of letters, digits, '.', '_', '-' (<= 128
//                   chars; ids become file names); defaults to
//                   "job<line-number>". Must be unique — the per-job
//                   RNG stream is derived from it.
//   graph           "file:PATH" (edge list / .mtx by extension) or a
//                   generator spec per graph_source ("grid2d:64",
//                   "ws:512,6,0.1", ...).
//   laplacian       bool; .mtx entries are Laplacian values (files only).
//   weights         weight-model spec ("uniform:0.5,2", ...).
//   method          registry name; default "parlap".
//   rhs             "random[:k]" (deterministic mean-free vector, stream
//                   keyed by (seed, id, k)) or "demand:S,T".
//   eps             relative residual target; default 1e-8.
//   seed            base seed for generator/factorization/rhs; default 42.
//   split_scale     SolverConfig knob; default 0 (method default).
//   max_iterations  SolverConfig knob; default 0 (method default).
//   precision       "fp64" | "fp32" | "auto"; "" (default) inherits the
//                   engine's configured precision mode.
//   project_rhs     bool; accept a per-component-imbalanced rhs and
//                   solve its least-squares projection (default: such a
//                   job fails, mirroring `parlap_cli solve`).
//
// Blank lines and lines starting with '#' are skipped, so job files can
// carry comments.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace parlap::service {

/// One solve request, as parsed from a JSONL line (defaults applied).
struct SolveJob {
  std::string id;
  std::string graph;          ///< "file:PATH" or generator spec
  bool laplacian = false;     ///< .mtx entries are Laplacian values
  std::string weights;        ///< optional weight-model spec
  std::string method = "parlap";
  std::string rhs = "random";  ///< "random[:k]" | "demand:S,T"
  double eps = 1e-8;
  std::uint64_t seed = 42;
  double split_scale = 0.0;
  int max_iterations = 0;
  /// "fp64" | "fp32" | "auto" | "" — empty means "use the engine's
  /// precision mode". Validated at parse time; stored as the spelled
  /// string so inherit-vs-explicit survives to the engine.
  std::string precision;
  bool project_rhs = false;
};

/// Parses one already-parsed job object — the request shape shared by
/// JSONL batch files and the parlap_serve wire protocol. `where`
/// prefixes error messages ("job file line 7", "request"); `default_id`
/// is applied when the object carries no "id". With `allow_type_field`
/// the envelope key "type" is exempt from the unknown-field check (the
/// serve protocol's request discriminator rides in the same object).
/// Throws std::invalid_argument on schema violations.
[[nodiscard]] SolveJob parse_job_object(const JsonValue& doc,
                                        const std::string& where,
                                        const std::string& default_id,
                                        bool allow_type_field = false);

/// Parses a whole JSONL stream. Throws std::invalid_argument naming the
/// offending line number for malformed JSON, unknown fields, missing
/// `graph`, or duplicate ids.
[[nodiscard]] std::vector<SolveJob> parse_jobs_jsonl(std::istream& in);

/// Convenience overload over an in-memory buffer (tests, fixtures).
[[nodiscard]] std::vector<SolveJob> parse_jobs_jsonl(const std::string& text);

}  // namespace parlap::service
