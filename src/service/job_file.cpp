#include "service/job_file.hpp"

#include <cmath>
#include <istream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "support/precision.hpp"

namespace parlap::service {

namespace {

[[noreturn]] void ctx_error(const std::string& where, const std::string& what) {
  throw std::invalid_argument(where + ": " + what);
}

std::string string_field(const JsonValue& obj, const char* name,
                         std::string fallback, const std::string& where) {
  const JsonValue* v = obj.find(name);
  if (v == nullptr) return fallback;
  if (!v->is_string()) ctx_error(where, std::string(name) + " must be a string");
  return v->as_string();
}

bool bool_field(const JsonValue& obj, const char* name, bool fallback,
                const std::string& where) {
  const JsonValue* v = obj.find(name);
  if (v == nullptr) return fallback;
  if (!v->is_bool()) ctx_error(where, std::string(name) + " must be a bool");
  return v->as_bool();
}

double number_field(const JsonValue& obj, const char* name, double fallback,
                    const std::string& where) {
  const JsonValue* v = obj.find(name);
  if (v == nullptr) return fallback;
  if (!v->is_number()) {
    ctx_error(where, std::string(name) + " must be a number");
  }
  return v->as_number();
}

std::int64_t int_field(const JsonValue& obj, const char* name,
                       std::int64_t fallback, const std::string& where) {
  const double d = number_field(obj, name,
                                static_cast<double>(fallback), where);
  // Range check precedes the cast: converting an out-of-range double to
  // int64 is UB, and 2^63 is the first double NOT representable.
  if (!(d >= -9223372036854775808.0 && d < 9223372036854775808.0)) {
    ctx_error(where, std::string(name) + " is out of integer range");
  }
  const auto i = static_cast<std::int64_t>(d);
  if (static_cast<double>(i) != d) {
    ctx_error(where, std::string(name) + " must be an integer");
  }
  return i;
}

}  // namespace

SolveJob parse_job_object(const JsonValue& doc, const std::string& where,
                          const std::string& default_id,
                          bool allow_type_field) {
  if (!doc.is_object()) ctx_error(where, "expected a JSON object");

  static const std::unordered_set<std::string> kKnown = {
      "id",     "graph", "laplacian",   "weights",        "method",
      "rhs",    "eps",   "seed",        "split_scale",    "max_iterations",
      "precision",       "project_rhs"};
  for (const auto& [key, value] : doc.as_object()) {
    if (allow_type_field && key == "type") continue;
    if (kKnown.count(key) == 0) {
      ctx_error(where, "unknown field '" + key + "'");
    }
  }

  SolveJob job;
  job.id = string_field(doc, "id", default_id, where);
  // Ids become file names (`batch --solutions --out DIR` writes
  // DIR/<id>.x) and report keys; restrict to a safe charset so a job
  // file cannot traverse paths or emit unprintable ids.
  if (job.id.empty() || job.id.size() > 128) {
    ctx_error(where, "id must be 1-128 characters");
  }
  for (const char ch : job.id) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '.' || ch == '_' ||
                    ch == '-';
    if (!ok) {
      ctx_error(where,
                "id may only contain letters, digits, '.', '_', '-'");
    }
  }
  job.graph = string_field(doc, "graph", "", where);
  if (job.graph.empty()) ctx_error(where, "missing required field 'graph'");
  job.laplacian = bool_field(doc, "laplacian", false, where);
  job.weights = string_field(doc, "weights", "", where);
  job.method = string_field(doc, "method", "parlap", where);
  job.rhs = string_field(doc, "rhs", "random", where);
  job.eps = number_field(doc, "eps", 1e-8, where);
  if (!(job.eps > 0.0 && job.eps < 1.0)) {
    ctx_error(where, "eps must be in (0, 1)");
  }
  const std::int64_t seed = int_field(doc, "seed", 42, where);
  if (seed < 0) ctx_error(where, "seed must be non-negative");
  job.seed = static_cast<std::uint64_t>(seed);
  job.split_scale = number_field(doc, "split_scale", 0.0, where);
  if (job.split_scale < 0.0 || !std::isfinite(job.split_scale)) {
    ctx_error(where, "split_scale must be finite and non-negative");
  }
  const std::int64_t max_it = int_field(doc, "max_iterations", 0, where);
  if (max_it < 0 || max_it > std::numeric_limits<int>::max()) {
    ctx_error(where, "max_iterations out of range");
  }
  job.max_iterations = static_cast<int>(max_it);
  job.precision = string_field(doc, "precision", "", where);
  if (!job.precision.empty() && !parse_precision(job.precision).has_value()) {
    ctx_error(where, "precision must be one of fp64, fp32, auto");
  }
  job.project_rhs = bool_field(doc, "project_rhs", false, where);
  return job;
}

std::vector<SolveJob> parse_jobs_jsonl(std::istream& in) {
  std::vector<SolveJob> jobs;
  std::unordered_set<std::string> seen_ids;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    const std::string where = "job file line " + std::to_string(line_no);
    JsonValue doc = [&] {
      try {
        return parse_json(line);
      } catch (const std::invalid_argument& e) {
        ctx_error(where, e.what());
      }
    }();
    SolveJob job =
        parse_job_object(doc, where, "job" + std::to_string(line_no));
    if (!seen_ids.insert(job.id).second) {
      ctx_error(where, "duplicate job id '" + job.id + "'");
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::vector<SolveJob> parse_jobs_jsonl(const std::string& text) {
  std::istringstream in(text);
  return parse_jobs_jsonl(in);
}

}  // namespace parlap::service
