// Seeded mutation fuzzer for the one JSON reader and the job parser on
// top of it — the code that reads untrusted bytes from job files and
// served request lines. A plain gtest program (no libFuzzer): a fixed
// seed and iteration count make every run identical, and the ASan
// preset runs it like any other test.
//
// Two properties:
//   - parse_json + parse_job_object / parse_jobs_jsonl on mutated job
//     lines, stats lines and trace snippets only ever throw
//     std::invalid_argument — no other exception, crash or sanitizer
//     report;
//   - random values written by JsonWriter parse back to the same value
//     (bytes >= 0x7f come back as the UTF-8 of U+00XX, non-finite
//     numbers as null).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <iterator>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "service/job_file.hpp"
#include "support/json.hpp"

namespace parlap {
namespace {

constexpr std::uint64_t kSeed = 20230617;
constexpr int kMutations = 50000;
constexpr int kRoundTrips = 5000;

const std::vector<std::string>& corpus() {
  static const std::vector<std::string> seeds = {
      R"({"id": "ws-a", "graph": "ws:200,6,0.1", "method": "parlap", "rhs": "random", "seed": 7})",
      R"({"id": "tree-a", "graph": "btree:127", "method": "cg-tree", "rhs": "demand:0,126", "seed": 11, "eps": 1e-9})",
      R"({"type":"solve","id":"g1","graph":"grid2d:24,24","eps":1e-8,"seed":3,"weights":"uniform:0.5,2","precision":"fp32","max_iterations":40,"split_scale":1.5,"laplacian":false,"project_rhs":true})",
      R"({"type":"stats","status":"ok","uptime_seconds":1.25,"draining":false,"config":{"workers":1,"socket":"/tmp/s","slow_ms":0},"window":{"window_seconds":60,"solve_seconds":{"count":3,"mean":0.01,"p50":0.0086,"p95":0.021,"p99":0.021}},"cache":{"hits":1,"misses":2,"hit_rate":0.33333333333333331}})",
      R"({"displayTimeUnit":"ms","traceEvents":[{"name":"serve.solve","cat":"serve","ph":"X","ts":1234567.891,"dur":12.5,"pid":1,"tid":2,"args":{"span_id":9,"queue_ms":0.25,"request_id":4}}]})",
      "{\"type\":\"error\",\"status\":\"error\",\"error\":\"bogus\\u00c3\\u00a9 \\\"q\\\" \\\\ \\b\\f\\n\\r\\t\\/\"}",
      "# comment\n{\"graph\":\"grid2d:4\"}\n\n{\"id\":\"b\",\"graph\":\"path:9\",\"rhs\":\"random:2\"}\n",
      R"([1, -2.5e-3, true, false, null, "x", [], {}, [[{"a": [0]}]]])",
  };
  return seeds;
}

/// One random edit: flip, insert, delete, duplicate or truncate bytes,
/// or splice in a JSON token so mutants stay near the grammar.
void mutate(std::string& s, std::mt19937_64& rng) {
  static const std::string_view kTokens[] = {
      "{", "}", "[", "]", "\"", ":", ",", "\\", "\\u", "\\ud800", "null",
      "true", "-", "1e999", "0.", "\"graph\":", "\"id\":\"x\"", "\xff",
      std::string_view("\0", 1), "nan", "\"seed\":-1", "\"eps\":2",
      "\"max_iterations\":1e30"};
  const auto pick = [&](std::size_t n) {
    return n == 0 ? std::size_t{0} : static_cast<std::size_t>(rng() % n);
  };
  switch (rng() % 6) {
    case 0:
      if (!s.empty()) s[pick(s.size())] ^= static_cast<char>(1 << (rng() % 8));
      break;
    case 1:
      s.insert(s.begin() + static_cast<std::ptrdiff_t>(pick(s.size() + 1)),
               static_cast<char>(rng() % 256));
      break;
    case 2:
      if (!s.empty()) {
        const std::size_t at = pick(s.size());
        s.erase(at, 1 + pick(std::min<std::size_t>(8, s.size() - at)));
      }
      break;
    case 3:
      if (!s.empty()) {
        const std::size_t at = pick(s.size());
        s.insert(at, s.substr(at, 1 + pick(16)));
      }
      break;
    case 4:
      s.resize(pick(s.size() + 1));
      break;
    default:
      s.insert(pick(s.size() + 1), kTokens[pick(std::size(kTokens))]);
  }
}

/// Feeds `input` through every reader entry point; returns an error
/// message when anything but std::invalid_argument escapes.
std::string first_bad_exception(const std::string& input) {
  try {
    try {
      const JsonValue doc = parse_json(input);
      (void)service::parse_job_object(doc, "fuzz", "f0",
                                      /*allow_type_field=*/true);
    } catch (const std::invalid_argument&) {
    }
    try {
      (void)service::parse_jobs_jsonl(input);
    } catch (const std::invalid_argument&) {
    }
  } catch (const std::exception& e) {
    return std::string("escaped exception: ") + e.what();
  } catch (...) {
    return "escaped a non-std exception";
  }
  return "";
}

TEST(JsonFuzz, MutatedInputsOnlyThrowInvalidArgument) {
  std::mt19937_64 rng(kSeed);
  const std::vector<std::string>& seeds = corpus();
  for (int i = 0; i < kMutations; ++i) {
    std::string input = seeds[static_cast<std::size_t>(i) % seeds.size()];
    const int edits = 1 + static_cast<int>(rng() % 8);
    for (int e = 0; e < edits; ++e) mutate(input, rng);
    const std::string bad = first_bad_exception(input);
    ASSERT_EQ(bad, "") << "iteration " << i << " input: " << input;
  }
}

/// The string the reader must return for `raw` after a writer round
/// trip: bytes >= 0x7f were written as \u00XX and decode to U+00XX.
std::string expected_roundtrip(std::string_view raw) {
  std::string out;
  for (const char c : raw) {
    const auto b = static_cast<unsigned char>(c);
    if (b < 0x80) {
      out.push_back(c);
    } else {
      out.push_back(static_cast<char>(0xC0 | (b >> 6)));
      out.push_back(static_cast<char>(0x80 | (b & 0x3F)));
    }
  }
  return out;
}

std::string random_string(std::mt19937_64& rng) {
  std::string s(rng() % 12, '\0');
  for (char& c : s) c = static_cast<char>(rng() % 256);
  return s;
}

double random_double(std::mt19937_64& rng) {
  switch (rng() % 4) {
    case 0:
      return static_cast<double>(static_cast<std::int64_t>(rng() % 2000001) -
                                 1000000);
    case 1:
      return std::numeric_limits<double>::quiet_NaN();
    default: {
      // Any finite bit pattern, subnormals and extremes included.
      double d = 0.0;
      do {
        const std::uint64_t bits = rng();
        std::memcpy(&d, &bits, sizeof d);
      } while (!std::isfinite(d));
      return d;
    }
  }
}

/// Writes a random value with `w` and returns what parse_json must
/// read back.
JsonValue write_random(JsonWriter& w, std::mt19937_64& rng, int depth) {
  const unsigned kind = depth >= 5 ? static_cast<unsigned>(rng() % 4)
                                   : static_cast<unsigned>(rng() % 6);
  switch (kind) {
    case 0:
      w.null();
      return JsonValue();
    case 1: {
      const bool b = (rng() & 1) != 0;
      w.value(b);
      return JsonValue(b);
    }
    case 2: {
      const double d = random_double(rng);
      w.value(d);
      return std::isfinite(d) ? JsonValue(d) : JsonValue();
    }
    case 3: {
      const std::string s = random_string(rng);
      w.value(s);
      return JsonValue(expected_roundtrip(s));
    }
    case 4: {
      JsonValue::Array arr;
      w.begin_array();
      for (std::uint64_t n = rng() % 5; n > 0; --n) {
        arr.push_back(write_random(w, rng, depth + 1));
      }
      w.end_array();
      return JsonValue(std::move(arr));
    }
    default: {
      JsonValue::Object obj;
      w.begin_object();
      for (std::uint64_t n = rng() % 5; n > 0; --n) {
        const std::string key = random_string(rng);
        w.key(key);
        // Duplicate keys keep the last value, as the reader documents.
        obj.insert_or_assign(expected_roundtrip(key),
                             write_random(w, rng, depth + 1));
      }
      w.end_object();
      return JsonValue(std::move(obj));
    }
  }
}

bool same(const JsonValue& a, const JsonValue& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case JsonValue::Kind::kNull:
      return true;
    case JsonValue::Kind::kBool:
      return a.as_bool() == b.as_bool();
    case JsonValue::Kind::kNumber:
      return a.as_number() == b.as_number();
    case JsonValue::Kind::kString:
      return a.as_string() == b.as_string();
    case JsonValue::Kind::kArray: {
      const auto& x = a.as_array();
      const auto& y = b.as_array();
      if (x.size() != y.size()) return false;
      for (std::size_t i = 0; i < x.size(); ++i) {
        if (!same(x[i], y[i])) return false;
      }
      return true;
    }
    case JsonValue::Kind::kObject: {
      const auto& x = a.as_object();
      const auto& y = b.as_object();
      if (x.size() != y.size()) return false;
      for (auto i = x.begin(), j = y.begin(); i != x.end(); ++i, ++j) {
        if (i->first != j->first || !same(i->second, j->second)) return false;
      }
      return true;
    }
  }
  return false;
}

TEST(JsonFuzz, WriterOutputRoundTripsThroughReader) {
  std::mt19937_64 rng(kSeed + 1);
  for (int i = 0; i < kRoundTrips; ++i) {
    std::ostringstream os;
    JsonWriter w(os);
    const JsonValue expected = write_random(w, rng, 0);
    const std::string text = os.str();
    // Written JSON is plain ASCII whatever the input bytes were.
    for (const char c : text) {
      ASSERT_LT(static_cast<unsigned char>(c), 0x7f) << text;
    }
    JsonValue parsed;
    ASSERT_NO_THROW(parsed = parse_json(text)) << text;
    ASSERT_TRUE(same(parsed, expected)) << "iteration " << i << ": " << text;
  }
}

}  // namespace
}  // namespace parlap
