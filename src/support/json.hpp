// The one JSON module: a recursive-descent reader (JsonValue /
// parse_json) and a streaming writer (JsonWriter). Every JSON surface
// parlap emits — CLI reports, served lines, the event log, the metrics
// snapshot, Chrome traces and bench reports — goes through the writer,
// and every JSON input (job files, served requests, stats lines) through
// the reader. The repo carries no third-party JSON dependency.
//
// Reader scope is RFC 8259 minus the corners the job format never
// produces: numbers parse via strtod (so 1e-8 and -3.5 work), strings
// support the standard escapes plus \uXXXX for BMP code points, and
// objects keep the last value for a duplicated key. Errors throw
// std::invalid_argument with a byte offset and a short excerpt, so a
// bad line in a 10k-line job file is findable.
//
// Writer output rules, the same on every surface:
//   - strings: `"` `\` \b \f \n \r \t get their short escapes, other
//     bytes below 0x20 and every byte >= 0x7f become \u00XX, so output
//     is plain ASCII and echoing hostile input always yields valid UTF-8;
//   - numbers: integral doubles below 2^53 print without a fraction,
//     others as %.17g (round-trippable); NaN and +-Inf print null.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace parlap {

/// One parsed JSON value. Cheap to move; arrays/objects own their
/// children. Accessors throw std::invalid_argument on kind mismatches so
/// schema errors in job files surface as readable messages, not UB.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  /// std::map keeps member iteration deterministic (sorted by key).
  using Object = std::map<std::string, JsonValue, std::less<>>;

  JsonValue() : v_(nullptr) {}
  explicit JsonValue(bool b) : v_(b) {}
  explicit JsonValue(double d) : v_(d) {}
  explicit JsonValue(std::string s) : v_(std::move(s)) {}
  explicit JsonValue(Array a) : v_(std::move(a)) {}
  explicit JsonValue(Object o) : v_(std::move(o)) {}

  [[nodiscard]] Kind kind() const noexcept {
    return static_cast<Kind>(v_.index());
  }
  [[nodiscard]] bool is_null() const noexcept { return kind() == Kind::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return kind() == Kind::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind() == Kind::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind() == Kind::kString;
  }
  [[nodiscard]] bool is_array() const noexcept {
    return kind() == Kind::kArray;
  }
  [[nodiscard]] bool is_object() const noexcept {
    return kind() == Kind::kObject;
  }

  /// Checked accessors; throw std::invalid_argument on kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

/// Parses exactly one JSON value (leading/trailing whitespace allowed;
/// anything else after the value is an error). Throws
/// std::invalid_argument with offset + excerpt on malformed input.
[[nodiscard]] JsonValue parse_json(std::string_view text);

/// Streams syntactically valid JSON to an ostream: nested objects/arrays
/// with automatic comma placement, escaping and number formatting per
/// the rules above. The caller is responsible for balanced begin/end
/// calls.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Emits the key of the next member; must be inside an object.
  void key(std::string_view k);

  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(double d);
  void value(std::int64_t i);
  void value(std::uint64_t u);
  void value(int i) { value(static_cast<std::int64_t>(i)); }
  void value(bool b);
  void null();

  /// key() + value() in one call.
  template <typename T>
  void member(std::string_view k, T&& v) {
    key(k);
    value(std::forward<T>(v));
  }

  /// Escapes `s` per the rules above and returns it in double quotes.
  static std::string escape(std::string_view s);

  /// Round-trippable decimal form per the rules above.
  static std::string format_number(double d);

 private:
  void begin_value();

  std::ostream& out_;
  // One frame per open container: whether a comma is pending before the
  // next element at that depth.
  std::vector<bool> needs_comma_{false};
  bool after_key_ = false;
};

}  // namespace parlap
