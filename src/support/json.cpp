#include "support/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <stdexcept>

namespace parlap {

namespace {

[[noreturn]] void kind_error(const char* wanted, JsonValue::Kind got) {
  static constexpr const char* kNames[] = {"null",   "bool",  "number",
                                           "string", "array", "object"};
  throw std::invalid_argument(std::string("json: expected ") + wanted +
                              ", got " + kNames[static_cast<int>(got)]);
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    const std::size_t lo = pos_ < 20 ? 0 : pos_ - 20;
    const std::string excerpt(text_.substr(lo, 40));
    throw std::invalid_argument("json: " + what + " at offset " +
                                std::to_string(pos_) + " near '" + excerpt +
                                "'");
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  // Containers recurse; a malicious line of 200k open brackets must be
  // an error, not a stack overflow.
  static constexpr int kMaxDepth = 64;

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return JsonValue(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return JsonValue();
        fail("invalid literal");
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    if (++depth_ > kMaxDepth) fail("nesting deeper than 64 levels");
    expect('{');
    JsonValue::Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return JsonValue(std::move(obj));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.insert_or_assign(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        --depth_;
        return JsonValue(std::move(obj));
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    if (++depth_ > kMaxDepth) fail("nesting deeper than 64 levels");
    expect('[');
    JsonValue::Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return JsonValue(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        --depth_;
        return JsonValue(std::move(arr));
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    if (peek() != '"') fail("expected string");
    ++pos_;
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_unicode_escape(out); break;
        default: fail("invalid escape sequence");
      }
    }
  }

  void append_unicode_escape(std::string& out) {
    // BMP code points only (no surrogate-pair recombination): job files
    // are ASCII in practice; anything else still round-trips as UTF-8.
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      cp <<= 4;
      if (h >= '0' && h <= '9') {
        cp |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        cp |= static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        cp |= static_cast<unsigned>(h - 'A' + 10);
      } else {
        fail("invalid \\u escape digit");
      }
    }
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (token.empty() || token == "-") fail("invalid number");
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || !std::isfinite(d)) {
      pos_ = start;
      fail("invalid number '" + token + "'");
    }
    return JsonValue(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

bool JsonValue::as_bool() const {
  if (!is_bool()) kind_error("bool", kind());
  return std::get<bool>(v_);
}

double JsonValue::as_number() const {
  if (!is_number()) kind_error("number", kind());
  return std::get<double>(v_);
}

const std::string& JsonValue::as_string() const {
  if (!is_string()) kind_error("string", kind());
  return std::get<std::string>(v_);
}

const JsonValue::Array& JsonValue::as_array() const {
  if (!is_array()) kind_error("array", kind());
  return std::get<Array>(v_);
}

const JsonValue::Object& JsonValue::as_object() const {
  if (!is_object()) kind_error("object", kind());
  return std::get<Object>(v_);
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  const Object& obj = std::get<Object>(v_);
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

void JsonWriter::begin_value() {
  if (!after_key_ && needs_comma_.back()) out_ << ',';
  if (!after_key_) needs_comma_.back() = true;
  after_key_ = false;
}

void JsonWriter::begin_object() {
  begin_value();
  out_ << '{';
  needs_comma_.push_back(false);
}

void JsonWriter::end_object() {
  needs_comma_.pop_back();
  out_ << '}';
}

void JsonWriter::begin_array() {
  begin_value();
  out_ << '[';
  needs_comma_.push_back(false);
}

void JsonWriter::end_array() {
  needs_comma_.pop_back();
  out_ << ']';
}

void JsonWriter::key(std::string_view k) {
  if (needs_comma_.back()) out_ << ',';
  needs_comma_.back() = true;
  out_ << escape(k) << ':';
  after_key_ = true;
}

void JsonWriter::value(std::string_view s) {
  begin_value();
  out_ << escape(s);
}

void JsonWriter::value(double d) {
  begin_value();
  out_ << format_number(d);
}

void JsonWriter::value(std::int64_t i) {
  begin_value();
  out_ << i;
}

void JsonWriter::value(std::uint64_t u) {
  begin_value();
  out_ << u;
}

void JsonWriter::value(bool b) {
  begin_value();
  out_ << (b ? "true" : "false");
}

void JsonWriter::null() {
  begin_value();
  out_ << "null";
}

std::string JsonWriter::escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const auto byte = static_cast<unsigned char>(c);
        if (byte < 0x20 || byte >= 0x7f) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(byte));
          out += buf;
        } else {
          out.push_back(c);
        }
      }
    }
  }
  out.push_back('"');
  return out;
}

std::string JsonWriter::format_number(double d) {
  if (!std::isfinite(d)) return "null";
  constexpr double kExactInt = 9007199254740992.0;  // 2^53
  if (d == std::floor(d) && std::fabs(d) < kExactInt) {
    return std::to_string(static_cast<std::int64_t>(d));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  return buf;
}

}  // namespace parlap
