// Unit tests for the one JSON module: the reader (parse_json /
// JsonValue) behind job files and served requests, and the writer
// (JsonWriter) behind every JSON surface — escaping, number formatting,
// structure, and writer -> reader round trips.
#include "support/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace parlap {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_EQ(parse_json("true").as_bool(), true);
  EXPECT_EQ(parse_json("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(parse_json("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parse_json("-3.5").as_number(), -3.5);
  EXPECT_DOUBLE_EQ(parse_json("1e-8").as_number(), 1e-8);
  EXPECT_DOUBLE_EQ(parse_json("2.5E+3").as_number(), 2500.0);
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
  EXPECT_EQ(parse_json("  \"pad\"  ").as_string(), "pad");
}

TEST(Json, ParsesStringsWithEscapes) {
  EXPECT_EQ(parse_json(R"("a\"b\\c\/d")").as_string(), "a\"b\\c/d");
  EXPECT_EQ(parse_json(R"("tab\there\nline")").as_string(), "tab\there\nline");
  EXPECT_EQ(parse_json(R"("\u0041\u00e9")").as_string(), "A\xC3\xA9");
  EXPECT_EQ(parse_json(R"("\u20ac")").as_string(), "\xE2\x82\xAC");  // €
}

TEST(Json, ParsesArraysAndObjects) {
  const JsonValue v = parse_json(R"({"a": [1, 2, 3], "b": {"c": true}})");
  ASSERT_TRUE(v.is_object());
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(a->as_array()[1].as_number(), 2.0);
  const JsonValue* c = v.find("b")->find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(c->as_bool());
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_TRUE(parse_json("[]").as_array().empty());
  EXPECT_TRUE(parse_json("{}").as_object().empty());
}

TEST(Json, DuplicateKeysKeepLast) {
  EXPECT_DOUBLE_EQ(parse_json(R"({"k": 1, "k": 2})").find("k")->as_number(),
                   2.0);
}

TEST(Json, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "tru", "\"unterminated", "{\"a\" 1}", "{\"a\":}",
        "[1 2]", "1 2", "nan", "inf", "--1", "1.2.3", "\"bad\\q\"",
        "\"\\u12\"", "{\"a\":1,}", "[1,]", "\x01"}) {
    EXPECT_THROW((void)parse_json(bad), std::invalid_argument) << bad;
  }
}

TEST(Json, RejectsPathologicalNestingWithoutOverflow) {
  // 200k open brackets must be a parse error, not a stack overflow.
  const std::string deep(200000, '[');
  EXPECT_THROW((void)parse_json(deep), std::invalid_argument);
  std::string mixed;
  for (int i = 0; i < 1000; ++i) mixed += "{\"a\":[";
  EXPECT_THROW((void)parse_json(mixed), std::invalid_argument);
  // 64 levels (the documented limit) still parse.
  std::string ok(64, '[');
  ok += std::string(64, ']');
  EXPECT_EQ(parse_json(ok).as_array().size(), 1u);
  // Empty containers must release their depth: many flat {} / [] are
  // fine however numerous.
  std::string flat = "[";
  for (int i = 0; i < 200; ++i) flat += i == 0 ? "{}" : ",{}";
  for (int i = 0; i < 200; ++i) flat += ",[]";
  flat += "]";
  EXPECT_EQ(parse_json(flat).as_array().size(), 400u);
}

TEST(Json, ErrorsNameTheOffset) {
  try {
    (void)parse_json("{\"a\": 1, \"b\": }");
    FAIL() << "expected parse error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

TEST(Json, AccessorsThrowOnKindMismatch) {
  const JsonValue v = parse_json("42");
  EXPECT_THROW((void)v.as_string(), std::invalid_argument);
  EXPECT_THROW((void)v.as_array(), std::invalid_argument);
  EXPECT_THROW((void)v.as_bool(), std::invalid_argument);
  EXPECT_THROW((void)parse_json("\"s\"").as_number(), std::invalid_argument);
}

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(JsonWriter::escape("grid2d/n=4096"), "\"grid2d/n=4096\"");
  EXPECT_EQ(JsonWriter::escape(""), "\"\"");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonWriter::escape("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(JsonWriter::escape("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(JsonWriter::escape("a\nb\tc"), "\"a\\nb\\tc\"");
  EXPECT_EQ(JsonWriter::escape("\b\f\r"), "\"\\b\\f\\r\"");
  EXPECT_EQ(JsonWriter::escape(std::string_view("\x01\x1f", 2)),
            "\"\\u0001\\u001f\"");
}

TEST(JsonEscape, EscapesHighBytesSoOutputIsAscii) {
  // Bytes >= 0x7f become \u00XX, so echoing hostile input (invalid
  // UTF-8 included) always yields valid ASCII JSON.
  EXPECT_EQ(JsonWriter::escape("caf\xC3\xA9"), "\"caf\\u00c3\\u00a9\"");
  EXPECT_EQ(JsonWriter::escape("\x7f\xff"), "\"\\u007f\\u00ff\"");
}

TEST(JsonNumbers, IntegralDoublesPrintWithoutFraction) {
  EXPECT_EQ(JsonWriter::format_number(4096.0), "4096");
  EXPECT_EQ(JsonWriter::format_number(-3.0), "-3");
  EXPECT_EQ(JsonWriter::format_number(0.0), "0");
}

TEST(JsonNumbers, NonFiniteBecomesNull) {
  EXPECT_EQ(JsonWriter::format_number(std::nan("")), "null");
  EXPECT_EQ(JsonWriter::format_number(
                std::numeric_limits<double>::infinity()),
            "null");
}

TEST(JsonNumbers, FractionsRoundTrip) {
  const double x = 0.1234567890123;
  EXPECT_DOUBLE_EQ(std::strtod(JsonWriter::format_number(x).c_str(), nullptr),
                   x);
}

TEST(JsonNumbers, NegativeZeroAndLargeValues) {
  EXPECT_EQ(JsonWriter::format_number(-0.0), "0");
  EXPECT_EQ(JsonWriter::format_number(1e300), "1.0000000000000001e+300");
  EXPECT_EQ(JsonWriter::format_number(9007199254740992.0),
            "9007199254740992");
}

TEST(JsonWriterTest, NestedStructureHasBalancedCommas) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object();
  w.member("a", std::int64_t{1});
  w.member("b", "x");
  w.key("c");
  w.begin_array();
  w.value(1.5);
  w.null();
  w.begin_object();
  w.member("d", true);
  w.end_object();
  w.end_array();
  w.end_object();
  EXPECT_EQ(out.str(), R"({"a":1,"b":"x","c":[1.5,null,{"d":true}]})");
}

TEST(JsonWriterTest, UnsignedValuesPrintExactly) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_array();
  w.value(std::uint64_t{18446744073709551615ull});
  w.value(std::int64_t{-9223372036854775807 - 1});
  w.end_array();
  EXPECT_EQ(out.str(), "[18446744073709551615,-9223372036854775808]");
}

TEST(JsonRoundTrip, WriterOutputParsesBack) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object();
  w.member("s", std::string_view("q\"\\\b\f\n\r\t\x01/"));
  w.member("x", 0.1234567890123);
  w.member("nan", std::nan(""));
  w.member("ok", false);
  w.key("a");
  w.begin_array();
  w.begin_object();
  w.end_object();
  w.begin_array();
  w.end_array();
  w.end_array();
  w.end_object();
  const JsonValue v = parse_json(out.str());
  EXPECT_EQ(v.find("s")->as_string(), "q\"\\\b\f\n\r\t\x01/");
  EXPECT_EQ(v.find("x")->as_number(), 0.1234567890123);
  EXPECT_TRUE(v.find("nan")->is_null());
  EXPECT_FALSE(v.find("ok")->as_bool());
  ASSERT_EQ(v.find("a")->as_array().size(), 2u);
  EXPECT_TRUE(v.find("a")->as_array()[0].as_object().empty());
}

}  // namespace
}  // namespace parlap
