#include "obs/json.hpp"

#include "support/json_parser.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>

namespace powerlens::obs {
namespace {

using test_support::JsonParser;
using test_support::JsonValue;

std::string json_escape(std::string_view s) {
  std::string out;
  append_json_escaped(out, s);
  return out;
}

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(json_escape("hello world"), "hello world");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01z")), "a\\u0001z");
}

TEST(JsonNumber, IntegersPrintWithoutFraction) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(42.0), "42");
  EXPECT_EQ(json_number(-7.0), "-7");
}

TEST(JsonNumber, FractionsKeepPrecision) {
  EXPECT_EQ(json_number(0.5), "0.5");
  EXPECT_NE(json_number(3.14159).find("3.14159"), std::string::npos);
}

TEST(JsonNumber, NonFiniteClampsToZero) {
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(json_number(std::nan("")), "0");
}

// The snprintf formatter append_json_number replaced, kept here as the
// byte-for-byte oracle for the to_chars form.
std::string snprintf_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[32];
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.12g", v);
  }
  return buf;
}

TEST(JsonNumber, MatchesSnprintfOracleOnEdgeValues) {
  constexpr double k2p53 = 9007199254740992.0;
  const double values[] = {
      0.0, -0.0,
      // Both sides of the 2^53 integer cut (the %.0f / %.12g switch).
      k2p53 - 2.0, k2p53 - 1.0, k2p53, k2p53 + 2.0, -(k2p53 - 1.0), -k2p53,
      4503599627370495.5, 1e15, 123456789012345.0,
      // %g exponent switch points: below 1e-4 and at 12 integer digits.
      1e-5, 9.99999999999e-5, 1e-4, 0.0001000000000005, 1e12, 999999999999.5,
      999999999999.9, 1e12 + 0.5, -1e12 - 0.5, 99999999999.95,
      // Subnormals and extremes.
      std::numeric_limits<double>::denorm_min(), DBL_MIN, DBL_MIN / 3.0,
      -DBL_MIN / 7.0, DBL_MAX, -DBL_MAX,
      // Exact .5 rounding ties at %.12g's 12 significant digits.
      100000000000.5, 100000000001.5, 999999999998.5, -100000000002.5,
      0.5, 1.5, 2.5, -0.5, 0.125, 1.0000000000005,
      // Non-finite values clamp to 0.
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  for (const double v : values) {
    EXPECT_EQ(json_number(v), snprintf_number(v)) << v;
  }
}

TEST(JsonNumber, MatchesSnprintfOracleOnRandomBitPatterns) {
  std::mt19937_64 rng(20241015);
  std::size_t mismatches = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint64_t bits = rng();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    if (json_number(v) != snprintf_number(v) && ++mismatches <= 5) {
      ADD_FAILURE() << "bits 0x" << std::hex << bits << ": "
                    << json_number(v) << " vs " << snprintf_number(v);
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(JsonNumber, HexIsZeroPaddedLowercase) {
  EXPECT_EQ(hex_u64(0), "0x0000000000000000");
  EXPECT_EQ(hex_u64(0xabcULL), "0x0000000000000abc");
  EXPECT_EQ(hex_u64(0xfedcba9876543210ULL), "0xfedcba9876543210");
  std::mt19937_64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng() >> (i % 64);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    EXPECT_EQ(hex_u64(v), buf);
  }
}

TEST(JsonWriter, BuildsObjectRecords) {
  const std::string s = JsonWriter()
                            .field("phase", "generate")
                            .field("threads", 4.0)
                            .field("ok", true)
                            .str();
  EXPECT_EQ(s, "{\"phase\": \"generate\", \"threads\": 4, \"ok\": true}");
}

TEST(JsonWriter, EmptyObject) {
  EXPECT_EQ(JsonWriter().str(), "{}");
}

TEST(JsonWriter, EscapesStringValues) {
  const std::string s = JsonWriter().field("k", "a\"b").str();
  EXPECT_EQ(s, "{\"k\": \"a\\\"b\"}");
}

// --- adversarial inputs: every emitted record must survive a strict parse
// and decode back to the original payload.

TEST(JsonEscapeAdversarial, AllControlBytesRoundTrip) {
  std::string raw;
  for (int c = 0; c < 0x20; ++c) raw += static_cast<char>(c);
  const std::string quoted = "\"" + json_escape(raw) + "\"";
  // No bare control byte may survive escaping.
  for (char c : json_escape(raw)) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
  const JsonValue v = JsonParser(quoted).parse();
  ASSERT_TRUE(v.is_string());
  EXPECT_EQ(v.string(), raw);
}

TEST(JsonEscapeAdversarial, BackslashQuoteGauntletRoundTrips) {
  const std::string raw = "\\\\\"\\\"\"\\n literal \\u0041 \"\" \\";
  const JsonValue v = JsonParser("\"" + json_escape(raw) + "\"").parse();
  ASSERT_TRUE(v.is_string());
  EXPECT_EQ(v.string(), raw);
}

TEST(JsonEscapeAdversarial, Utf8PayloadPassesThroughUnmangled) {
  // Multibyte UTF-8 (é, 中, 🚀) is valid inside JSON strings and must not
  // be escaped byte-by-byte.
  const std::string raw = "caf\xc3\xa9 \xe4\xb8\xad \xf0\x9f\x9a\x80";
  EXPECT_EQ(json_escape(raw), raw);
  const JsonValue v = JsonParser("\"" + raw + "\"").parse();
  EXPECT_EQ(v.string(), raw);
}

TEST(JsonEscapeAdversarial, EmbeddedNulIsEscapedNotTruncated) {
  const std::string raw = std::string("a\0b", 3);
  const std::string escaped = json_escape(raw);
  EXPECT_EQ(escaped, "a\\u0000b");
  const JsonValue v = JsonParser("\"" + escaped + "\"").parse();
  EXPECT_EQ(v.string(), raw);
}

TEST(JsonNumberAdversarial, ExtremeMagnitudesStayParseable) {
  for (double d : {std::numeric_limits<double>::max(),
                   std::numeric_limits<double>::lowest(),
                   std::numeric_limits<double>::min(),
                   std::numeric_limits<double>::denorm_min(), -0.0, 1e-300,
                   -1e300}) {
    const std::string text = json_number(d);
    const JsonValue v = JsonParser(text).parse();
    ASSERT_TRUE(v.is_number()) << text;
  }
  EXPECT_EQ(JsonParser(json_number(-std::numeric_limits<double>::infinity()))
                .parse()
                .number(),
            0.0);
}

TEST(JsonWriterAdversarial, HostileKeysAndValuesParseBack) {
  const std::string key = "bad\nkey\"with\\stuff";
  const std::string val = std::string("\x01\x7f\t\0", 4);
  const std::string s = JsonWriter()
                            .field(key, val)
                            .field("inf", std::numeric_limits<double>::infinity())
                            .field("flag", false)
                            .str();
  const JsonValue v = JsonParser(s).parse();
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.object().count(key), 1u);
  EXPECT_EQ(v.object().at(key).string(), val);
  EXPECT_EQ(v.object().at("inf").number(), 0.0);
  EXPECT_FALSE(v.object().at("flag").boolean());
}

TEST(JsonWriterAdversarial, DeepNestingViaStringPayloadsSurvives) {
  // A value that itself looks like deeply nested JSON must arrive as an
  // inert string, not change the document structure.
  std::string bomb;
  for (int i = 0; i < 64; ++i) bomb += "{\"a\":[";
  const std::string s = JsonWriter().field("payload", bomb).str();
  const JsonValue v = JsonParser(s).parse();
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.object().at("payload").string(), bomb);
}

TEST(JsonParserSupport, RejectsMalformedDocuments) {
  for (const char* bad :
       {"{", "[1,", "\"unterminated", "{\"k\" 1}", "{\"k\":1} extra",
        "\"\\x41\"", "\"\\u00g1\"", "nul", "--1"}) {
    EXPECT_THROW(JsonParser(bad).parse(), std::runtime_error) << bad;
  }
}

}  // namespace
}  // namespace powerlens::obs
