#include "mlm/support/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "mlm/support/error.h"
#include "mlm/support/proptest.h"

namespace mlm {
namespace {

TEST(JsonValue, KindsAndAccessors) {
  EXPECT_TRUE(JsonValue().is_null());
  EXPECT_TRUE(JsonValue(nullptr).is_null());
  EXPECT_TRUE(JsonValue(true).as_bool());
  EXPECT_EQ(JsonValue(3.5).as_number(), 3.5);
  EXPECT_EQ(JsonValue("hi").as_string(), "hi");
  EXPECT_THROW(JsonValue(3.5).as_string(), Error);
  EXPECT_THROW(JsonValue("hi").as_number(), Error);
}

TEST(JsonValue, ObjectPreservesInsertionOrder) {
  JsonValue obj = JsonValue::object();
  obj.set("zebra", 1);
  obj.set("alpha", 2);
  obj.set("mid", 3);
  EXPECT_EQ(obj.members()[0].first, "zebra");
  EXPECT_EQ(obj.members()[1].first, "alpha");
  EXPECT_EQ(obj.members()[2].first, "mid");
  // Overwrite keeps the original position.
  obj.set("zebra", 9);
  EXPECT_EQ(obj.members()[0].first, "zebra");
  EXPECT_EQ(obj.get("zebra").as_number(), 9.0);
  EXPECT_EQ(obj.size(), 3u);
  EXPECT_TRUE(obj.contains("mid"));
  EXPECT_FALSE(obj.contains("nope"));
  EXPECT_EQ(obj.find("nope"), nullptr);
  EXPECT_THROW(obj.get("nope"), Error);
}

TEST(JsonValue, StringEscaping) {
  EXPECT_EQ(JsonValue::quote("plain"), "\"plain\"");
  EXPECT_EQ(JsonValue::quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(JsonValue::quote("back\\slash"), "\"back\\\\slash\"");
  EXPECT_EQ(JsonValue::quote("tab\there"), "\"tab\\there\"");
  EXPECT_EQ(JsonValue::quote("line\nbreak"), "\"line\\nbreak\"");
  EXPECT_EQ(JsonValue::quote(std::string("nul\0byte", 8)),
            "\"nul\\u0000byte\"");
  // UTF-8 passes through verbatim.
  EXPECT_EQ(JsonValue::quote("caf\xc3\xa9"), "\"caf\xc3\xa9\"");
}

TEST(JsonValue, NumberReprIntegers) {
  EXPECT_EQ(JsonValue::number_repr(0.0), "0");
  EXPECT_EQ(JsonValue::number_repr(-3.0), "-3");
  EXPECT_EQ(JsonValue::number_repr(400000000000.0), "400000000000");
  // 2^53, the largest exactly-representable contiguous integer.
  EXPECT_EQ(JsonValue::number_repr(9007199254740992.0),
            "9007199254740992");
}

TEST(JsonValue, NumberReprRoundTrips) {
  for (double v : {0.1, 1.0 / 3.0, 7.497391234, 1e-300, 6.02214076e23,
                   -123.456789012345678}) {
    const std::string repr = JsonValue::number_repr(v);
    EXPECT_EQ(std::stod(repr), v) << repr;
  }
}

TEST(JsonValue, NumberReprRejectsNonFinite) {
  EXPECT_THROW(JsonValue::number_repr(std::nan("")), Error);
  EXPECT_THROW(
      JsonValue::number_repr(std::numeric_limits<double>::infinity()),
      Error);
}

TEST(JsonValue, DumpCompactAndPretty) {
  JsonValue obj = JsonValue::object();
  obj.set("n", 1);
  JsonValue arr = JsonValue::array();
  arr.push_back("x");
  arr.push_back(true);
  obj.set("a", std::move(arr));
  EXPECT_EQ(obj.dump(0), "{\"n\":1,\"a\":[\"x\",true]}");
  EXPECT_EQ(obj.dump(2), "{\n  \"n\": 1,\n  \"a\": [\n    \"x\",\n"
                         "    true\n  ]\n}");
}

TEST(JsonParse, RoundTripsDocuments) {
  const std::string text =
      R"({"name":"case","value":7.497391234,"flags":[true,false,null],)"
      R"("nested":{"deep":[1,2,3]},"empty_arr":[],"empty_obj":{}})";
  const JsonValue doc = json_parse(text);
  EXPECT_EQ(doc.dump(0), text);
  // Pretty-printed output parses back to the same document.
  EXPECT_EQ(json_parse(doc.dump(2)).dump(0), text);
}

TEST(JsonParse, UnicodeEscapes) {
  EXPECT_EQ(json_parse("\"A\\u00e9\"").as_string(), "A\xc3\xa9");
  EXPECT_EQ(json_parse("\"\\u2603\"").as_string(), "\xe2\x98\x83");
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(json_parse(""), JsonParseError);
  EXPECT_THROW(json_parse("{"), JsonParseError);
  EXPECT_THROW(json_parse("[1,]"), JsonParseError);
  EXPECT_THROW(json_parse("{\"a\":1,}"), JsonParseError);
  EXPECT_THROW(json_parse("\"unterminated"), JsonParseError);
  EXPECT_THROW(json_parse("nul"), JsonParseError);
  EXPECT_THROW(json_parse("1.2.3"), JsonParseError);
  EXPECT_THROW(json_parse("{} trailing"), JsonParseError);
  EXPECT_THROW(json_parse("{\"dup\":1,\"dup\":2}"), JsonParseError);
  EXPECT_THROW(json_parse("\"bad\\q\""), JsonParseError);
}

// Arrays and objects recurse; a document nested past the limit is a
// parse error, not a stack overflow.
TEST(JsonParse, DeepNestingIsAParseError) {
  constexpr std::size_t kDeep = 100000;
  EXPECT_THROW(json_parse(std::string(kDeep, '[')), JsonParseError);
  EXPECT_THROW(json_parse(std::string(kDeep, '[') + std::string(kDeep, ']')),
               JsonParseError);
  std::string objects;
  for (std::size_t i = 0; i < kDeep; ++i) objects += "{\"a\":";
  EXPECT_THROW(json_parse(objects), JsonParseError);
  const JsonValue shallow =
      json_parse(std::string(100, '[') + std::string(100, ']'));
  EXPECT_EQ(shallow.size(), 1u);
}

// JSON has no infinity; a number strtod overflows would not dump back.
TEST(JsonParse, OutOfRangeNumberIsAParseError) {
  EXPECT_THROW(json_parse("1e999"), JsonParseError);
  EXPECT_THROW(json_parse("[-1e400]"), JsonParseError);
  EXPECT_EQ(json_parse("1e-400").as_number(), 0.0);
}

// Seeded mutation of the checked-in smoke baseline, the largest JSON
// file the tools read: every mutant parses or throws JsonParseError,
// and a mutant that parses round-trips through dump().
TEST(JsonFuzz, SmokeBaselineMutantsParseOrFailStructured) {
  constexpr std::size_t kMutants = 200;
  constexpr char kSignificant[] = "[]{}\",:.-+eE0123456789 \\ntfu";
  std::ifstream in(MLM_SMOKE_BASELINE);
  ASSERT_TRUE(in.is_open()) << MLM_SMOKE_BASELINE;
  std::ostringstream os;
  os << in.rdbuf();
  const std::string text = os.str();

  Gen gen(24);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < kMutants; ++i) {
    std::string m = text;
    switch (gen.below(4)) {
      case 0:  // flip 1-3 bits
        for (std::size_t f = gen.size_in(1, 3); f > 0; --f) {
          m[gen.below(m.size())] ^= static_cast<char>(1u << gen.below(8));
        }
        break;
      case 1:  // overwrite a byte with one the grammar cares about
        m[gen.below(m.size())] =
            kSignificant[gen.below(sizeof kSignificant - 1)];
        break;
      case 2:  // truncate
        m.resize(gen.below(m.size()));
        break;
      default: {  // nest arrays after a key, up to far past the limit
        const std::size_t colon = m.find(':', gen.below(m.size()));
        if (colon != std::string::npos) {
          m.insert(colon + 1, std::string(gen.size_in(1, 100000), '['));
        }
      }
    }
    try {
      const std::string dumped = json_parse(m).dump();
      EXPECT_EQ(json_parse(dumped).dump(), dumped) << "mutant " << i;
      ++parsed;
    } catch (const JsonParseError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " escaped as " << e.what();
    }
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(JsonFile, WriteAndParseFile) {
  const std::string path = ::testing::TempDir() + "/mlm_json_test.json";
  JsonValue obj = JsonValue::object();
  obj.set("sha", "abc123");
  obj.set("count", 42);
  json_write_file(path, obj);
  const JsonValue back = json_parse_file(path);
  EXPECT_EQ(back.get("sha").as_string(), "abc123");
  EXPECT_EQ(back.get("count").as_number(), 42.0);
  std::remove(path.c_str());
  EXPECT_THROW(json_parse_file(path), Error);
  EXPECT_THROW(json_write_file("/nonexistent-dir/x.json", obj), Error);
}

}  // namespace
}  // namespace mlm
