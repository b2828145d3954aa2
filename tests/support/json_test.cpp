// JSON value model, parser and writer.
#include "support/json.hpp"
#include "support/strings.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>

namespace icsdiv::support {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_boolean());
  EXPECT_FALSE(Json::parse("false").as_boolean());
  EXPECT_EQ(Json::parse("42").as_integer(), 42);
  EXPECT_EQ(Json::parse("-17").as_integer(), -17);
  EXPECT_DOUBLE_EQ(Json::parse("3.5").as_double(), 3.5);
  EXPECT_DOUBLE_EQ(Json::parse("-2.5e3").as_double(), -2500.0);
  EXPECT_EQ(Json::parse("\"hello\"").as_string(), "hello");
}

TEST(JsonParse, IntegerStaysExact) {
  const auto value = Json::parse("9007199254740993");  // 2^53 + 1
  EXPECT_EQ(value.type(), Json::Type::Integer);
  EXPECT_EQ(value.as_integer(), 9007199254740993LL);
}

TEST(JsonParse, IntegerAcceptedAsDouble) {
  EXPECT_DOUBLE_EQ(Json::parse("7").as_double(), 7.0);
}

TEST(JsonParse, NestedStructures) {
  const auto doc = Json::parse(R"({"a": [1, 2, {"b": null}], "c": {"d": true}})");
  const auto& root = doc.as_object();
  EXPECT_EQ(root.size(), 2u);
  const auto& a = root.at("a").as_array();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[1].as_integer(), 2);
  EXPECT_TRUE(a[2].as_object().at("b").is_null());
  EXPECT_TRUE(root.at("c").as_object().at("d").as_boolean());
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(Json::parse(R"("a\"b\\c\/d\n\t")").as_string(), "a\"b\\c/d\n\t");
  EXPECT_EQ(Json::parse(R"("Aé")").as_string(), "A\xc3\xa9");
}

TEST(JsonParse, SurrogatePairs) {
  // U+1F600 as a surrogate pair.
  EXPECT_EQ(Json::parse(R"("😀")").as_string(), "\xF0\x9F\x98\x80");
}

TEST(JsonParse, Whitespace) {
  EXPECT_EQ(Json::parse(" \n\t { \"k\" : 1 } \r\n").as_object().at("k").as_integer(), 1);
}

TEST(JsonParse, Errors) {
  EXPECT_THROW(Json::parse(""), ParseError);
  EXPECT_THROW(Json::parse("{"), ParseError);
  EXPECT_THROW(Json::parse("[1,]"), ParseError);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), ParseError);
  EXPECT_THROW(Json::parse("nul"), ParseError);
  EXPECT_THROW(Json::parse("1 2"), ParseError);
  EXPECT_THROW(Json::parse("\"unterminated"), ParseError);
  EXPECT_THROW(Json::parse("\"bad \\x escape\""), ParseError);
  EXPECT_THROW(Json::parse("01"), ParseError);
  EXPECT_THROW(Json::parse("\"\\ud83d\""), ParseError);  // unpaired surrogate
  EXPECT_THROW(Json::parse("{1: 2}"), ParseError);
}

TEST(JsonParse, ErrorCarriesLocation) {
  try {
    Json::parse("{\n  \"a\": nope\n}");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2u);
  }
}

TEST(JsonParse, NestingDepthIsCapped) {
  // kMaxJsonDepth levels parse; one more is a typed error at the opening
  // bracket that exceeds the cap, not a stack overflow.
  const std::string deepest = std::string(kMaxJsonDepth, '[') + std::string(kMaxJsonDepth, ']');
  EXPECT_NO_THROW((void)Json::parse(deepest));
  const std::string too_deep = "{\"a\":" + std::string(100000, '[');
  try {
    (void)Json::parse(too_deep);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than 256 levels"), std::string::npos)
        << e.what();
    EXPECT_EQ(e.line(), 1u);
    // The object is level 1, so the 256th '[' (column 5 + 256) is 257.
    EXPECT_EQ(e.column(), 5u + kMaxJsonDepth);
  }
}

TEST(JsonParse, DuplicateKeysLastValueWinsAtFirstPosition) {
  const Json doc = Json::parse(R"({"a":1,"b":2,"a":3})");
  EXPECT_EQ(doc.as_object().size(), 2u);
  EXPECT_EQ(doc.dump(), R"({"a":3,"b":2})");
  // The same rule past the size where objects switch to a hash index.
  std::string text = "{";
  for (int i = 0; i < 20; ++i) text += "\"k" + std::to_string(i) + "\":" + std::to_string(i) + ",";
  text += R"("k3":"late","k19":"last"})";
  const Json big = Json::parse(text);
  ASSERT_EQ(big.as_object().size(), 20u);
  EXPECT_EQ(big.as_object().at("k3").as_string(), "late");
  EXPECT_EQ(big.as_object().at("k19").as_string(), "last");
  EXPECT_EQ(big.as_object().begin()[3].first, "k3");
  EXPECT_EQ(big.as_object().begin()[19].first, "k19");
}

TEST(JsonParse, ManyKeyObjectParsesInLinearTime) {
  // 200k keys: a linear scan per insert would take minutes; a generous
  // bound still catches a return to quadratic behaviour.
  constexpr int kKeys = 200000;
  std::string text = "{";
  for (int i = 0; i < kKeys; ++i) {
    if (i > 0) text += ",";
    text += "\"key" + std::to_string(i) + "\":" + std::to_string(i);
  }
  text += "}";
  const auto start = std::chrono::steady_clock::now();
  const Json doc = Json::parse(text);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  ASSERT_EQ(doc.as_object().size(), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(doc.as_object().at("key123456").as_integer(), 123456);
  EXPECT_EQ(doc.as_object().find("key200000"), nullptr);
  EXPECT_LT(seconds, 10.0);
}

TEST(JsonDump, RoundTrip) {
  const char* documents[] = {
      R"({"a":[1,2,3],"b":{"c":"d"},"e":null,"f":true,"g":1.25})",
      R"([])",
      R"({})",
      R"(["\"quoted\"","line\nbreak"])",
  };
  for (const char* text : documents) {
    const auto parsed = Json::parse(text);
    EXPECT_EQ(parsed.dump(), text) << text;
    // Pretty output re-parses to the same compact form.
    EXPECT_EQ(Json::parse(parsed.dump_pretty()).dump(), text) << text;
  }
}

TEST(JsonDump, ControlCharactersEscaped) {
  const std::string raw{'a', '\x01', 'b'};
  const Json value(raw);
  EXPECT_EQ(value.dump(), "\"a\\u0001b\"");
  EXPECT_EQ(Json::parse(value.dump()).as_string(), raw);
}

TEST(JsonObject, InsertionOrderPreserved) {
  JsonObject object;
  object.set("z", Json(1));
  object.set("a", Json(2));
  object.set("m", Json(3));
  const Json doc{std::move(object)};
  EXPECT_EQ(doc.dump(), R"({"z":1,"a":2,"m":3})");
}

TEST(JsonObject, SetOverwrites) {
  JsonObject object;
  object.set("k", Json(1));
  object.set("k", Json(2));
  EXPECT_EQ(object.size(), 1u);
  EXPECT_EQ(object.at("k").as_integer(), 2);
}

TEST(JsonObject, IndexedCopyIsIndependent) {
  JsonObject object;
  for (int i = 0; i < 40; ++i) object.set(support::numbered("k", i), Json(i));
  JsonObject copy = object;
  copy.set("k7", Json("changed"));
  copy.set("extra", Json(true));
  EXPECT_EQ(object.at("k7").as_integer(), 7);
  EXPECT_EQ(object.find("extra"), nullptr);
  EXPECT_EQ(copy.at("k7").as_string(), "changed");
  EXPECT_EQ(copy.size(), 41u);
  object = copy;
  EXPECT_TRUE(object.at("extra").as_boolean());
  for (int i = 0; i < 40; ++i) EXPECT_TRUE(object.contains(support::numbered("k", i)));
}

TEST(JsonObject, MissingKeyThrows) {
  JsonObject object;
  EXPECT_THROW((void)object.at("nope"), NotFound);
  EXPECT_EQ(object.find("nope"), nullptr);
}

TEST(JsonAccessors, TypeMismatchThrows) {
  const Json value(42);
  EXPECT_THROW((void)value.as_string(), InvalidArgument);
  EXPECT_THROW((void)value.as_array(), InvalidArgument);
  EXPECT_THROW((void)value.as_object(), InvalidArgument);
  EXPECT_THROW((void)Json("x").as_integer(), InvalidArgument);
}

TEST(JsonDump, NonFiniteRejected) {
  const Json value(std::numeric_limits<double>::infinity());
  EXPECT_THROW(value.dump(), InvalidArgument);
}

}  // namespace
}  // namespace icsdiv::support
