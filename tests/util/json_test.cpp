#include "util/json.hpp"

#include <gtest/gtest.h>

namespace npat::util {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("3.25").as_number(), 3.25);
  EXPECT_DOUBLE_EQ(Json::parse("-17").as_number(), -17.0);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_number(), 1000.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNested) {
  const auto doc = Json::parse(R"({"a": [1, 2, {"b": "c"}], "d": {}})");
  ASSERT_TRUE(doc.is_object());
  const auto& arr = doc.at("a").as_array();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_EQ(arr[2].at("b").as_string(), "c");
  EXPECT_TRUE(doc.at("d").as_object().empty());
}

TEST(Json, StringEscapes) {
  const auto doc = Json::parse(R"("a\"b\\c\nd\tA")");
  EXPECT_EQ(doc.as_string(), "a\"b\\c\nd\tA");
}

TEST(Json, UnicodeEscapeUtf8) {
  EXPECT_EQ(Json::parse(R"("é")").as_string(), "\xc3\xa9");   // é
  EXPECT_EQ(Json::parse(R"("€")").as_string(), "\xe2\x82\xac");  // €
}

TEST(Json, RejectsMalformed) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), JsonError);
  EXPECT_THROW(Json::parse("tru"), JsonError);
  EXPECT_THROW(Json::parse("1 2"), JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
}

TEST(Json, RoundTripCompact) {
  const std::string text = R"({"arr":[1,2.5,"x"],"flag":true,"n":null})";
  const auto doc = Json::parse(text);
  EXPECT_EQ(Json::parse(doc.dump()), doc);
}

TEST(Json, DumpPrettyIsReparsable) {
  JsonObject obj;
  obj["list"] = JsonArray{Json(1), Json("two"), Json(false)};
  obj["name"] = "npat";
  const Json doc{std::move(obj)};
  const std::string pretty = doc.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(Json::parse(pretty), doc);
}

TEST(Json, IntegersSerializeWithoutExponent) {
  EXPECT_EQ(Json(u64{123456789}).dump(), "123456789");
  EXPECT_EQ(Json(-42).dump(), "-42");
}

TEST(Json, TypedGettersWithDefaults) {
  const auto doc = Json::parse(R"({"s":"v","n":2,"b":true})");
  EXPECT_DOUBLE_EQ(doc.get_number("n"), 2.0);
  EXPECT_DOUBLE_EQ(doc.get_number("s", 9.0), 9.0);  // wrong type -> default
  EXPECT_TRUE(doc.get_bool("b"));
}

TEST(Json, AtThrowsOnMissingKey) {
  const auto doc = Json::parse("{}");
  EXPECT_THROW(doc.at("nope"), JsonError);
}

TEST(Json, TypeMismatchThrows) {
  EXPECT_THROW(Json::parse("3").as_string(), JsonError);
  EXPECT_THROW(Json::parse("\"x\"").as_array(), JsonError);
}

TEST(Json, WhitespaceTolerant) {
  const auto doc = Json::parse(" \n\t{ \"a\" :\t[ 1 ,\n2 ] } \r\n");
  EXPECT_EQ(doc.at("a").as_array().size(), 2u);
}

}  // namespace
}  // namespace npat::util
