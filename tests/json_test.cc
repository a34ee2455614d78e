// Unit tests for the minimal JSON codec used by legacy formats and the
// client event catalog.

#include <gtest/gtest.h>

#include "common/json.h"

namespace unilog {
namespace {

TEST(JsonTest, BuildAndDump) {
  Json root = Json::Object();
  root.Set("name", Json::Str("profile_click"));
  root.Set("count", Json::Int(42));
  root.Set("rate", Json::Number(0.5));
  root.Set("ok", Json::Bool(true));
  root.Set("missing", Json::Null());
  Json arr = Json::Array();
  arr.Push(Json::Int(1));
  arr.Push(Json::Int(2));
  root.Set("items", std::move(arr));
  EXPECT_EQ(root.Dump(),
            "{\"count\":42,\"items\":[1,2],\"missing\":null,"
            "\"name\":\"profile_click\",\"ok\":true,\"rate\":0.5}");
}

TEST(JsonTest, ParseRoundTrip) {
  std::string text =
      "{\"a\":1,\"b\":[true,false,null],\"c\":{\"nested\":\"x\"}}";
  auto parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Dump(), text);
}

TEST(JsonTest, AccessorsNavigateNesting) {
  auto doc = Json::Parse(
      R"({"eventData":{"actionName":"click","timestampMs":12345},)"
      R"("requestContext":{"userId":99}})");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)["eventData"]["actionName"].string_value(), "click");
  EXPECT_EQ((*doc)["eventData"]["timestampMs"].int_value(), 12345);
  EXPECT_EQ((*doc)["requestContext"]["userId"].int_value(), 99);
  EXPECT_TRUE((*doc)["nope"].is_null());
  EXPECT_TRUE((*doc)["eventData"]["nope"].is_null());
}

TEST(JsonTest, StringEscapes) {
  Json j = Json::Str("line1\nline2\t\"quoted\"\\slash");
  std::string dumped = j.Dump();
  auto parsed = Json::Parse(dumped);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->string_value(), "line1\nline2\t\"quoted\"\\slash");
}

TEST(JsonTest, UnicodeEscapeParsing) {
  auto parsed = Json::Parse(R"("Aé中")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->string_value(), "A\xC3\xA9\xE4\xB8\xAD");
}

TEST(JsonTest, Numbers) {
  auto parsed = Json::Parse("[0,-1,3.25,1e3,-2.5e-2]");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->at(0).number_value(), 0);
  EXPECT_EQ(parsed->at(1).number_value(), -1);
  EXPECT_EQ(parsed->at(2).number_value(), 3.25);
  EXPECT_EQ(parsed->at(3).number_value(), 1000);
  EXPECT_EQ(parsed->at(4).number_value(), -0.025);
}

TEST(JsonTest, MalformedInputsRejected) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":}").ok());
  EXPECT_FALSE(Json::Parse("[1,2,]").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":1} trailing").ok());
  EXPECT_FALSE(Json::Parse("truish").ok());
  EXPECT_FALSE(Json::Parse("{\"a\" 1}").ok());
}

TEST(JsonTest, WhitespaceTolerated) {
  auto parsed = Json::Parse("  {\n \"a\" : [ 1 , 2 ] \t}  ");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ((*parsed)["a"].at(1).int_value(), 2);
}

TEST(JsonTest, EmptyContainers) {
  auto parsed = Json::Parse("{\"a\":{},\"b\":[]}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE((*parsed)["a"].is_object());
  EXPECT_TRUE((*parsed)["a"].object_items().empty());
  EXPECT_TRUE((*parsed)["b"].is_array());
  EXPECT_TRUE((*parsed)["b"].array_items().empty());
}

TEST(JsonTest, DeepNesting) {
  Json j = Json::Str("leaf");
  for (int i = 0; i < 20; ++i) {
    Json outer = Json::Object();
    outer.Set("inner", std::move(j));
    j = std::move(outer);
  }
  auto parsed = Json::Parse(j.Dump());
  ASSERT_TRUE(parsed.ok());
  const Json* cur = &*parsed;
  for (int i = 0; i < 20; ++i) cur = &(*cur)["inner"];
  EXPECT_EQ(cur->string_value(), "leaf");
}

TEST(JsonTest, NestingIsBoundedAtTheLimit) {
  const int limit = Json::kMaxNestingDepth;
  const std::string at_limit =
      std::string(limit, '[') + std::string(limit, ']');
  EXPECT_TRUE(Json::Parse(at_limit).ok());
  const std::string past_limit =
      std::string(limit + 1, '[') + std::string(limit + 1, ']');
  auto parsed = Json::Parse(past_limit);
  EXPECT_TRUE(parsed.status().IsCorruption()) << parsed.status().ToString();
}

TEST(JsonTest, DeepArrayIsCorruptionNotACrash) {
  // Unbounded recursion would overflow the stack long before the end.
  auto parsed = Json::Parse(std::string(1000000, '['));
  EXPECT_TRUE(parsed.status().IsCorruption()) << parsed.status().ToString();
}

TEST(JsonTest, DeepObjectIsCorruptionNotACrash) {
  std::string text;
  for (int i = 0; i < 200000; ++i) text += "{\"a\":";
  auto parsed = Json::Parse(text);
  EXPECT_TRUE(parsed.status().IsCorruption()) << parsed.status().ToString();
}

}  // namespace
}  // namespace unilog
