//===- tests/obs/JsonWriterTest.cpp - JSON writer tests ------------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the writer's two layouts, its string escaping, and its number
/// formats. The metrics golden (MetricsExportTest) pins the same writer
/// end to end.
///
//===----------------------------------------------------------------------===//

#include "obs/JsonWriter.h"

#include <cmath>
#include <gtest/gtest.h>
#include <string>
#include <string_view>

using namespace smokestack;

namespace {

using Layout = JsonWriter::Layout;

TEST(JsonWriterTest, EmptyContainers) {
  JsonWriter W;
  W.beginObject();
  W.key("a").beginArray().endArray();
  W.key("b").beginObject().endObject();
  W.key("c").beginArray(Layout::Inline).endArray();
  W.endObject();
  EXPECT_EQ(W.take(), "{\n  \"a\": [],\n  \"b\": {},\n  \"c\": []\n}\n");

  JsonWriter Top;
  Top.beginArray().endArray();
  EXPECT_EQ(Top.take(), "[]\n");
}

TEST(JsonWriterTest, BlockNestingIndentsTwoSpacesPerLevel) {
  JsonWriter W;
  W.beginObject();
  W.key("outer").beginObject();
  W.key("list").beginArray();
  W.integer(1).integer(2);
  W.endArray();
  W.endObject();
  W.key("last").boolean(false);
  W.endObject();
  EXPECT_EQ(W.take(), "{\n"
                      "  \"outer\": {\n"
                      "    \"list\": [\n"
                      "      1,\n"
                      "      2\n"
                      "    ]\n"
                      "  },\n"
                      "  \"last\": false\n"
                      "}\n");
}

TEST(JsonWriterTest, InlineContainersStayOnOneLine) {
  JsonWriter W;
  W.beginObject();
  W.key("rows").beginArray();
  W.beginObject(Layout::Inline).key("x").integer(1).endObject();
  W.beginObject(Layout::Inline)
      .key("x")
      .integer(2)
      .key("deep")
      .beginObject() // inside an inline container: inline too
      .key("y")
      .beginArray()
      .integer(3)
      .integer(4)
      .endArray()
      .endObject()
      .endObject();
  W.endArray();
  W.endObject();
  EXPECT_EQ(W.take(), "{\n"
                      "  \"rows\": [\n"
                      "    {\"x\": 1},\n"
                      "    {\"x\": 2, \"deep\": {\"y\": [3, 4]}}\n"
                      "  ]\n"
                      "}\n");
}

/// \p S written as a lone string value, without the trailing newline.
std::string written(std::string_view S) {
  JsonWriter W;
  W.beginArray(Layout::Inline).str(S).endArray();
  std::string Doc = W.take();
  return Doc.substr(1, Doc.size() - 3); // strip "[" and "]\n"
}

TEST(JsonWriterTest, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(written("a\"b\\c"), "\"a\\\"b\\\\c\"");
  JsonWriter W;
  W.beginObject(Layout::Inline).key("k\"ey").str("C:\\dir").endObject();
  EXPECT_EQ(W.take(), "{\"k\\\"ey\": \"C:\\\\dir\"}\n");
}

TEST(JsonWriterTest, EscapesControlCharactersAsUnicode) {
  EXPECT_EQ(written(std::string("\n\t\r", 3)),
            "\"\\u000a\\u0009\\u000d\"");
  EXPECT_EQ(written(std::string("\x00\x1f", 2)), "\"\\u0000\\u001f\"");
  // Space and everything above it, including UTF-8 bytes, pass through.
  EXPECT_EQ(written(" ~\x7f\xc3\xa9"), "\" ~\x7f\xc3\xa9\"");
  // Keys take the same escaping.
  JsonWriter W;
  W.beginObject(Layout::Inline).key("a\nb").integer(1).endObject();
  EXPECT_EQ(W.take(), "{\"a\\u000ab\": 1}\n");
}

TEST(JsonWriterTest, NumberFormats) {
  JsonWriter W;
  W.beginArray(Layout::Inline);
  W.integer(0).integer(UINT64_MAX);
  W.fixed(0.08, 3).fixed(97713.84, 1).fixed(2.5, 0).fixed(1.0 / 3.0, 6);
  W.fixed(NAN, 2).fixed(INFINITY, 2);
  W.boolean(true);
  W.endArray();
  EXPECT_EQ(W.take(), "[0, 18446744073709551615, 0.080, 97713.8, 2, "
                      "0.333333, null, null, true]\n");
}

TEST(JsonWriterTest, HexDigests) {
  JsonWriter W;
  W.beginArray(Layout::Inline);
  W.hex(0xedbb4c9ce70f8fc2ULL).hex(0x1f).hex(0xab, /*Prefix=*/false);
  W.endArray();
  EXPECT_EQ(W.take(), "[\"0xedbb4c9ce70f8fc2\", \"0x000000000000001f\", "
                      "\"00000000000000ab\"]\n");
}

TEST(JsonWriterTest, TakeResetsTheWriter) {
  JsonWriter W;
  W.beginObject().endObject();
  EXPECT_EQ(W.take(), "{}\n");
  W.beginArray().integer(7).endArray();
  EXPECT_EQ(W.take(), "[\n  7\n]\n");
}

} // namespace
