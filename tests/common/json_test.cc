/**
 * @file
 * Hardening tests for the JSON parser: malformed input must throw a
 * located ValidationError — never crash, hang, or invoke UB. The
 * ASan/UBSan CI job runs this same corpus with sanitizers enabled.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/json.hh"
#include "common/log.hh"

namespace sac {
namespace {

TEST(JsonHardening, MalformedCorpusThrowsInsteadOfCrashing)
{
    const std::vector<std::string> corpus = {
        "",
        " ",
        "{",
        "}",
        "[",
        "]",
        "{]",
        "[}",
        "{\"a\"}",
        "{\"a\":}",
        "{\"a\":1,}",
        "{\"a\" 1}",
        "{a:1}",
        "[1,]",
        "[1 2]",
        "\"unterminated",
        "\"bad escape \\q\"",
        "\"bad unicode \\u12g4\"",
        "\"truncated unicode \\u12",
        "01",
        "+1",
        "1.",
        "1e",
        "1e+",
        ".5",
        "-",
        "nul",
        "tru",
        "falsey",
        "nullx",
        "truex",
        "{\"a\":1}garbage",
        "[1]2",
        "{\"a\":\"\x01\"}", // raw control character in a string
        std::string("[1,\0,2]", 7), // embedded NUL
        "{\"\\u0000\":1}x",
    };
    for (const auto &text : corpus) {
        EXPECT_THROW(json::parse(text), ValidationError)
            << "input: " << text;
    }
}

TEST(JsonHardening, DeepNestingFailsCleanly)
{
    // One level under the cap parses; past the cap is rejected with a
    // clear message instead of a stack overflow.
    const auto nested = [](int depth) {
        return std::string(static_cast<std::size_t>(depth), '[') +
               std::string(static_cast<std::size_t>(depth), ']');
    };
    EXPECT_NO_THROW(json::parse(nested(json::maxDepth)));
    EXPECT_THROW(json::parse(nested(json::maxDepth + 1)),
                 ValidationError);
    EXPECT_THROW(json::parse(std::string(100000, '[')), ValidationError);

    // Same cap for objects.
    std::string obj;
    for (int i = 0; i < json::maxDepth + 1; ++i)
        obj += "{\"k\":";
    obj += "1";
    for (int i = 0; i < json::maxDepth + 1; ++i)
        obj += "}";
    EXPECT_THROW(json::parse(obj), ValidationError);

    try {
        json::parse(nested(json::maxDepth + 1));
        FAIL() << "expected ValidationError";
    } catch (const ValidationError &e) {
        EXPECT_NE(std::string(e.what()).find("nesting deeper"),
                  std::string::npos);
    }
}

TEST(JsonHardening, ErrorsCarryLineAndColumn)
{
    try {
        json::parse("{\"a\": 1,\n \"b\": oops}");
        FAIL() << "expected ValidationError";
    } catch (const ValidationError &e) {
        EXPECT_EQ(e.context(), "line 2, column 7");
        EXPECT_NE(std::string(e.what()).find("line 2, column 7"),
                  std::string::npos);
    }
}

TEST(JsonHardening, NumberConversionsRejectMismatches)
{
    EXPECT_EQ(json::parse("42").asU64(), 42u);
    EXPECT_THROW(json::parse("-42").asU64(), FatalError);
    EXPECT_THROW(json::parse("\"42\"").asU64(), FatalError);
    EXPECT_EQ(json::parse("-42").asDouble(), -42.0);
    EXPECT_THROW(json::parse("{}").at("missing"), FatalError);
}

TEST(JsonHardening, DoubleFormattingIsShortestRoundTrip)
{
    // Human-friendly values print exactly as written...
    EXPECT_EQ(json::number(2.3), "2.3");
    EXPECT_EQ(json::number(0.1), "0.1");
    EXPECT_EQ(json::number(1.5), "1.5");
    EXPECT_EQ(json::number(-1500.0), "-1500");
    EXPECT_EQ(json::number(0.0), "0");
    // ...and every double, friendly or not, must survive a
    // format -> parse round trip bit-exactly.
    const std::vector<double> hard = {
        2.2999999999999998, 1.0 / 3.0,      0.30000000000000004,
        1e-300,             1.7976931348623157e308,
        5.0000000000000009, 4.9406564584124654e-324,
    };
    for (const double v : hard) {
        const std::string text = json::number(v);
        EXPECT_EQ(json::parse(text).asDouble(), v) << text;
    }
}

TEST(JsonHardening, GoodDocumentsStillParse)
{
    const auto v = json::parse(
        "{\"s\":\"a\\u0041\\n\",\"n\":-1.5e3,\"b\":true,"
        "\"z\":null,\"arr\":[1,2,3],\"o\":{\"k\":\"v\"}}");
    EXPECT_EQ(v.at("s").asString(), "aA\n");
    EXPECT_EQ(v.at("n").asDouble(), -1500.0);
    EXPECT_TRUE(v.at("b").boolean);
    EXPECT_EQ(v.at("arr").array.size(), 3u);
    EXPECT_EQ(v.at("o").at("k").asString(), "v");
}

} // namespace
} // namespace sac
