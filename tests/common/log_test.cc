/** @file Unit tests for the logging/error facility. */

#include <gtest/gtest.h>

#include <string>

#include "common/log.hh"

namespace sac {
namespace {

TEST(Log, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("boom ", 42), PanicError);
}

TEST(Log, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config: ", "x"), FatalError);
}

TEST(Log, MessagesConcatenateArguments)
{
    try {
        panic("a", 1, "b", 2.5);
        FAIL() << "panic returned";
    } catch (const PanicError &e) {
        EXPECT_STREQ(e.what(), "a1b2.5");
    }
}

TEST(Log, FatalIsNotAPanic)
{
    try {
        fatal("user error");
        FAIL() << "fatal returned";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "user error");
    } catch (...) {
        FAIL() << "wrong exception type";
    }
}

TEST(Log, AssertPassesOnTrue)
{
    EXPECT_NO_THROW(SAC_ASSERT(1 + 1 == 2, "math works"));
}

TEST(Log, AssertPanicsOnFalse)
{
    EXPECT_THROW(SAC_ASSERT(false, "value was ", 7), PanicError);
}

TEST(Log, AssertMessageNamesCondition)
{
    try {
        SAC_ASSERT(2 < 1, "ordering");
        FAIL() << "assert passed";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("2 < 1"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("ordering"), std::string::npos);
    }
}

TEST(Log, ErrorsOnlyThrowAndLeaveStderrToTheCatcher)
{
    // Every catcher reports the message it catches, so printing it
    // here as well would report each error twice.
    testing::internal::CaptureStderr();
    EXPECT_THROW(panic("bug"), PanicError);
    EXPECT_THROW(fatal("bad config"), FatalError);
    EXPECT_THROW(invalid("GpuConfig.x", "bad value"), ValidationError);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

} // namespace
} // namespace sac
