/**
 * @file
 * parseInt: the strict integer parser every numeric command-line flag
 * goes through. Anything but a whole in-range base-10 integer is
 * rejected — trailing junk, overflow and values outside the target
 * type are errors, never a silently different number.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "base/stringutil.hh"

namespace {

using eq::parseInt;

TEST(ParseInt, AcceptsWholeIntegersInRange)
{
    int64_t v = 0;
    EXPECT_TRUE(parseInt("42", 0, 100, &v));
    EXPECT_EQ(v, 42);
    EXPECT_TRUE(parseInt("-7", -10, 10, &v));
    EXPECT_EQ(v, -7);
    EXPECT_TRUE(parseInt("9223372036854775807", 0, INT64_MAX, &v));
    EXPECT_EQ(v, INT64_MAX);
}

TEST(ParseInt, RejectsJunkAndOverflow)
{
    int64_t v = 5;
    for (const char *bad : {"", "abc", "3x", " 3", "3 ", "0x10", "1.5",
                            "99999999999999999999"})
        EXPECT_FALSE(parseInt(bad, INT64_MIN, INT64_MAX, &v)) << bad;
    EXPECT_EQ(v, 5) << "a rejected parse must not write the output";
}

TEST(ParseInt, RejectsOutOfRange)
{
    int64_t v = 0;
    EXPECT_FALSE(parseInt("0", 1, 10, &v));
    EXPECT_FALSE(parseInt("11", 1, 10, &v));
    EXPECT_TRUE(parseInt("10", 1, 10, &v));
}

TEST(ParseInt, TypedNeverNarrows)
{
    unsigned u = 7;
    EXPECT_FALSE(parseInt("4294967297", 1u, &u)); // 2^32 + 1
    EXPECT_FALSE(parseInt("0", 1u, &u));
    EXPECT_EQ(u, 7u);
    EXPECT_TRUE(parseInt("4294967295", 1u, &u));
    EXPECT_EQ(u, 4294967295u);

    uint16_t port = 0;
    EXPECT_FALSE(parseInt("65536", uint16_t(0), &port));
    EXPECT_TRUE(parseInt("65535", uint16_t(0), &port));
    EXPECT_EQ(port, 65535);

    size_t n = 0;
    EXPECT_FALSE(parseInt("99999999999999999999", size_t(1), &n));
    EXPECT_TRUE(parseInt("9223372036854775807", size_t(1), &n));
    EXPECT_EQ(n, size_t(INT64_MAX));
}

} // namespace
