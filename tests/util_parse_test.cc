/** @file Tests for the strict decimal parser. */

#include "util/parse.h"

#include <gtest/gtest.h>

namespace fdip
{
namespace
{

TEST(ParseDecimal, AcceptsPlainDigits)
{
    EXPECT_EQ(parseDecimal("0"), 0u);
    EXPECT_EQ(parseDecimal("42"), 42u);
    EXPECT_EQ(parseDecimal("007"), 7u);
    EXPECT_EQ(parseDecimal("18446744073709551615"), UINT64_MAX);
}

TEST(ParseDecimal, RejectsEverythingElse)
{
    for (const char *bad : {"", "abc", "-1", "+1", " 1", "1 ", "1.5",
                            "2x", "0x10", "1e3", "18446744073709551616"})
        EXPECT_FALSE(parseDecimal(bad).has_value()) << "'" << bad << "'";
}

} // namespace
} // namespace fdip
