/**
 * @file
 * support/parse.h: numeric command-line values parse only when the
 * whole string is a number in range, so a typo is refused instead of
 * read as 0 or as its leading digits.
 */

#include "support/parse.h"

#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

namespace mugi {
namespace support {
namespace {

TEST(Parse, WholeNumbersOnlyInRange)
{
    const auto port = [](const char* text) {
        return parse_number<std::uint16_t>(text, 0, 65535);
    };
    EXPECT_EQ(port("0"), 0u);
    EXPECT_EQ(port("8080"), 8080u);
    EXPECT_EQ(port("65535"), 65535u);
    for (const char* bad :
         {"65536", "", "-1", "+1", " 1", "1 ", "8080x", "0x10", "1e3",
          "1.0", "99999999999999999999999"}) {
        EXPECT_FALSE(port(bad).has_value()) << "\"" << bad << "\"";
    }
    EXPECT_FALSE(parse_number<std::size_t>("17", 0, 16).has_value());
}

TEST(Parse, FiniteSecondsInRange)
{
    const auto seconds = [](const char* text) {
        return parse_number(text, 0.0,
                            std::numeric_limits<double>::max());
    };
    EXPECT_EQ(seconds("0"), 0.0);
    EXPECT_EQ(seconds("2.5"), 2.5);
    EXPECT_EQ(seconds("1e3"), 1000.0);
    for (const char* bad : {"", "-1", "-0.5", "inf", "nan", "1e999",
                            "2.5s", " 1", "abc"}) {
        EXPECT_FALSE(seconds(bad).has_value()) << "\"" << bad << "\"";
    }
}

}  // namespace
}  // namespace support
}  // namespace mugi
