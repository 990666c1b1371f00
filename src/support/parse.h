#ifndef MUGI_SUPPORT_PARSE_H_
#define MUGI_SUPPORT_PARSE_H_

/**
 * @file
 * Strict parsing of numeric command-line values: the whole string
 * must be one number of the requested type within [min, max], so a
 * typo is refused instead of read as 0 or as its leading digits.
 *
 * Thread-safety: a pure function of its arguments; freely usable
 * from any thread.
 */

#include <charconv>
#include <optional>
#include <string_view>

namespace mugi {
namespace support {

/**
 * The T that all of @p text spells (std::from_chars: decimal, no
 * leading space or '+', and no '-' for unsigned T), if it lies in
 * [@p min, @p max].  NaN lies in no range, and nor does infinity
 * when @p max is finite.
 */
template <typename T>
std::optional<T>
parse_number(std::string_view text, T min, T max)
{
    T value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end ||
        !(min <= value && value <= max)) {
        return std::nullopt;
    }
    return value;
}

}  // namespace support
}  // namespace mugi

#endif  // MUGI_SUPPORT_PARSE_H_
