/**
 * @file
 * Strict number parsing for command-line flags and environment
 * variables: a value is either exactly a number or rejected.
 */

#ifndef FDIP_UTIL_PARSE_H_
#define FDIP_UTIL_PARSE_H_

#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>

namespace fdip
{

/**
 * @p s as an unsigned decimal: one or more digits and nothing else (no
 * sign, whitespace, radix prefix or suffix). Empty for any other text
 * and for values that do not fit in 64 bits.
 */
[[nodiscard]] inline std::optional<std::uint64_t>
parseDecimal(std::string_view s) noexcept
{
    std::uint64_t v = 0;
    const char *end = s.data() + s.size();
    const auto [stop, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc{} || stop != end)
        return std::nullopt;
    return v;
}

} // namespace fdip

#endif // FDIP_UTIL_PARSE_H_
