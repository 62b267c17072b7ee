// Strict number parsing for everything read from outside the program:
// trace CSV cells and command-line flag values go through the same rule.
#pragma once

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace mp5 {

/// Parse `text` whole into `out`. False on empty text, trailing bytes,
/// overflow of T, a leading '+', a '-' on an unsigned T, and a NaN or
/// infinity for a floating-point T. `out` is unspecified on failure.
template <typename T>
bool parse_number(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) return std::isfinite(out);
  return true;
}

} // namespace mp5
