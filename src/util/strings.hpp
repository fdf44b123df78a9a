// String formatting helpers used by the report/table renderers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace npat::util {

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

std::vector<std::string> split(std::string_view text, char sep);
std::string trim(std::string_view text);
bool starts_with(std::string_view text, std::string_view prefix);

/// 1234567 -> "1,234,567".
std::string with_thousands(u64 value);

/// 1234567 -> "1.23 M"; 950 -> "950".
std::string si_scaled(double value, int precision = 2);

/// 0.123 -> "+12.3 %" (signed percentage delta).
std::string percent_delta(double ratio, int precision = 1);

/// 1536 bytes -> "1.5 KiB".
std::string human_bytes(u64 bytes);

/// Fixed-point double, trimming trailing zeros: 1.500 -> "1.5".
std::string compact_double(double value, int max_precision = 4);

/// Left/right/center padding to a given display width.
std::string pad_left(std::string_view text, usize width);
std::string pad_right(std::string_view text, usize width);
std::string pad_center(std::string_view text, usize width);

/// Display width of a UTF-8 string, counting code points (good enough for
/// the box-drawing and Latin-1 glyphs we emit).
usize display_width(std::string_view text);

}  // namespace npat::util
