#include "util/strings.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace npat::util {

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<usize>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  usize start = 0;
  for (usize i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string trim(std::string_view text) {
  usize begin = 0;
  usize end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
  return std::string(text.substr(begin, end - begin));
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::string with_thousands(u64 value) {
  std::string digits = std::to_string(value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  const usize first = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (usize i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i + 3 - first) % 3 == 0) out += ',';
    out += digits[i];
  }
  return out;
}

std::string si_scaled(double value, int precision) {
  const double mag = std::fabs(value);
  struct Scale {
    double factor;
    const char* suffix;
  };
  static constexpr Scale kScales[] = {
      {1e12, " T"}, {1e9, " G"}, {1e6, " M"}, {1e3, " k"}};
  for (const auto& s : kScales) {
    if (mag >= s.factor) {
      return compact_double(value / s.factor, precision) + s.suffix;
    }
  }
  return compact_double(value, precision);
}

std::string percent_delta(double ratio, int precision) {
  const double pct = ratio * 100.0;
  return format("%+.*f %%", precision, pct);
}

std::string human_bytes(u64 bytes) {
  struct Scale {
    u64 factor;
    const char* suffix;
  };
  static constexpr Scale kScales[] = {
      {1ULL << 40, "TiB"}, {1ULL << 30, "GiB"}, {1ULL << 20, "MiB"}, {1ULL << 10, "KiB"}};
  for (const auto& s : kScales) {
    if (bytes >= s.factor) {
      return compact_double(static_cast<double>(bytes) / static_cast<double>(s.factor), 1) + " " +
             s.suffix;
    }
  }
  return std::to_string(bytes) + " B";
}

std::string compact_double(double value, int max_precision) {
  std::string out = format("%.*f", max_precision, value);
  if (out.find('.') != std::string::npos) {
    while (!out.empty() && out.back() == '0') out.pop_back();
    if (!out.empty() && out.back() == '.') out.pop_back();
  }
  return out;
}

usize display_width(std::string_view text) {
  usize width = 0;
  for (char c : text) {
    // Count UTF-8 lead bytes only (continuation bytes are 10xxxxxx).
    if ((static_cast<unsigned char>(c) & 0xC0) != 0x80) ++width;
  }
  return width;
}

std::string pad_left(std::string_view text, usize width) {
  const usize w = display_width(text);
  if (w >= width) return std::string(text);
  return std::string(width - w, ' ') + std::string(text);
}

std::string pad_right(std::string_view text, usize width) {
  const usize w = display_width(text);
  if (w >= width) return std::string(text);
  return std::string(text) + std::string(width - w, ' ');
}

std::string pad_center(std::string_view text, usize width) {
  const usize w = display_width(text);
  if (w >= width) return std::string(text);
  const usize left = (width - w) / 2;
  const usize right = width - w - left;
  return std::string(left, ' ') + std::string(text) + std::string(right, ' ');
}

}  // namespace npat::util
