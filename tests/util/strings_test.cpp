#include "util/strings.hpp"

#include <gtest/gtest.h>

namespace npat::util {
namespace {

TEST(Strings, FormatBasics) {
  EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(format("%.2f", 1.005), "1.00");
  EXPECT_EQ(format("empty"), "empty");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitEmptyString) {
  const auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim("\t\n"), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
}

TEST(Strings, WithThousands) {
  EXPECT_EQ(with_thousands(u64{0}), "0");
  EXPECT_EQ(with_thousands(u64{999}), "999");
  EXPECT_EQ(with_thousands(u64{1000}), "1,000");
  EXPECT_EQ(with_thousands(u64{1234567}), "1,234,567");
}

TEST(Strings, SiScaled) {
  EXPECT_EQ(si_scaled(950.0), "950");
  EXPECT_EQ(si_scaled(1500.0), "1.5 k");
  EXPECT_EQ(si_scaled(3.2e6), "3.2 M");
  EXPECT_EQ(si_scaled(2e9), "2 G");
}

TEST(Strings, PercentDelta) {
  EXPECT_EQ(percent_delta(0.123), "+12.3 %");
  EXPECT_EQ(percent_delta(-0.5), "-50.0 %");
}

TEST(Strings, HumanBytes) {
  EXPECT_EQ(human_bytes(512), "512 B");
  EXPECT_EQ(human_bytes(1536), "1.5 KiB");
  EXPECT_EQ(human_bytes(32ULL << 30), "32 GiB");
}

TEST(Strings, CompactDouble) {
  EXPECT_EQ(compact_double(1.5000, 4), "1.5");
  EXPECT_EQ(compact_double(2.0, 4), "2");
  EXPECT_EQ(compact_double(0.125, 2), "0.12");  // round-half-even
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_center("ab", 5), " ab  ");
  EXPECT_EQ(pad_left("abcdef", 4), "abcdef");  // never truncates
}

TEST(Strings, DisplayWidthCountsCodepoints) {
  EXPECT_EQ(display_width("abc"), 3u);
  EXPECT_EQ(display_width("Δx²"), 3u);  // multibyte UTF-8 counts once
}

}  // namespace
}  // namespace npat::util
