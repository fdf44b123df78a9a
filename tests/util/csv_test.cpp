#include "util/csv.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace npat::util {
namespace {

TEST(Csv, HeaderAndRows) {
  CsvWriter csv({"a", "b"});
  csv.add_row({std::string("1"), std::string("2")});
  EXPECT_EQ(csv.str(), "a,b\n1,2\n");
}

TEST(Csv, QuotesSpecialCharacters) {
  CsvWriter csv({"text"});
  csv.add_row({std::string("has,comma")});
  csv.add_row({std::string("has\"quote")});
  csv.add_row({std::string("has\nnewline")});
  EXPECT_EQ(csv.str(), "text\n\"has,comma\"\n\"has\"\"quote\"\n\"has\nnewline\"\n");
}

TEST(Csv, WidthMismatchThrows) {
  CsvWriter csv({"a", "b"});
  EXPECT_THROW(csv.add_row({std::string("only")}), CheckError);
}

TEST(Csv, EmptyHeaderThrows) {
  EXPECT_THROW(CsvWriter csv({}), CheckError);
}

}  // namespace
}  // namespace npat::util
