// CSV writer for exporting measurement series (EvSel sweeps, Memhist bins,
// Phasenprüfer footprints) to external plotting tools.
#pragma once

#include <string>
#include <vector>

#include "util/types.hpp"

namespace npat::util {

class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> header);

  usize columns() const noexcept { return columns_; }

  void add_row(const std::vector<std::string>& cells);

  /// RFC-4180 output (quotes fields containing separators/quotes/newlines).
  std::string str() const { return buffer_; }

 private:
  void append_field(const std::string& field, bool last);

  usize columns_;
  std::string buffer_;
};

}  // namespace npat::util
