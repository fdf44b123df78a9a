#include "util/csv.hpp"

#include "util/check.hpp"

namespace npat::util {

CsvWriter::CsvWriter(std::vector<std::string> header) : columns_(header.size()) {
  NPAT_CHECK_MSG(columns_ > 0, "CSV needs at least one column");
  for (usize i = 0; i < header.size(); ++i) append_field(header[i], i + 1 == header.size());
}

void CsvWriter::append_field(const std::string& field, bool last) {
  const bool needs_quotes = field.find_first_of(",\"\n\r") != std::string::npos;
  if (needs_quotes) {
    buffer_ += '"';
    for (char c : field) {
      if (c == '"') buffer_ += '"';
      buffer_ += c;
    }
    buffer_ += '"';
  } else {
    buffer_ += field;
  }
  buffer_ += last ? '\n' : ',';
}

void CsvWriter::add_row(const std::vector<std::string>& cells) {
  NPAT_CHECK_MSG(cells.size() == columns_, "CSV row width mismatch");
  for (usize i = 0; i < cells.size(); ++i) append_field(cells[i], i + 1 == cells.size());
}

}  // namespace npat::util
