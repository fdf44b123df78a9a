#include "evsel/report.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "evsel/model_catalog.hpp"

namespace npat::evsel {
namespace {

Comparison sample_comparison() {
  Measurement a("run-a");
  Measurement b("run-b");
  for (double rep = 0; rep < 4; ++rep) {
    a.add_values({{sim::Event::kL1dMiss, 100 + rep}});
    b.add_values({{sim::Event::kL1dMiss, 1200 + rep}});  // big increase
    a.add_values({{sim::Event::kL2PrefetchRequests, 1000 + rep}});
    b.add_values({{sim::Event::kL2PrefetchRequests, 100 + rep}});  // big decrease
    a.add_values({{sim::Event::kL3Miss, 0}});
    b.add_values({{sim::Event::kL3Miss, 0}});  // zero row
    a.add_values({{sim::Event::kCycles, 5000 + rep * 3}});
    b.add_values({{sim::Event::kCycles, 5001 + rep * 3}});  // insignificant
  }
  return compare(a, b);
}

TEST(Report, ComparisonShowsSignificantRowsWithIcons) {
  const std::string out = render_comparison(sample_comparison());
  EXPECT_NE(out.find("l1d.replacement"), std::string::npos);
  EXPECT_NE(out.find("▲"), std::string::npos);
  EXPECT_NE(out.find("▼"), std::string::npos);
  EXPECT_NE(out.find(">99.9 %"), std::string::npos);
  // Insignificant and zero rows are hidden by default.
  EXPECT_EQ(out.find("cpu.cycles"), std::string::npos);
}

TEST(Report, IncludeAllShowsZeroAndInsignificantRows) {
  ReportOptions options;
  options.include_all_events = true;
  const std::string out = render_comparison(sample_comparison(), options);
  EXPECT_NE(out.find("cpu.cycles"), std::string::npos);
  EXPECT_NE(out.find("llc.misses"), std::string::npos);
}

TEST(Report, MaxRowsLimits) {
  ReportOptions options;
  options.include_all_events = true;
  options.max_rows = 1;
  options.show_descriptions = false;
  const std::string out = render_comparison(sample_comparison(), options);
  usize rows = 0;
  usize pos = 0;
  while ((pos = out.find("\n│", pos)) != std::string::npos) {
    ++rows;
    pos += 3;
  }
  EXPECT_EQ(rows, 2u);  // header + single data row
}

TEST(Report, EmptyComparisonRendersPlaceholder) {
  Comparison empty;
  empty.label_a = "a";
  empty.label_b = "b";
  const std::string out = render_comparison(empty);
  EXPECT_NE(out.find("no significant differences"), std::string::npos);
}

TEST(Report, CorrelationsTableShowsFitAndR) {
  Measurement m1("p=1");
  m1.set_parameter("p", 1);
  Measurement m2("p=2");
  m2.set_parameter("p", 2);
  Measurement m3("p=4");
  m3.set_parameter("p", 4);
  for (auto* m : {&m1, &m2, &m3}) {
    const double p = m->parameter("p");
    m->add_values({{sim::Event::kAtomicOps, 3 * p}});
    m->add_values({{sim::Event::kAtomicOps, 3 * p + 0.1}});
  }
  const auto result = correlate("p", {m1, m2, m3});
  const std::string out = render_correlations(result, 0.5);
  EXPECT_NE(out.find("mem_uops.lock_loads"), std::string::npos);
  EXPECT_NE(out.find("linear"), std::string::npos);
  EXPECT_NE(out.find("y = "), std::string::npos);
  EXPECT_NE(out.find("+0.9"), std::string::npos);
}

TEST(Report, MeasurementListingShowsStats) {
  Measurement m("listing");
  m.add_values({{sim::Event::kCycles, 100}});
  m.add_values({{sim::Event::kCycles, 110}});
  const std::string out = render_measurement(m);
  EXPECT_NE(out.find("cpu.cycles"), std::string::npos);
  EXPECT_NE(out.find("105"), std::string::npos);
}

TEST(ModelCatalog, TimelineMentionsAllEras) {
  const std::string out = render_model_timeline();
  EXPECT_NE(out.find("Shared bus"), std::string::npos);
  EXPECT_NE(out.find("Cluster / message passing"), std::string::npos);
  EXPECT_NE(out.find("Hierarchical memory"), std::string::npos);
  EXPECT_NE(out.find("NUMA models"), std::string::npos);
  EXPECT_NE(out.find("PRAM"), std::string::npos);
  EXPECT_NE(out.find("LogP"), std::string::npos);
  EXPECT_NE(out.find("kappaNUMA"), std::string::npos);
}

TEST(ModelCatalog, EntriesWellFormed) {
  // Every rendered entry line reads "  <year>  <name> <note>".
  std::istringstream lines(render_model_timeline());
  usize entries = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("  ", 0) != 0) continue;
    const int year = std::stoi(line.substr(2, 4));
    EXPECT_GE(year, 1975) << line;
    EXPECT_LE(year, 2017) << line;
    EXPECT_NE(line[8], ' ') << line;  // a non-empty name
    ++entries;
  }
  EXPECT_EQ(entries, 34u);
}

}  // namespace
}  // namespace npat::evsel
