#include "evsel/imbalance.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace npat::evsel {

double ImbalanceReport::imbalance(u64 NodeLoad::* metric) const {
  NPAT_CHECK_MSG(!nodes.empty(), "empty imbalance report");
  u64 max_value = 0;
  u64 total = 0;
  for (const auto& node : nodes) {
    max_value = std::max(max_value, node.*metric);
    total += node.*metric;
  }
  if (total == 0) return 1.0;
  const double mean = static_cast<double>(total) / static_cast<double>(nodes.size());
  return static_cast<double>(max_value) / mean;
}

bool ImbalanceReport::imbalanced(double factor) const {
  return imbalance(&NodeLoad::dram_reads) > factor ||
         imbalance(&NodeLoad::dram_writes) > factor ||
         imbalance(&NodeLoad::llc_misses) > factor;
}

std::string ImbalanceReport::render() const {
  util::Table table({"node", "DRAM reads", "DRAM writes", "LLC misses", "QPI flits",
                     "snoops", "energy (µJ)"});
  table.set_title("per-node load (uncore indicators)");
  for (usize c = 1; c < 7; ++c) table.set_align(c, util::Align::kRight);
  for (const auto& node : nodes) {
    table.add_row({std::to_string(node.node),
                   util::si_scaled(static_cast<double>(node.dram_reads)),
                   util::si_scaled(static_cast<double>(node.dram_writes)),
                   util::si_scaled(static_cast<double>(node.llc_misses)),
                   util::si_scaled(static_cast<double>(node.qpi_tx_flits)),
                   util::si_scaled(static_cast<double>(node.snoops_received)),
                   util::si_scaled(static_cast<double>(node.energy_uj))});
  }
  std::string out = table.render();
  out += util::format(
      "imbalance factors (max/mean): reads %.2f, writes %.2f, LLC misses %.2f%s\n",
      imbalance(&NodeLoad::dram_reads), imbalance(&NodeLoad::dram_writes),
      imbalance(&NodeLoad::llc_misses),
      imbalanced() ? "  ← IMBALANCED" : "  (balanced)");
  return out;
}

ImbalanceReport node_imbalance(const sim::Machine& machine) {
  ImbalanceReport report;
  for (sim::NodeId node = 0; node < machine.nodes(); ++node) {
    const auto uncore = machine.uncore_counters(node);
    NodeLoad load;
    load.node = node;
    load.dram_reads = uncore[sim::Event::kUncImcReads];
    load.dram_writes = uncore[sim::Event::kUncImcWrites];
    load.llc_misses = uncore[sim::Event::kUncLlcMisses];
    load.qpi_tx_flits = uncore[sim::Event::kUncQpiTxFlits];
    load.snoops_received = uncore[sim::Event::kUncSnoopsReceived];
    load.energy_uj = uncore[sim::Event::kUncEnergyMicroJoules];
    report.nodes.push_back(load);
  }
  return report;
}

}  // namespace npat::evsel
