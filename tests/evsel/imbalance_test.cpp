#include "evsel/imbalance.hpp"

#include <gtest/gtest.h>

#include "sim/presets.hpp"
#include "trace/runner.hpp"
#include "util/check.hpp"
#include "workloads/kernels.hpp"

namespace npat::evsel {
namespace {

TEST(Imbalance, BalancedSyntheticReport) {
  ImbalanceReport report;
  for (u32 n = 0; n < 4; ++n) {
    NodeLoad load;
    load.node = n;
    load.dram_reads = 1000;
    load.dram_writes = 500;
    load.llc_misses = 100;
    report.nodes.push_back(load);
  }
  EXPECT_DOUBLE_EQ(report.imbalance(&NodeLoad::dram_reads), 1.0);
  EXPECT_FALSE(report.imbalanced());
}

TEST(Imbalance, SkewedSyntheticReport) {
  ImbalanceReport report;
  for (u32 n = 0; n < 4; ++n) {
    NodeLoad load;
    load.node = n;
    load.dram_reads = n == 2 ? 4000 : 0;
    report.nodes.push_back(load);
  }
  EXPECT_DOUBLE_EQ(report.imbalance(&NodeLoad::dram_reads), 4.0);
  EXPECT_TRUE(report.imbalanced());
}

TEST(Imbalance, ZeroTrafficIsBalanced) {
  ImbalanceReport report;
  report.nodes.resize(3);
  EXPECT_DOUBLE_EQ(report.imbalance(&NodeLoad::dram_reads), 1.0);
  EXPECT_FALSE(report.imbalanced());
}

TEST(Imbalance, EmptyReportThrows) {
  ImbalanceReport report;
  EXPECT_THROW(report.imbalance(&NodeLoad::dram_reads), CheckError);
}

TEST(Imbalance, DetectsMasterTouchMistakeEndToEnd) {
  // perf's promise (§II-F): "detecting imbalanced workloads among NUMA
  // nodes". First-touch STREAM is balanced; master-touch hammers node 0.
  auto config = sim::hpe_dl580_gen9(1);
  config.l3.size_bytes = KiB(512);

  auto run = [&](os::PagePolicy placement) {
    sim::Machine machine(config);
    trace::Run trial(machine, {.affinity = os::AffinityPolicy::kScatter});
    workloads::StreamParams params;
    params.threads = 4;
    params.elements_per_thread = 1 << 14;
    params.placement = placement;
    trial.run(workloads::stream_triad_program(params));
    return node_imbalance(machine);
  };

  const auto balanced = run(os::PagePolicy::kFirstTouch);
  const auto skewed = run(os::PagePolicy::kBind);
  EXPECT_FALSE(balanced.imbalanced(2.0));
  EXPECT_TRUE(skewed.imbalanced(2.0));
  // Bound to node 0, so node 0 serves the DRAM traffic.
  for (const NodeLoad& load : skewed.nodes) {
    if (load.node != 0) {
      EXPECT_GT(skewed.nodes[0].dram_reads, load.dram_reads);
    }
  }
  EXPECT_GT(skewed.imbalance(&NodeLoad::dram_reads),
            balanced.imbalance(&NodeLoad::dram_reads));
}

TEST(Imbalance, RenderMentionsVerdict) {
  ImbalanceReport report;
  for (u32 n = 0; n < 2; ++n) {
    NodeLoad load;
    load.node = n;
    load.dram_reads = n == 0 ? 9000 : 10;
    report.nodes.push_back(load);
  }
  const std::string out = report.render();
  EXPECT_NE(out.find("IMBALANCED"), std::string::npos);
  EXPECT_NE(out.find("per-node load"), std::string::npos);
}

}  // namespace
}  // namespace npat::evsel
