#include <gtest/gtest.h>

#include <algorithm>

#include "perf/load_latency.hpp"

#include "sim/presets.hpp"
#include "util/check.hpp"
#include "workloads/mlc_remote.hpp"
#include "workloads/sift_like.hpp"

namespace npat::workloads {
namespace {

sim::MachineConfig small_l3_config() {
  auto config = sim::hpe_dl580_gen9(2);
  config.l3.size_bytes = MiB(2);
  config.memory.jitter_fraction = 0.0;
  return config;
}

TEST(SiftLike, NumaOptimizedKeepsTilesLocal) {
  sim::Machine machine(small_l3_config());
  trace::Run run(machine, {.affinity = os::AffinityPolicy::kScatter});
  SiftLikeParams params;
  params.threads = 4;
  params.tile_bytes = 256 * 1024;
  params.octaves = 1;
  run.run(sift_like_program(params));

  // One tile per node under scatter placement, no remote loads.
  const auto pages = run.space().pages_per_node();
  for (u32 node = 0; node < 4; ++node) {
    EXPECT_GE(pages[node], params.tile_bytes / kPageBytes) << "node " << node;
  }
  EXPECT_EQ(machine.aggregate_counters()[sim::Event::kMemLoadRemoteDram], 0u);
}

TEST(SiftLike, NaiveVariantCrossesTheInterconnect) {
  sim::Machine machine(small_l3_config());
  trace::Run run(machine, {.affinity = os::AffinityPolicy::kScatter});
  SiftLikeParams params;
  params.threads = 4;
  params.tile_bytes = 256 * 1024;
  params.octaves = 1;
  params.numa_optimized = false;  // everything bound to node 0
  run.run(sift_like_program(params));

  // All tiles on node 0; other nodes hold at most a few barrier lines.
  const auto pages = run.space().pages_per_node();
  EXPECT_LE(pages[1] + pages[2] + pages[3], 8u);
  EXPECT_GT(machine.uncore_counters(0)[sim::Event::kUncQpiTxFlits] +
                machine.uncore_counters(1)[sim::Event::kUncQpiTxFlits] +
                machine.uncore_counters(2)[sim::Event::kUncQpiTxFlits] +
                machine.uncore_counters(3)[sim::Event::kUncQpiTxFlits],
            0u);
}

TEST(SiftLike, ConvolutionIsCacheFriendly) {
  sim::Machine machine(small_l3_config());
  trace::Run run(machine);
  SiftLikeParams params;
  params.threads = 1;
  params.tile_bytes = 512 * 1024;
  params.octaves = 2;
  run.run(sift_like_program(params));
  const auto totals = machine.aggregate_counters();
  const double hit_rate = static_cast<double>(totals[sim::Event::kL1dHit]) /
                          static_cast<double>(totals[sim::Event::kL1dAccess]);
  EXPECT_GT(hit_rate, 0.6);  // window taps revisit nearby lines
}

TEST(MlcRemote, LocalVsRemoteLatency) {
  const auto config = small_l3_config();

  auto median_latency = [&](sim::NodeId target) {
    sim::Machine machine(config);
    trace::Run run(machine);
    perf::LoadLatencySession session(machine);
    MlcParams params;
    params.buffer_bytes = MiB(8);
    params.target_node = target;
    params.chase_steps = 20000;
    params.think_instructions = 24;
    session.arm(1, 8);
    run.run(mlc_program(params));
    const auto reading = session.disarm();
    std::vector<Cycles> latencies;
    for (const auto& s : reading.samples) {
      if (s.source == sim::DataSource::kLocalDram ||
          s.source == sim::DataSource::kRemoteDram) {
        latencies.push_back(s.latency);
      }
    }
    EXPECT_GT(latencies.size(), 100u);
    std::sort(latencies.begin(), latencies.end());
    return latencies[latencies.size() / 2];
  };

  const Cycles local = median_latency(0);
  const Cycles remote = median_latency(1);
  // Remote must cost roughly one hop more (120 cycles in the model).
  EXPECT_GT(remote, local + 60);
  EXPECT_LT(remote, local + 250);
}

TEST(MlcRemote, DefeatsPrefetcher) {
  sim::Machine machine(small_l3_config());
  trace::Run run(machine);
  MlcParams params;
  params.buffer_bytes = MiB(8);
  params.chase_steps = 20000;
  run.run(mlc_program(params));
  const auto totals = machine.aggregate_counters();
  // The sequential *init* phase prefetches (~2 per line); the chase itself
  // must not add more than noise on top of that bound.
  const u64 init_lines = params.buffer_bytes / kCacheLineBytes;
  EXPECT_LT(totals[sim::Event::kL2PrefetchRequests] +
                totals[sim::Event::kL3PrefetchRequests],
            2 * init_lines + 2000u);
  // The chase loads overwhelmingly reach DRAM (nothing prefetched them).
  EXPECT_GT(totals[sim::Event::kMemLoadLocalDram], params.chase_steps / 2);
}

TEST(MlcRemote, FactorySelectsFarthestNode) {
  const auto topo_cube = sim::make_twisted_cube(1);
  const auto params = mlc_remote(topo_cube);
  EXPECT_EQ(topo_cube.hops(0, params.target_node), 2u);

  const auto topo_full = sim::make_fully_connected(4, 1);
  const auto full_params = mlc_remote(topo_full);
  EXPECT_EQ(topo_full.hops(0, full_params.target_node), 1u);
}

TEST(MlcRemote, InvalidParamsRejected) {
  MlcParams params;
  params.chase_steps = 0;
  EXPECT_THROW(mlc_program(params), CheckError);
}

}  // namespace
}  // namespace npat::workloads
