// Parameterized property suites: invariants that must hold across machine
// presets, workloads and random configurations — the cross-cutting checks
// that individual unit tests cannot provide.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <ostream>
#include <string>

#include "os/procfs.hpp"
#include "sim/presets.hpp"
#include "stats/segmented.hpp"
#include "stats/multiple_comparisons.hpp"
#include "stats/ttest.hpp"
#include "trace/runner.hpp"
#include "util/random.hpp"
#include "workloads/cache_scan.hpp"
#include "workloads/kernels.hpp"
#include "workloads/mlc_remote.hpp"
#include "workloads/parallel_sort.hpp"
#include "workloads/rampup_app.hpp"
#include "workloads/sift_like.hpp"

namespace npat {
namespace {

// --- machine counter invariants across presets x workloads -----------------

struct WorkloadCase {
  const char* name;
  trace::Program (*make)();
};

// Print a case by name: gtest's default byte dump shows the pointers, which
// differ between runs and would leak into the discovered test names.
void PrintTo(const WorkloadCase& workload, std::ostream* os) { *os << workload.name; }

trace::Program make_scan() {
  workloads::CacheScanParams params;
  params.size = 96;
  return workloads::cache_scan_program(params);
}
trace::Program make_strided() {
  workloads::CacheScanParams params;
  params.size = 96;
  params.variant = workloads::ScanVariant::kRowStride;
  return workloads::cache_scan_program(params);
}
trace::Program make_sort() {
  workloads::ParallelSortParams params;
  params.elements = 1 << 12;
  params.threads = 4;
  return workloads::parallel_sort_program(params);
}
trace::Program make_sift() {
  workloads::SiftLikeParams params;
  params.threads = 2;
  params.tile_bytes = 128 * 1024;
  params.octaves = 1;
  return workloads::sift_like_program(params);
}
trace::Program make_mlc() {
  workloads::MlcParams params;
  params.buffer_bytes = MiB(2);
  params.chase_steps = 10000;
  return workloads::mlc_program(params);
}
trace::Program make_rampup() {
  workloads::RampupParams params;
  params.regions = 8;
  params.compute_rounds = 4;
  return workloads::rampup_app_program(params);
}
trace::Program make_gups() {
  workloads::GupsParams params;
  params.threads = 2;
  params.table_bytes = MiB(1);
  params.updates_per_thread = 5000;
  return workloads::gups_program(params);
}

constexpr WorkloadCase kWorkloads[] = {
    {"scan", make_scan}, {"strided", make_strided}, {"sort", make_sort},
    {"sift", make_sift}, {"mlc", make_mlc},         {"rampup", make_rampup},
    {"gups", make_gups},
};

class CounterInvariants
    : public ::testing::TestWithParam<std::tuple<std::string, WorkloadCase>> {};

TEST_P(CounterInvariants, HoldAfterAnyRun) {
  const auto& [preset, workload] = GetParam();
  sim::Machine machine(sim::preset_by_name(preset));
  trace::Run run(machine);
  run.run(workload.make());

  const auto t = machine.aggregate_counters();
  using E = sim::Event;

  // Cache-level accounting is exact.
  EXPECT_EQ(t[E::kL1dAccess], t[E::kL1dHit] + t[E::kL1dMiss]) << workload.name;
  EXPECT_EQ(t[E::kL2Access], t[E::kL2Hit] + t[E::kL2Miss]) << workload.name;
  EXPECT_EQ(t[E::kL3Access], t[E::kL3Hit] + t[E::kL3Miss]) << workload.name;

  // Every retired load has exactly one data source.
  EXPECT_EQ(t[E::kLoadsRetired],
            t[E::kMemLoadL1Hit] + t[E::kMemLoadL2Hit] + t[E::kMemLoadL3Hit] +
                t[E::kMemLoadLocalDram] + t[E::kMemLoadRemoteDram] +
                t[E::kMemLoadRemoteHitm])
      << workload.name;

  // Memory ops are a subset of instructions; stalls fit inside cycles.
  EXPECT_LE(t[E::kLoadsRetired] + t[E::kStoresRetired], t[E::kInstructions])
      << workload.name;
  EXPECT_LE(t[E::kStallCyclesTotal], t[E::kCycles]) << workload.name;
  EXPECT_LE(t[E::kBranchMisses], t[E::kBranches]) << workload.name;
  EXPECT_LE(t[E::kSpeculativeJumpsRetired], t[E::kBranches]) << workload.name;

  // TLB accounting: every access translates; misses split into STLB hits
  // and walks.
  EXPECT_EQ(t[E::kDtlbAccess], t[E::kL1dAccess]) << workload.name;
  EXPECT_EQ(t[E::kDtlbMiss], t[E::kStlbHit] + t[E::kPageWalks]) << workload.name;

  // Uncore LLC view covers the demand L3 misses.
  EXPECT_GE(t[E::kUncLlcLookups], t[E::kL3Miss]) << workload.name;

  // Aggregation really is the sum of the parts.
  sim::CounterBlock manual;
  for (u32 core = 0; core < machine.cores(); ++core) manual += machine.core_counters(core);
  for (u32 node = 0; node < machine.nodes(); ++node) manual += machine.uncore_counters(node);
  EXPECT_EQ(manual[E::kInstructions], t[E::kInstructions]) << workload.name;
  EXPECT_EQ(manual[E::kUncImcReads], t[E::kUncImcReads]) << workload.name;
}

INSTANTIATE_TEST_SUITE_P(
    PresetsByWorkload, CounterInvariants,
    ::testing::Combine(::testing::Values(std::string("uma"), std::string("dual"),
                                         std::string("dl580")),
                       ::testing::ValuesIn(kWorkloads)),
    [](const ::testing::TestParamInfo<CounterInvariants::ParamType>& param_info) {
      return std::get<0>(param_info.param) + "_" + std::get<1>(param_info.param).name;
    });

// --- run determinism across every workload ---------------------------------

class RunDeterminism : public ::testing::TestWithParam<WorkloadCase> {};

TEST_P(RunDeterminism, SameSeedSameCounters) {
  const auto& workload = GetParam();
  auto run_once = [&] {
    sim::Machine machine(sim::dual_socket_small(2));
    trace::Run run(machine, {.seed = 1234});
    run.run(workload.make());
    return machine.aggregate_counters();
  };
  const auto a = run_once();
  const auto b = run_once();
  for (usize i = 0; i < sim::kEventCount; ++i) {
    EXPECT_EQ(a.values[i], b.values[i])
        << workload.name << " event "
        << sim::event_name(static_cast<sim::Event>(i));
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, RunDeterminism, ::testing::ValuesIn(kWorkloads),
                         [](const ::testing::TestParamInfo<WorkloadCase>& param_info) {
                           return std::string(param_info.param.name);
                         });

// --- topology properties across presets ------------------------------------

class TopologyProperties : public ::testing::TestWithParam<const char*> {};

TEST_P(TopologyProperties, MetricAxioms) {
  const auto config = sim::preset_by_name(GetParam());
  const auto& topo = config.topology;
  EXPECT_NO_THROW(topo.validate());
  for (u32 a = 0; a < topo.nodes; ++a) {
    EXPECT_EQ(topo.hops(a, a), 0u);
    for (u32 b = 0; b < topo.nodes; ++b) {
      EXPECT_EQ(topo.hops(a, b), topo.hops(b, a));
      // Triangle inequality over the hop metric.
      for (u32 c = 0; c < topo.nodes; ++c) {
        EXPECT_LE(topo.hops(a, c), topo.hops(a, b) + topo.hops(b, c));
      }
    }
  }
}

TEST_P(TopologyProperties, RemoteLatencyMonotoneInHops) {
  auto config = sim::preset_by_name(GetParam());
  config.memory.jitter_fraction = 0.0;
  sim::Machine machine(config);
  // Base DRAM latency per hop distance must be strictly increasing.
  std::map<u32, Cycles> latency_by_hops;
  for (sim::NodeId node = 0; node < machine.nodes(); ++node) {
    const VirtAddr vaddr = 0x100000 + node * 0x1000;
    const auto result = machine.load(0, sim::make_paddr(node, 0), vaddr, page_of(vaddr));
    latency_by_hops[machine.topology().hops(0, node)] = result.latency;
    machine.reset();
  }
  Cycles previous = 0;
  for (const auto& [hops, latency] : latency_by_hops) {
    EXPECT_GT(latency, previous) << "hops " << hops;
    previous = latency;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPresets, TopologyProperties,
                         ::testing::Values("uma", "dual", "dl580", "dl580-full", "cube8"),
                         [](const ::testing::TestParamInfo<const char*>& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// --- statistics properties over random inputs ------------------------------

class StatsProperties : public ::testing::TestWithParam<u64> {};

TEST_P(StatsProperties, TTestAntisymmetryAndRange) {
  util::Xoshiro256ss rng(GetParam());
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 12; ++i) {
    a.push_back(rng.normal(100, 15));
    b.push_back(rng.normal(110, 10));
  }
  const auto ab = stats::welch_t_test(a, b);
  const auto ba = stats::welch_t_test(b, a);
  EXPECT_NEAR(ab.t, -ba.t, 1e-9);
  EXPECT_NEAR(ab.p_two_tailed, ba.p_two_tailed, 1e-9);
  EXPECT_GE(ab.p_two_tailed, 0.0);
  EXPECT_LE(ab.p_two_tailed, 1.0);
}

TEST_P(StatsProperties, PermutationAgreesWithWelchDirectionally) {
  util::Xoshiro256ss rng(GetParam() * 7 + 1);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 10; ++i) {
    a.push_back(rng.normal(50, 5));
    b.push_back(rng.normal(80, 5));  // clearly shifted
  }
  const auto welch = stats::welch_t_test(a, b);
  const auto perm = stats::permutation_t_test(a, b, 500, GetParam());
  EXPECT_TRUE(welch.significant(0.01));
  EXPECT_LT(perm.p_two_tailed, 0.05);
  EXPECT_DOUBLE_EQ(perm.mean_delta, welch.mean_delta);
}

TEST_P(StatsProperties, SegmentedFitNeverWorseThanSingleLine) {
  util::Xoshiro256ss rng(GetParam() * 31 + 5);
  std::vector<double> x;
  std::vector<double> y;
  for (usize i = 0; i < 60; ++i) {
    x.push_back(static_cast<double>(i));
    y.push_back(rng.normal(0.0, 10.0) + 0.5 * static_cast<double>(i));
  }
  const stats::SegmentCost cost(x, y);
  const double single = cost.sse(0, x.size());
  const auto two = stats::detect_two_phases(x, y);
  EXPECT_LE(two.total_sse, single + 1e-9);
}

TEST_P(StatsProperties, HolmAdjustedNeverBelowRaw) {
  util::Xoshiro256ss rng(GetParam() * 13 + 3);
  std::vector<double> p_values;
  for (int i = 0; i < 20; ++i) p_values.push_back(rng.uniform());
  const auto adjusted = stats::holm_adjust(p_values);
  for (usize i = 0; i < p_values.size(); ++i) {
    EXPECT_GE(adjusted[i], p_values[i] - 1e-12);
    EXPECT_LE(adjusted[i], 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsProperties, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- footprint bookkeeping property -----------------------------------------

class VmProperties : public ::testing::TestWithParam<u64> {};

TEST_P(VmProperties, FootprintMatchesLiveRegions) {
  util::Xoshiro256ss rng(GetParam());
  const auto topology = sim::make_fully_connected(2, 1);
  os::AddressSpace space(topology);

  std::vector<std::pair<VirtAddr, u64>> live;  // base -> rounded size
  u64 expected = 0;
  for (int step = 0; step < 200; ++step) {
    if (live.empty() || rng.chance(0.6)) {
      const u64 bytes = 1 + rng.below(5 * kPageBytes);
      const u64 rounded = (bytes + kPageBytes - 1) / kPageBytes * kPageBytes;
      const VirtAddr base = space.allocate(bytes);
      if (rng.chance(0.5)) space.translate(base, static_cast<sim::NodeId>(rng.below(2)));
      live.emplace_back(base, rounded);
      expected += rounded;
    } else {
      const usize victim = rng.below(live.size());
      space.free(live[victim].first);
      expected -= live[victim].second;
      live[victim] = live.back();
      live.pop_back();
    }
    ASSERT_EQ(space.footprint_bytes(), expected) << "step " << step;
    ASSERT_LE(space.resident_bytes(), space.footprint_bytes()) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VmProperties, ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace npat
