#include "ladder.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "evsel/collector.hpp"
#include "fleet_job.hpp"
#include "memhist/wire.hpp"
#include "os/vm.hpp"
#include "sim/presets.hpp"
#include "sim_jobs.hpp"
#include "stats.hpp"
#include "tracer.hpp"
#include "trace/runner.hpp"
#include "util/strings.hpp"
#include "validate/kernels.hpp"

namespace npatbench {

namespace {

using npat::VirtAddr;
using npat::sim::Event;
namespace trace = npat::trace;
namespace wire = npat::memhist::wire;

constexpr usize kLadderRepeats = 15;
constexpr u64 kLocalLines = 4096;  // 256 KiB cold stream on the running node
// A measure() call of the evsel ladder takes ~0.2 ms, of which the
// collector's own part is a few per cent: many pairs let the median settle.
constexpr usize kEvselPairs = 401;

double ns_since(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start).count();
}

/// Cold local-DRAM stream: node-0-bound lines loaded once each from node 0
/// with the prefetcher off, so every load is served by local DRAM.
trace::SimTask local_stream_body(trace::ThreadContext& ctx) {
  const VirtAddr base =
      ctx.alloc(kLocalLines * npat::kCacheLineBytes, npat::os::PagePolicy::kBind, 0);
  for (u64 i = 0; i < kLocalLines; ++i) co_await ctx.load(base + i * npat::kCacheLineBytes);
}

/// The evsel ladder's program: a single load, so a run costs little more
/// than the calls around it.
trace::SimTask one_load_body(trace::ThreadContext& ctx) {
  const VirtAddr base = ctx.alloc(npat::kCacheLineBytes);
  co_await ctx.load(base);
}

npat::validate::KernelSpec local_dram_kernel() {
  npat::validate::KernelSpec k;
  k.name = "local_dram_stream";
  k.prepare = [](npat::sim::MachineConfig& config) { config.prefetcher.degree = 0; };
  k.make_program = [] { return trace::Program::single(local_stream_body); };
  k.expects = [](const npat::sim::MachineConfig&) {
    const double n = static_cast<double>(kLocalLines);
    return std::vector<npat::validate::Expectation>{
        npat::validate::Expectation::exact(Event::kLoadsRetired, n),
        npat::validate::Expectation::exact(Event::kMemLoadLocalDram, n),
        npat::validate::Expectation::exact(Event::kMemLoadRemoteDram, 0),
    };
  };
  return k;
}

}  // namespace

void run_sim_ladder(Metrics& metrics, Checks& checks) {
  struct Level {
    const char* name;
    npat::validate::KernelSpec kernel;
  };
  const std::vector<Level> levels = {
      {"l1", npat::validate::kernel_by_name("l1_resident")},
      {"l2", npat::validate::kernel_by_name("stream_l2_exact")},
      {"l3", npat::validate::kernel_by_name("chase_l3_exact")},
      {"local_dram", local_dram_kernel()},
      {"remote_dram", npat::validate::kernel_by_name("chase_remote")},
      {"hitm", npat::validate::kernel_by_name("hitm_pair")},
      {"page_walk", npat::validate::kernel_by_name("tlb_stride")},
  };
  for (const Level& level : levels) {
    const npat::validate::KernelSpec& k = level.kernel;
    npat::sim::MachineConfig config = npat::sim::dual_socket_small();
    if (k.prepare) k.prepare(config);
    npat::sim::Machine machine(config);
    std::vector<double> ns_per_op;
    for (usize rep = 0; rep < kLadderRepeats; ++rep) {
      machine.reset();
      npat::os::AddressSpace space(config.topology);
      trace::RunnerConfig runner_config;
      runner_config.affinity = k.affinity;
      trace::Runner runner(machine, space, runner_config);
      if (k.arm) k.arm(machine);
      const trace::Program program = k.make_program();
      const Clock::time_point start = Clock::now();
      runner.run(program);
      const double ns = ns_since(start);
      if (k.post) k.post(machine);
      const npat::sim::CounterBlock totals = machine.aggregate_counters();
      const u64 memops = totals[Event::kLoadsRetired] + totals[Event::kStoresRetired];
      ns_per_op.push_back(ns / static_cast<double>(memops));
      bool exact = memops > 0;
      for (const npat::validate::Expectation& e : k.expects(config)) {
        if (e.is_exact() && static_cast<double>(totals[e.event]) != e.lo) exact = false;
      }
      checks.check(exact, npat::util::format("sim ladder: %s kernel %s holds its exact counts",
                                             level.name, k.name.c_str()));
    }
    metrics.set(std::string("sim.ns_per_access.") + level.name, median(ns_per_op), "ns");
  }
}

void run_os_ladder(Metrics& metrics, Checks& checks) {
  constexpr u64 kPages = 4096;
  constexpr usize kResidentPasses = 8;
  const npat::sim::MachineConfig config = npat::sim::hpe_dl580_gen9(4);
  std::vector<double> first_touch;
  std::vector<double> resident;
  for (usize rep = 0; rep < kLadderRepeats; ++rep) {
    npat::os::AddressSpace space(config.topology);
    const VirtAddr base = space.allocate(kPages * npat::kPageBytes);
    u64 fold = 0;
    Clock::time_point start = Clock::now();
    for (u64 p = 0; p < kPages; ++p) {
      const auto node = static_cast<npat::sim::NodeId>(p % config.topology.nodes);
      fold += space.translate_ex(base + p * npat::kPageBytes, node).paddr;
    }
    first_touch.push_back(ns_since(start) / static_cast<double>(kPages));
    u64 again = 0;
    start = Clock::now();
    for (usize pass = 0; pass < kResidentPasses; ++pass) {
      for (u64 p = 0; p < kPages; ++p) {
        again += space.translate_ex(base + p * npat::kPageBytes, 0).paddr;
      }
    }
    resident.push_back(ns_since(start) / static_cast<double>(kPages * kResidentPasses));
    checks.check(again == fold * kResidentPasses, "os ladder: resident translations are stable");
  }
  metrics.set("os.translate_ns.first_touch", median(first_touch), "ns");
  metrics.set("os.translate_ns.resident", median(resident), "ns");
}

void run_wire_ladder(Metrics& metrics, Checks& checks) {
  constexpr usize kSamples = 4096;
  constexpr npat::u32 kNodes = 4;
  constexpr usize kChunkBytes = 4096;
  std::vector<wire::MonitorSampleMsg> samples;
  std::vector<wire::Message> messages;
  for (usize i = 0; i < kSamples; ++i) {
    samples.push_back(make_sample(7, 0, i, kNodes));
    messages.emplace_back(samples.back());
  }
  std::vector<double> encode_mb_s;
  std::vector<double> decode_mb_s;
  usize bytes = 0;
  for (usize rep = 0; rep < kLadderRepeats; ++rep) {
    std::vector<npat::u8> stream;
    Clock::time_point start = Clock::now();
    for (const wire::Message& message : messages) {
      const std::vector<npat::u8> frame = wire::encode(message);
      stream.insert(stream.end(), frame.begin(), frame.end());
    }
    encode_mb_s.push_back(static_cast<double>(stream.size()) / ns_since(start) * 1e3);
    bytes = stream.size();

    wire::Decoder decoder;
    std::vector<wire::Message> decoded;
    decoded.reserve(kSamples);
    start = Clock::now();
    // Fed in channel-sized chunks, the way a collector drains its links.
    for (usize offset = 0; offset < stream.size(); offset += kChunkBytes) {
      const usize end = std::min(stream.size(), offset + kChunkBytes);
      decoder.feed(std::vector<npat::u8>(stream.begin() + static_cast<std::ptrdiff_t>(offset),
                                         stream.begin() + static_cast<std::ptrdiff_t>(end)));
      while (auto message = decoder.poll()) decoded.push_back(std::move(*message));
    }
    decode_mb_s.push_back(static_cast<double>(stream.size()) / ns_since(start) * 1e3);
    bool equal = decoded.size() == samples.size() && decoder.dropped_frames() == 0;
    for (usize i = 0; equal && i < decoded.size(); ++i) {
      const auto* sample = std::get_if<wire::MonitorSampleMsg>(&decoded[i]);
      equal = sample != nullptr && *sample == samples[i];
    }
    checks.check(equal, "wire ladder: decoded samples equal the encoded ones");
  }
  metrics.set("memhist.wire.encode_mb_per_s", median(encode_mb_s), "MB/s");
  metrics.set("memhist.wire.decode_mb_per_s", median(decode_mb_s), "MB/s");
  metrics.set("memhist.wire.bytes_per_sample",
              static_cast<double>(bytes) / static_cast<double>(kSamples), "count");
}

void run_evsel_ladder(Metrics& metrics, Checks& checks) {
  // Every event in batched groups, three repetitions: a measure() call as
  // the workloads make it, but on runs too small to hide its own cost.
  npat::sim::MachineConfig config = npat::sim::uma_single_node(1);
  // Tiny caches keep Machine::reset from hiding the collector's own cost.
  config.l1 = {"L1D", 4 * 1024, 8, 64, 4};
  config.l2 = {"L2", 16 * 1024, 8, 64, 12};
  config.l3 = {"L3", 64 * 1024, 16, 64, 60};
  npat::evsel::Collector collector(config);
  npat::sim::Machine machine(config);
  npat::evsel::CollectOptions options;
  options.repetitions = 3;
  const npat::evsel::ProgramFactory factory = [] { return trace::Program::single(one_load_body); };
  std::vector<double> self_ms;
  for (usize pair = 0; pair < kEvselPairs; ++pair) {
    // The two halves alternate in order, so a drift in host speed within a
    // pair does not favour either; both machines see the same run sequence.
    double measure_s = 0.0;
    double replay_s = 0.0;
    std::vector<npat::evsel::Measurement> measured;
    std::vector<npat::evsel::Measurement> replayed;
    for (usize half = 0; half < 2; ++half) {
      const Clock::time_point start = Clock::now();
      if ((half + pair) % 2 == 0) {
        measured.push_back(collector.measure("evsel ladder", factory, options));
        measure_s = seconds_since(start);
      } else {
        replayed.push_back(replay_measure(machine, "evsel ladder", factory, options, nullptr,
                                          nullptr));
        replay_s = seconds_since(start);
      }
    }
    checks.check(same_measurements(measured, replayed),
                 "evsel ladder: the replay equals Collector::measure");
    self_ms.push_back(1e3 * (measure_s - replay_s));
  }
  metrics.set("evsel.self_ms", median(self_ms), "ms");
}

}  // namespace npatbench
