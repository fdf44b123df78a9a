// Ablation: automatic NUMA balancing (the OS-level remedy the paper's
// introduction motivates cost models *for*). A badly-placed workload —
// all data first-touched on node 0, consumers scattered across sockets —
// runs with balancing off and on across migration thresholds. Indicators:
// remote DRAM loads, interconnect flits, migrations, total cycles.
#include <cstdio>

#include <memory>

#include "os/vm.hpp"
#include "sim/presets.hpp"
#include "trace/runner.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace npat;

struct Outcome {
  Cycles duration = 0;
  u64 remote_loads = 0;
  u64 qpi_flits = 0;
  u64 migrations = 0;
};

Outcome run_consumers(const sim::MachineConfig& config, u16 balancing_threshold,
                      u64 accesses) {
  sim::Machine machine(config);
  trace::Run run(machine, {.affinity = os::AffinityPolicy::kScatter});
  if (balancing_threshold > 0) run.space().enable_numa_balancing(balancing_threshold);

  auto shared = std::make_shared<std::vector<VirtAddr>>();
  const u32 threads = 4;
  auto body = [shared, accesses, threads](trace::ThreadContext& ctx) -> trace::SimTask {
    constexpr usize kBytesPerConsumer = 512 * 1024;
    if (ctx.index() == 0) {
      // The master thread first-touches everyone's partition: the classic
      // placement mistake automatic balancing exists to repair.
      shared->resize(threads);
      for (u32 t = 0; t < threads; ++t) {
        (*shared)[t] = ctx.alloc(kBytesPerConsumer);
        for (usize i = 0; i < kBytesPerConsumer / kPageBytes; ++i) {
          co_await ctx.store((*shared)[t] + i * kPageBytes);
        }
      }
    }
    co_await ctx.barrier(0);
    // Every thread consumes *its own* partition — on its own node, but the
    // pages start out on node 0.
    const VirtAddr mine = (*shared)[ctx.index()];
    const usize lines = kBytesPerConsumer / kCacheLineBytes;
    for (u64 i = 0; i < accesses; ++i) {
      co_await ctx.load(mine + ctx.rng().below(lines) * kCacheLineBytes);
      co_await ctx.compute(2);
    }
    co_await ctx.barrier(1);
  };
  const auto result = run.run(trace::Program::homogeneous(threads, body));

  Outcome out;
  out.duration = result.duration;
  const auto totals = machine.aggregate_counters();
  out.remote_loads = totals[sim::Event::kMemLoadRemoteDram];
  out.qpi_flits = totals[sim::Event::kUncQpiTxFlits];
  out.migrations = totals[sim::Event::kSwPageMigrations];
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  i64 accesses = 60000;
  util::Cli cli("Ablation: automatic NUMA balancing vs static first-touch mistake");
  cli.add_flag("accesses", &accesses, "random accesses per consumer thread");
  if (const auto rc = cli.parse_main(argc, argv)) return *rc;

  auto config = sim::hpe_dl580_gen9(1);  // one core per node: pure placement story
  config.l3.size_bytes = KiB(512);

  util::Table table({"balancing", "duration (cycles)", "remote loads", "QPI flits",
                     "migrations"});
  table.set_title("NUMA balancing ablation (4 consumers, data mis-placed on node 0)");
  for (usize c = 1; c < 5; ++c) table.set_align(c, util::Align::kRight);

  const Outcome off = run_consumers(config, 0, static_cast<u64>(accesses));
  table.add_row({"off", util::with_thousands(off.duration),
                 util::si_scaled(static_cast<double>(off.remote_loads)),
                 util::si_scaled(static_cast<double>(off.qpi_flits)),
                 util::with_thousands(off.migrations)});
  for (u16 threshold : {2, 8, 32, 128}) {
    const Outcome on = run_consumers(config, threshold, static_cast<u64>(accesses));
    table.add_row({util::format("threshold %u", threshold),
                   util::with_thousands(on.duration),
                   util::si_scaled(static_cast<double>(on.remote_loads)),
                   util::si_scaled(static_cast<double>(on.qpi_flits)),
                   util::with_thousands(on.migrations)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts("\nlow thresholds migrate early and kill the remote traffic; very high");
  std::puts("thresholds approach the static (off) behaviour.");
  return 0;
}
