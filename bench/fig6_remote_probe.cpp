// Reproduces Fig. 6: Memhist's remote-probe architecture. A headless probe
// measures a server-side workload and streams threshold readings over the
// (fault-injectable) transport to the GUI collector, which accumulates and
// renders the histogram — "Probe + Measure(...)" on the server side,
// "EventFor(Interval) + Accumulate(...)" on the GUI side.
#include <cstdio>

#include <memory>

#include "memhist/builder.hpp"
#include "memhist/remote.hpp"
#include "sim/presets.hpp"
#include "trace/runner.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "workloads/mlc_remote.hpp"

int main(int argc, char** argv) {
  using namespace npat;

  i64 chase_steps = 200000;
  double corruption = 0.1;
  util::Cli cli("Fig. 6: Memhist remote probing over a lossy transport");
  cli.add_flag("chase-steps", &chase_steps, "probe-side workload size");
  cli.add_flag("corruption", &corruption, "per-frame corruption probability");
  if (const auto rc = cli.parse_main(argc, argv)) return *rc;

  // --- remote server side --------------------------------------------------
  sim::MachineConfig config = sim::hpe_dl580_gen9(2);
  config.l3.size_bytes = MiB(4);
  sim::Machine machine(config);
  trace::Run run(machine);
  memhist::MemhistOptions options;
  options.slice_cycles = 300000;
  memhist::MemhistBuilder builder(machine, run.runner(), options);

  auto pair = util::make_loopback_pair();
  util::FaultyChannel::Config faults;
  faults.corrupt_probability = corruption;
  faults.seed = 11;
  auto lossy = std::make_shared<util::FaultyChannel>(pair.a, faults);
  memhist::Probe probe(lossy);

  builder.start();
  workloads::MlcParams params = workloads::mlc_remote(config.topology, MiB(16));
  params.chase_steps = static_cast<u64>(chase_steps);
  const auto result = run.run(workloads::mlc_program(params));
  builder.finish();

  probe.send_hello(machine.nodes());
  probe.send_readings(builder.readings());
  probe.send_end(result.duration);
  std::printf("probe: measured %llu cycles, sent %zu frames over TCP "
              "(%.0f %% frame corruption injected)\n",
              static_cast<unsigned long long>(result.duration), probe.frames_sent(),
              corruption * 100);

  // --- GUI side --------------------------------------------------------------
  memhist::GuiCollector collector(pair.b);
  collector.poll();
  std::printf("gui:   received %zu readings, dropped %zu damaged frames, "
              "%zu resyncs\n\n",
              collector.readings().size(), collector.dropped_frames(),
              collector.resyncs());

  if (!collector.ended()) {
    std::puts("end-of-session frame lost in transit — rendering the partial data");
  }
  if (collector.readings().empty()) {
    std::puts("all frames lost; increase --chase-steps or lower --corruption");
    return 1;
  }
  auto histogram = collector.ended()
                       ? collector.build(memhist::HistogramMode::kOccurrences)
                       : memhist::MemhistBuilder::build(collector.readings(),
                                                        result.duration,
                                                        memhist::HistogramMode::kOccurrences);
  memhist::annotate_with_machine_levels(histogram, config);
  std::fputs(histogram.render("Fig. 6 — histogram reconstructed on the GUI side").c_str(),
             stdout);
  return 0;
}
