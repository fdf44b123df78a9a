// Example: map a machine's NUMA latency landscape with the PEBS
// load-latency facility — the matrix Intel mlc prints, produced through
// this toolkit's perf layer. A dependent pointer chase runs on core 0 and
// targets each node's memory in turn; the median sampled use latency per
// target is reported, then the full node matrix is derived from the
// interconnect hop distances.
//
// Also demonstrates the remote-probe protocol: Memhist readings travel
// through the wire format before the histogram is built, exactly like the
// headless server probe of the paper's Fig. 6.
#include <algorithm>
#include <cstdio>
#include <map>

#include "memhist/builder.hpp"
#include "memhist/remote.hpp"
#include "perf/load_latency.hpp"
#include "sim/presets.hpp"
#include "trace/runner.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workloads/mlc_remote.hpp"

int main(int argc, char** argv) {
  using namespace npat;

  std::string preset = "cube8";
  i64 chase_steps = 40000;
  util::Cli cli("NUMA latency map: median load latency per (cpu node, memory node)");
  cli.add_flag("preset", &preset, "machine preset (dl580, dual, uma, cube8)");
  cli.add_flag("chase-steps", &chase_steps, "pointer-chase steps per cell");
  if (const auto rc = cli.parse_main(argc, argv)) return *rc;

  sim::MachineConfig config = sim::preset_by_name(preset);
  config.l3.size_bytes = MiB(2);  // let the chase actually reach DRAM
  std::fputs(config.topology.describe().c_str(), stdout);

  // Measure the median chase latency from core 0 into each node; collect
  // one median per hop distance (the topology is node-symmetric).
  sim::Machine machine(config);
  std::map<u32, Cycles> median_by_hops;
  for (sim::NodeId mem_node = 0; mem_node < config.topology.nodes; ++mem_node) {
    const u32 hops = config.topology.hops(0, mem_node);
    if (median_by_hops.count(hops)) continue;

    trace::Run run(machine);

    workloads::MlcParams params;
    params.buffer_bytes = MiB(8);
    params.target_node = mem_node;
    params.chase_steps = static_cast<u64>(chase_steps);
    params.think_instructions = 24;  // dependent chase, unloaded latency

    perf::LoadLatencySession session(machine);
    session.arm(1, 8);
    run.run(workloads::mlc_program(params));
    const auto reading = session.disarm();

    std::vector<Cycles> latencies;
    for (const auto& sample : reading.samples) {
      if (sample.source == sim::DataSource::kLocalDram ||
          sample.source == sim::DataSource::kRemoteDram) {
        latencies.push_back(sample.latency);
      }
    }
    if (latencies.empty()) continue;
    std::nth_element(latencies.begin(), latencies.begin() + latencies.size() / 2,
                     latencies.end());
    median_by_hops[hops] = latencies[latencies.size() / 2];
  }

  std::vector<std::string> headers = {"cpu\\mem"};
  for (u32 m = 0; m < config.topology.nodes; ++m) headers.push_back(std::to_string(m));
  util::Table table(headers);
  table.set_title("median DRAM use latency in cycles (measured per hop distance)");
  for (usize c = 1; c < headers.size(); ++c) table.set_align(c, util::Align::kRight);
  for (sim::NodeId cpu_node = 0; cpu_node < config.topology.nodes; ++cpu_node) {
    std::vector<std::string> row = {std::to_string(cpu_node)};
    for (sim::NodeId mem_node = 0; mem_node < config.topology.nodes; ++mem_node) {
      const auto it = median_by_hops.find(config.topology.hops(cpu_node, mem_node));
      row.push_back(it == median_by_hops.end() ? "-" : std::to_string(it->second));
    }
    table.add_row(row);
  }
  std::fputs(table.render().c_str(), stdout);

  // Ship one chase's Memhist readings through the remote-probe wire
  // protocol, as the headless server probe would.
  trace::Run run(machine);
  memhist::MemhistOptions options;
  options.slice_cycles = 300000;
  memhist::MemhistBuilder builder(machine, run.runner(), options);
  builder.start();
  workloads::MlcParams params = workloads::mlc_remote(config.topology, MiB(8));
  params.chase_steps = static_cast<u64>(chase_steps);
  const auto result = run.run(workloads::mlc_program(params));
  builder.finish();

  auto pair = util::make_loopback_pair();
  memhist::Probe probe(pair.a);
  memhist::GuiCollector collector(pair.b);
  probe.send_hello(config.topology.nodes);
  probe.send_readings(builder.readings());
  probe.send_end(result.duration);
  collector.poll();
  auto histogram = collector.build(memhist::HistogramMode::kOccurrences);
  memhist::annotate_with_machine_levels(histogram, config);
  std::puts("");
  std::fputs(histogram.render("remote-probe histogram (farthest-node chase)").c_str(),
             stdout);
  std::printf("wire frames sent: %zu, dropped in transit: %zu\n", probe.frames_sent(),
              collector.dropped_frames());
  return 0;
}
