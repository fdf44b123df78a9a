// End-to-end drill-down: a parallel_sort run with task accounting feeds
// the TaskSampler, the per-task stream rides protocol v5 frames (both the
// encode_task_stream file path and a live Probe -> FleetCollector link),
// and scripted keys walk node -> process -> thread -> hot areas against
// the decoded telemetry — the numatop loop, minus the keyboard.
#include <gtest/gtest.h>

#include "fleet/collector.hpp"
#include "memhist/remote.hpp"
#include "monitor/aggregate.hpp"
#include "monitor/export.hpp"
#include "monitor/sampler.hpp"
#include "monitor/task_sampler.hpp"
#include "proc/drill.hpp"
#include "proc/task.hpp"
#include "sim/presets.hpp"
#include "util/ansi.hpp"
#include "util/channel.hpp"
#include "workloads/parallel_sort.hpp"

namespace npat::proc {
namespace {

struct Capture {
  std::vector<monitor::Sample> node_samples;
  std::vector<monitor::TaskSample> task_samples;
  TaskRegistry registry;
};

/// One instrumented parallel_sort run with task accounting on.
Capture run_capture() {
  Capture capture;
  sim::Machine machine(sim::hpe_dl580_gen9(4));
  trace::Run run(machine, {.task_accounting = true});

  monitor::SamplerConfig node_config;
  node_config.period = 50000;
  monitor::Sampler sampler(machine, run.space(), node_config);
  sampler.attach(run.runner());
  monitor::TaskSamplerConfig task_config;
  task_config.period = 50000;
  monitor::TaskSampler task_sampler(machine, task_config);
  task_sampler.attach(run.runner());

  workloads::ParallelSortParams params;
  params.elements = 1 << 12;
  params.threads = 4;
  const trace::Program program = workloads::parallel_sort_program(params);
  capture.registry.add_program(program);

  const trace::RunResult result = run.run(program);
  sampler.sample(result.duration);
  task_sampler.sample(result.duration);
  capture.node_samples = sampler.ring().drain();
  capture.task_samples = task_sampler.ring().drain();
  return capture;
}

const Capture& capture() {
  static const Capture instance = run_capture();
  return instance;
}

TEST(DrillE2E, TaskStreamCarriesEveryWorker) {
  const Capture& cap = capture();
  ASSERT_FALSE(cap.task_samples.empty());
  const monitor::TaskWindowStats window = monitor::aggregate_tasks(cap.task_samples);
  // parallel_sort names its process; every thread shows up with cycles.
  ASSERT_EQ(window.tasks.size(), 4u);
  for (const monitor::TaskStats& task : window.tasks) {
    EXPECT_GT(task.cycles, 0u);
    const TaskInfo* info = cap.registry.find_identity(task.pid, task.tid);
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->process_name, "parallel_sort");
  }
}

TEST(DrillE2E, EncodedV5StreamDecodesAndDrills) {
  util::AnsiGuard plain(false);
  const Capture& cap = capture();
  const std::vector<u8> bytes =
      monitor::encode_task_stream(cap.task_samples, cap.registry.name_table());
  // The recorded stream replays through the collector's decode path.
  fleet::FleetCollector collector;
  auto pair = util::make_loopback_pair();
  collector.add_probe(pair.b);
  pair.a->send(bytes);
  collector.poll();
  const fleet::ProbeState& decoded = collector.probe(0);
  EXPECT_EQ(decoded.version, memhist::wire::kProtocolVersion);
  EXPECT_TRUE(decoded.ended);
  EXPECT_EQ(decoded.damage.dropped_frames, 0u);
  EXPECT_EQ(decoded.damage.orphaned_task_rows, 0u);
  ASSERT_EQ(decoded.task_samples.size(), cap.task_samples.size());

  // The decoded stream drives the drill exactly like the live ring does.
  const monitor::WindowStats nodes = monitor::aggregate(cap.node_samples);
  DrillScope scope;
  scope.nodes = &nodes;
  scope.tasks = monitor::aggregate_tasks(decoded.task_samples);
  scope.registry = &decoded.registry;

  DrillDown drill;
  drill.apply_key('d', scope);  // node 0 -> processes
  const std::string processes = render_drill(drill, scope);
  EXPECT_NE(processes.find("parallel_sort"), std::string::npos);
  EXPECT_NE(processes.find("[processes]"), std::string::npos);

  drill.apply_key('d', scope);  // heaviest process -> threads
  ASSERT_EQ(drill.level(), DrillLevel::kThreads);
  const std::string threads = render_drill(drill, scope);
  EXPECT_NE(threads.find("TID"), std::string::npos);

  drill.apply_key('d', scope);  // heaviest thread -> hot areas
  ASSERT_EQ(drill.level(), DrillLevel::kAreas);
  const std::string areas = render_drill(drill, scope);
  EXPECT_NE(areas.find("Area"), std::string::npos);
  // The sort touches real memory: its hottest thread reports hot areas.
  EXPECT_NE(areas.find("0x"), std::string::npos);
}

TEST(DrillE2E, FleetCollectorFedOverProtocolV5Drills) {
  util::AnsiGuard plain(false);
  const Capture& cap = capture();

  fleet::FleetCollector collector;
  auto pair = util::make_loopback_pair();
  collector.add_probe(pair.b);
  memhist::Probe probe(pair.a);
  const usize node_count = cap.node_samples.empty() ? 4 : cap.node_samples[0].nodes.size();
  probe.send_hello(static_cast<u32>(node_count), "sort-host");
  probe.send_task_table(cap.registry.to_wire());
  const auto task_ids = cap.registry.task_ids();
  Cycles last = 0;
  for (const monitor::TaskSample& sample : cap.task_samples) {
    probe.send_task_sample(monitor::to_wire_tasks(sample, task_ids));
    last = sample.timestamp;
  }
  probe.send_end(last);
  collector.poll();
  EXPECT_TRUE(collector.probe(0).ended);

  const fleet::FleetView view = collector.view();
  ASSERT_EQ(view.hosts.size(), 1u);
  EXPECT_EQ(view.hosts[0].host_id, "sort-host");
  ASSERT_EQ(view.hosts[0].tasks.tasks.size(), 4u);
  const fleet::ProbeDamage damage = view.damage_total();
  EXPECT_EQ(damage.orphaned_task_rows, 0u);  // table preceded every sample

  DrillScope scope;
  scope.hosts = {view.hosts[0].host_id};
  scope.host_tasks = {view.hosts[0].tasks};
  scope.tasks = view.hosts[0].tasks;
  scope.registry = &collector.probe(0).registry;

  DrillDown drill(true);
  const std::string top = render_drill(drill, scope);
  EXPECT_NE(top.find("sort-host"), std::string::npos);

  drill.apply_key('d', scope);  // host -> processes
  ASSERT_EQ(drill.level(), DrillLevel::kProcesses);
  const std::string processes = render_drill(drill, scope);
  EXPECT_NE(processes.find("parallel_sort"), std::string::npos);

  drill.apply_key('d', scope);
  drill.apply_key('j', scope);  // move within the thread table
  drill.apply_key('d', scope);
  EXPECT_EQ(drill.level(), DrillLevel::kAreas);
  EXPECT_NE(drill.breadcrumb(scope).find("host sort-host > pid"), std::string::npos);
}

}  // namespace
}  // namespace npat::proc
