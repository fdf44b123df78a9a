#include "monitor/aggregate.hpp"

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace npat::monitor {

double NodeStats::local_ratio() const noexcept {
  const u64 loads = numa_loads();
  return loads == 0 ? 1.0 : static_cast<double>(local_dram) / static_cast<double>(loads);
}

double NodeStats::remote_ratio() const noexcept {
  const u64 loads = numa_loads();
  return loads == 0 ? 0.0
                    : static_cast<double>(remote_dram + remote_hitm) / static_cast<double>(loads);
}

double NodeStats::ipc() const noexcept {
  return cycles == 0 ? 0.0 : static_cast<double>(instructions) / static_cast<double>(cycles);
}

double NodeStats::dram_bytes_per_cycle(Cycles window_cycles) const noexcept {
  if (window_cycles == 0) return 0.0;
  return static_cast<double>((imc_reads + imc_writes) * kCacheLineBytes) /
         static_cast<double>(window_cycles);
}

double NodeStats::dram_gbps(Cycles window_cycles, double frequency_ghz) const noexcept {
  // bytes/cycle × cycles/ns = bytes/ns = GB/s.
  return dram_bytes_per_cycle(window_cycles) * frequency_ghz;
}

NodeStats WindowStats::total() const {
  NodeStats sum;
  for (const NodeStats& node : nodes) {
    sum.samples = std::max(sum.samples, node.samples);
    sum.instructions += node.instructions;
    sum.cycles += node.cycles;
    sum.local_dram += node.local_dram;
    sum.remote_dram += node.remote_dram;
    sum.remote_hitm += node.remote_hitm;
    sum.imc_reads += node.imc_reads;
    sum.imc_writes += node.imc_writes;
    sum.qpi_flits += node.qpi_flits;
    sum.resident_bytes += node.resident_bytes;
  }
  return sum;
}

WindowStats aggregate(std::span<const Sample> samples) {
  NPAT_OBS_SPAN("monitor.aggregate");
  NPAT_OBS_COUNT("npat_monitor_windows_total", "Aggregation windows computed", 1);
  WindowStats window;
  if (samples.empty()) return window;

  window.start = samples.front().timestamp;
  window.end = samples.back().timestamp;
  window.samples = samples.size();
  window.footprint_bytes = samples.back().footprint_bytes;
  window.nodes.resize(samples.front().nodes.size());

  for (const Sample& sample : samples) {
    NPAT_CHECK_MSG(sample.nodes.size() == window.nodes.size(),
                   "samples in a window must share the node count");
    for (usize node = 0; node < sample.nodes.size(); ++node) {
      const NodeSample& in = sample.nodes[node];
      NodeStats& out = window.nodes[node];
      ++out.samples;
      out.instructions += in.instructions;
      out.cycles += in.cycles;
      out.local_dram += in.local_dram;
      out.remote_dram += in.remote_dram;
      out.remote_hitm += in.remote_hitm;
      out.imc_reads += in.imc_reads;
      out.imc_writes += in.imc_writes;
      out.qpi_flits += in.qpi_flits;
      out.resident_bytes = in.resident_bytes;  // keep the last snapshot
    }
  }
  return window;
}

Sample merge_samples(std::span<const Sample> samples) {
  NPAT_CHECK_MSG(!samples.empty(), "cannot merge zero samples");
  Sample merged = samples.front();
  for (const Sample& sample : samples.subspan(1)) {
    NPAT_CHECK_MSG(sample.nodes.size() == merged.nodes.size(),
                   "merged samples must share the node count");
    merged.timestamp = sample.timestamp;
    merged.footprint_bytes = sample.footprint_bytes;
    for (usize node = 0; node < sample.nodes.size(); ++node) {
      const NodeSample& in = sample.nodes[node];
      NodeSample& out = merged.nodes[node];
      out.instructions += in.instructions;
      out.cycles += in.cycles;
      out.local_dram += in.local_dram;
      out.remote_dram += in.remote_dram;
      out.remote_hitm += in.remote_hitm;
      out.imc_reads += in.imc_reads;
      out.imc_writes += in.imc_writes;
      out.qpi_flits += in.qpi_flits;
      out.resident_bytes = in.resident_bytes;
    }
  }
  return merged;
}

double TaskStats::rma_lma_ratio() const noexcept {
  return lma() == 0 ? 0.0 : static_cast<double>(rma()) / static_cast<double>(lma());
}

double TaskStats::remote_ratio() const noexcept {
  const u64 numa_loads = local_dram + remote_dram + remote_hitm;
  return numa_loads == 0 ? 0.0 : static_cast<double>(rma()) / static_cast<double>(numa_loads);
}

double TaskStats::cpi() const noexcept {
  return instructions == 0 ? 0.0
                           : static_cast<double>(cycles) / static_cast<double>(instructions);
}

double TaskStats::avg_load_latency() const noexcept {
  return latency_loads == 0
             ? 0.0
             : static_cast<double>(latency_sum) / static_cast<double>(latency_loads);
}

const TaskStats* TaskWindowStats::find(u32 pid, u32 tid) const noexcept {
  for (const TaskStats& task : tasks) {
    if (task.pid == pid && task.tid == tid) return &task;
  }
  return nullptr;
}

TaskWindowStats aggregate_tasks(std::span<const TaskSample> samples) {
  NPAT_OBS_SPAN("monitor.aggregate_tasks");
  NPAT_OBS_COUNT("npat_monitor_task_windows_total", "Per-task aggregation windows computed", 1);
  TaskWindowStats window;
  if (samples.empty()) return window;

  window.start = samples.front().timestamp;
  window.end = samples.back().timestamp;
  window.samples = samples.size();

  // (pid, tid) -> index into window.tasks; per-task per-node cycle tally
  // for the window-dominant node.
  std::map<std::pair<u32, u32>, usize> index;
  std::vector<std::map<u32, u64>> node_cycles;
  for (const TaskSample& sample : samples) {
    for (const TaskCounters& row : sample.tasks) {
      const auto [it, inserted] = index.try_emplace({row.pid, row.tid}, window.tasks.size());
      if (inserted) {
        window.tasks.emplace_back();
        node_cycles.emplace_back();
        window.tasks.back().pid = row.pid;
        window.tasks.back().tid = row.tid;
      }
      TaskStats& out = window.tasks[it->second];
      ++out.samples;
      out.instructions += row.instructions;
      out.cycles += row.cycles;
      out.local_dram += row.local_dram;
      out.remote_dram += row.remote_dram;
      out.remote_hitm += row.remote_hitm;
      out.loads += row.loads;
      out.latency_sum += row.latency_sum;
      out.latency_loads += row.latency_loads;
      if (!row.areas.empty()) out.areas = row.areas;  // keep the last snapshot
      node_cycles[it->second][row.node] += row.cycles;
    }
  }
  for (usize i = 0; i < window.tasks.size(); ++i) {
    u64 best = 0;
    for (const auto& [node, cycles] : node_cycles[i]) {
      if (cycles > best) {
        best = cycles;
        window.tasks[i].node = node;
      }
    }
  }
  std::sort(window.tasks.begin(), window.tasks.end(), [](const TaskStats& a, const TaskStats& b) {
    return std::pair{a.pid, a.tid} < std::pair{b.pid, b.tid};
  });
  return window;
}

TieredHistory::TieredHistory(TierConfig config) : config_(config) {
  NPAT_CHECK_MSG(config_.tiers >= 1, "need at least one tier");
  NPAT_CHECK_MSG(config_.factor >= 2, "downsampling factor must be >= 2");
  for (usize t = 0; t < config_.tiers; ++t) rings_.emplace_back(config_.capacity);
  pending_.resize(config_.tiers);
}

void TieredHistory::accumulate(Sample& into, const Sample& sample) {
  const Sample pair[2] = {std::move(into), sample};
  into = merge_samples(pair);
}

void TieredHistory::feed(usize t, const Sample& sample) {
  rings_[t].push(sample);
  if (t + 1 >= rings_.size()) return;

  Pending& pending = pending_[t];
  if (pending.count == 0) {
    pending.accumulator = sample;
  } else {
    accumulate(pending.accumulator, sample);
  }
  if (++pending.count == config_.factor) {
    const Sample merged = std::move(pending.accumulator);
    pending = Pending{};
    feed(t + 1, merged);
  }
}

void TieredHistory::add(const Sample& sample) { feed(0, sample); }

}  // namespace npat::monitor
