// Export paths for monitor samples: CSV and JSON for external plotting
// (one row/object per sample and node), and streaming over the
// memhist::wire framing so a headless probe can ship live telemetry to a
// remote viewer on the same CRC-protected, resynchronizing transport the
// Memhist GUI already uses (protocol version 2's MonitorSampleMsg).
#pragma once

#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "memhist/wire.hpp"
#include "monitor/sampler.hpp"
#include "monitor/task_sampler.hpp"
#include "util/json.hpp"
#include "util/types.hpp"

namespace npat::monitor {

/// One row per (sample, node); columns are stable for plotting scripts.
std::string to_csv(std::span<const Sample> samples);

/// {"samples": [{"timestamp": .., "footprint_bytes": .., "nodes": [..]}]}
util::Json to_json(std::span<const Sample> samples);

// --- wire bridging ---------------------------------------------------------

memhist::wire::MonitorSampleMsg to_wire(const Sample& sample);
Sample from_wire(const memhist::wire::MonitorSampleMsg& message);

/// Encodes a complete monitoring session: Hello (version 2, node count
/// from the first sample), one frame per sample, End with the last
/// timestamp. An empty span yields Hello + End only.
std::vector<u8> encode_stream(std::span<const Sample> samples);

// --- per-task export -------------------------------------------------------

/// Display names for a (pid, tid) row; tasks without an entry export with
/// empty name columns.
struct TaskNames {
  std::string process_name;
  std::string thread_name;
};
using TaskNameTable = std::map<std::pair<u32, u32>, TaskNames>;

/// One row per (sample, task); stable column order for plotting scripts.
/// Task names pass through the CSV writer's RFC-4180 escaping.
std::string to_csv_tasks(std::span<const TaskSample> samples, const TaskNameTable& names = {});

/// {"task_samples": [{"timestamp": .., "tasks": [{.., "areas": [..]}]}]}
util::Json to_json_tasks(std::span<const TaskSample> samples, const TaskNameTable& names = {});

/// Converts one task sample for the wire; `task_ids` maps (pid, tid) to
/// the stream-local id announced in the TaskTable frame. Tasks without an
/// id are skipped (register them first).
memhist::wire::TaskSampleMsg to_wire_tasks(const TaskSample& sample,
                                           const std::map<std::pair<u32, u32>, u32>& task_ids);

/// Encodes a complete per-task monitoring session: Hello (protocol v5),
/// one TaskTable frame registering every task appearing in `samples` or
/// `names`, one TaskSample frame per sample, End with the last timestamp.
std::vector<u8> encode_task_stream(std::span<const TaskSample> samples,
                                   const TaskNameTable& names = {});

}  // namespace npat::monitor
