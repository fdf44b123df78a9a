#include "monitor/export.hpp"

#include "util/csv.hpp"

namespace npat::monitor {

std::string to_csv(std::span<const Sample> samples) {
  util::CsvWriter csv({"timestamp", "footprint_bytes", "node", "instructions", "cycles",
                       "local_dram", "remote_dram", "remote_hitm", "imc_reads", "imc_writes",
                       "qpi_flits", "resident_bytes"});
  for (const Sample& sample : samples) {
    for (usize node = 0; node < sample.nodes.size(); ++node) {
      const NodeSample& n = sample.nodes[node];
      csv.add_row({std::to_string(sample.timestamp), std::to_string(sample.footprint_bytes),
                   std::to_string(node), std::to_string(n.instructions),
                   std::to_string(n.cycles), std::to_string(n.local_dram),
                   std::to_string(n.remote_dram), std::to_string(n.remote_hitm),
                   std::to_string(n.imc_reads), std::to_string(n.imc_writes),
                   std::to_string(n.qpi_flits), std::to_string(n.resident_bytes)});
    }
  }
  return csv.str();
}

util::Json to_json(std::span<const Sample> samples) {
  util::JsonArray list;
  for (const Sample& sample : samples) {
    util::JsonArray nodes;
    for (const NodeSample& n : sample.nodes) {
      util::JsonObject node;
      node["instructions"] = n.instructions;
      node["cycles"] = n.cycles;
      node["local_dram"] = n.local_dram;
      node["remote_dram"] = n.remote_dram;
      node["remote_hitm"] = n.remote_hitm;
      node["imc_reads"] = n.imc_reads;
      node["imc_writes"] = n.imc_writes;
      node["qpi_flits"] = n.qpi_flits;
      node["resident_bytes"] = n.resident_bytes;
      nodes.emplace_back(std::move(node));
    }
    util::JsonObject record;
    record["timestamp"] = sample.timestamp;
    record["footprint_bytes"] = sample.footprint_bytes;
    record["nodes"] = std::move(nodes);
    list.emplace_back(std::move(record));
  }
  util::JsonObject doc;
  doc["samples"] = std::move(list);
  return doc;
}

memhist::wire::MonitorSampleMsg to_wire(const Sample& sample) {
  memhist::wire::MonitorSampleMsg message;
  message.timestamp = sample.timestamp;
  message.footprint_bytes = sample.footprint_bytes;
  message.nodes.reserve(sample.nodes.size());
  for (const NodeSample& n : sample.nodes) {
    message.nodes.push_back({n.instructions, n.cycles, n.local_dram, n.remote_dram,
                             n.remote_hitm, n.imc_reads, n.imc_writes, n.qpi_flits,
                             n.resident_bytes});
  }
  return message;
}

Sample from_wire(const memhist::wire::MonitorSampleMsg& message) {
  Sample sample;
  sample.timestamp = message.timestamp;
  sample.footprint_bytes = message.footprint_bytes;
  sample.nodes.reserve(message.nodes.size());
  for (const memhist::wire::MonitorNodeCounters& n : message.nodes) {
    sample.nodes.push_back({n.instructions, n.cycles, n.local_dram, n.remote_dram,
                            n.remote_hitm, n.imc_reads, n.imc_writes, n.qpi_flits,
                            n.resident_bytes});
  }
  return sample;
}

std::vector<u8> encode_stream(std::span<const Sample> samples) {
  namespace wire = memhist::wire;
  std::vector<u8> out;
  const u32 node_count =
      samples.empty() ? 0 : static_cast<u32>(samples.front().nodes.size());
  const auto append = [&out](const std::vector<u8>& frame) {
    out.insert(out.end(), frame.begin(), frame.end());
  };
  append(wire::encode(wire::Hello{wire::kProtocolVersion, node_count}));
  for (const Sample& sample : samples) append(wire::encode(to_wire(sample)));
  append(wire::encode(wire::End{samples.empty() ? 0 : samples.back().timestamp}));
  return out;
}

std::string to_csv_tasks(std::span<const TaskSample> samples, const TaskNameTable& names) {
  util::CsvWriter csv({"timestamp", "pid", "tid", "process", "thread", "node", "instructions",
                       "cycles", "local_dram", "remote_dram", "remote_hitm", "loads",
                       "latency_sum", "latency_loads"});
  for (const TaskSample& sample : samples) {
    for (const TaskCounters& t : sample.tasks) {
      const auto named = names.find({t.pid, t.tid});
      const TaskNames& n = named != names.end() ? named->second : TaskNames{};
      csv.add_row({std::to_string(sample.timestamp), std::to_string(t.pid),
                   std::to_string(t.tid), n.process_name, n.thread_name,
                   std::to_string(t.node), std::to_string(t.instructions),
                   std::to_string(t.cycles), std::to_string(t.local_dram),
                   std::to_string(t.remote_dram), std::to_string(t.remote_hitm),
                   std::to_string(t.loads), std::to_string(t.latency_sum),
                   std::to_string(t.latency_loads)});
    }
  }
  return csv.str();
}

util::Json to_json_tasks(std::span<const TaskSample> samples, const TaskNameTable& names) {
  util::JsonArray list;
  for (const TaskSample& sample : samples) {
    util::JsonArray tasks;
    for (const TaskCounters& t : sample.tasks) {
      util::JsonObject task;
      const auto named = names.find({t.pid, t.tid});
      task["pid"] = static_cast<u64>(t.pid);
      task["tid"] = static_cast<u64>(t.tid);
      task["process"] = named != names.end() ? named->second.process_name : "";
      task["thread"] = named != names.end() ? named->second.thread_name : "";
      task["node"] = static_cast<u64>(t.node);
      task["instructions"] = t.instructions;
      task["cycles"] = t.cycles;
      task["local_dram"] = t.local_dram;
      task["remote_dram"] = t.remote_dram;
      task["remote_hitm"] = t.remote_hitm;
      task["loads"] = t.loads;
      task["latency_sum"] = t.latency_sum;
      task["latency_loads"] = t.latency_loads;
      util::JsonArray areas;
      for (const TaskArea& area : t.areas) {
        util::JsonObject a;
        a["base"] = area.base;
        a["samples"] = area.samples;
        areas.emplace_back(std::move(a));
      }
      task["areas"] = std::move(areas);
      tasks.emplace_back(std::move(task));
    }
    util::JsonObject record;
    record["timestamp"] = sample.timestamp;
    record["tasks"] = std::move(tasks);
    list.emplace_back(std::move(record));
  }
  util::JsonObject doc;
  doc["task_samples"] = std::move(list);
  return doc;
}

memhist::wire::TaskSampleMsg to_wire_tasks(const TaskSample& sample,
                                           const std::map<std::pair<u32, u32>, u32>& task_ids) {
  memhist::wire::TaskSampleMsg message;
  message.timestamp = sample.timestamp;
  message.rows.reserve(sample.tasks.size());
  for (const TaskCounters& t : sample.tasks) {
    const auto it = task_ids.find({t.pid, t.tid});
    if (it == task_ids.end()) continue;  // unregistered: caller must announce first
    memhist::wire::TaskSampleRow row;
    row.task_id = it->second;
    row.node = t.node;
    row.instructions = t.instructions;
    row.cycles = t.cycles;
    row.local_dram = t.local_dram;
    row.remote_dram = t.remote_dram;
    row.remote_hitm = t.remote_hitm;
    row.loads = t.loads;
    row.latency_sum = t.latency_sum;
    row.latency_loads = t.latency_loads;
    row.areas.reserve(t.areas.size());
    for (const TaskArea& area : t.areas) {
      row.areas.push_back(memhist::wire::TaskAreaCounters{area.base, area.samples});
    }
    message.rows.push_back(std::move(row));
  }
  return message;
}

std::vector<u8> encode_task_stream(std::span<const TaskSample> samples,
                                   const TaskNameTable& names) {
  namespace wire = memhist::wire;
  // Register every task seen anywhere in the stream (or named by the
  // caller), with ids assigned in (pid, tid) order for determinism.
  std::map<std::pair<u32, u32>, u32> task_ids;
  for (const auto& [key, value] : names) task_ids.emplace(key, 0);
  for (const TaskSample& sample : samples) {
    for (const TaskCounters& t : sample.tasks) task_ids.emplace(std::pair{t.pid, t.tid}, 0);
  }
  u32 next_id = 1;
  for (auto& [key, id] : task_ids) id = next_id++;

  wire::TaskTableMsg table;
  table.entries.reserve(task_ids.size());
  for (const auto& [key, id] : task_ids) {
    wire::TaskTableEntry entry;
    entry.task_id = id;
    entry.pid = key.first;
    entry.tid = key.second;
    const auto named = names.find(key);
    if (named != names.end()) {
      entry.process_name = named->second.process_name;
      entry.thread_name = named->second.thread_name;
    }
    table.entries.push_back(std::move(entry));
  }

  std::vector<u8> out;
  const auto append = [&out](const std::vector<u8>& frame) {
    out.insert(out.end(), frame.begin(), frame.end());
  };
  append(wire::encode(wire::Hello{wire::kProtocolVersion, 0, {}}));
  append(wire::encode(table));
  for (const TaskSample& sample : samples) append(wire::encode(to_wire_tasks(sample, task_ids)));
  append(wire::encode(wire::End{samples.empty() ? 0 : samples.back().timestamp}));
  return out;
}

}  // namespace npat::monitor
