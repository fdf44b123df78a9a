// Wire protocol for Memhist's remote probing (paper Fig. 6) and the
// continuous-monitoring stream: the headless probe on the server ships
// threshold readings (and, since version 2, monitor samples) to the GUI
// over TCP. Frames are length-prefixed, CRC-32 protected, and the decoder
// resynchronizes on corruption by scanning for the magic bytes —
// measurements survive a noisy transport with at most the damaged frames
// lost.
#pragma once

#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "memhist/builder.hpp"
#include "util/types.hpp"

namespace npat::memhist::wire {

inline constexpr u8 kMagic0 = 'N';
inline constexpr u8 kMagic1 = 'P';
/// Version 2 added MonitorSampleMsg. Version 3 extends Hello with a host
/// id so a fleet collector can attribute multiplexed streams to probes.
/// Version 4 adds the resilience frames: per-frame sequence envelopes
/// (SequencedMsg), Heartbeat liveness beacons, and the Resume handshake
/// that lets a reconnecting probe retransmit only what the collector
/// never saw. Version 5 adds per-task attribution: TaskTableMsg registers
/// (pid, tid, name) tuples under compact task ids and TaskSampleMsg ships
/// per-task counter deltas keyed by those ids. Version 6 adds pipeline
/// self-observability: StampedMsg annotates a data frame's payload with
/// the probe-side monotonic emit timestamp so a collector can attribute
/// per-hop latency (encode→send→decode→reorder→deliver). Version-1/2/3/4/5
/// streams decode unchanged; older decoders skip newer frame types
/// (unknown types are dropped whole, CRC-verified, without losing framing).
inline constexpr u8 kProtocolVersion = 6;
inline constexpr usize kMaxHostIdBytes = 255;
inline constexpr usize kMaxTaskNameBytes = 255;

struct Hello {
  u8 version = kProtocolVersion;
  u32 node_count = 0;
  /// Since version 3: names the sending probe in a multi-probe fleet.
  /// Empty on version <= 2 streams (whose Hello has no host field) and
  /// encoded only when `version >= 3`, so v2 frames stay byte-identical.
  std::string host_id{};

  friend bool operator==(const Hello&, const Hello&) = default;
};

struct ReadingMsg {
  ThresholdReading reading;
};

struct End {
  Cycles total_cycles = 0;
};

/// Per-node counter deltas of one monitor sampling period (see
/// monitor/sampler.hpp; kept as plain integers here so the wire layer does
/// not depend on the monitor subsystem).
struct MonitorNodeCounters {
  u64 instructions = 0;
  u64 cycles = 0;
  u64 local_dram = 0;
  u64 remote_dram = 0;
  u64 remote_hitm = 0;
  u64 imc_reads = 0;
  u64 imc_writes = 0;
  u64 qpi_flits = 0;
  u64 resident_bytes = 0;  // snapshot, not a delta

  friend bool operator==(const MonitorNodeCounters&, const MonitorNodeCounters&) = default;
};

/// One timestamped telemetry sample (version >= 2).
struct MonitorSampleMsg {
  Cycles timestamp = 0;
  u64 footprint_bytes = 0;
  std::vector<MonitorNodeCounters> nodes;

  friend bool operator==(const MonitorSampleMsg&, const MonitorSampleMsg&) = default;
};

/// Liveness beacon (version >= 4): sent by a supervised probe when it has
/// had nothing else to say for a while, so a collector can tell a silent
/// probe from a dead one. `seq` is the highest sequence number the probe
/// has assigned so far — an idle-period loss detector for free.
struct Heartbeat {
  u16 epoch = 0;
  u32 seq = 0;
  Cycles timestamp = 0;

  friend bool operator==(const Heartbeat&, const Heartbeat&) = default;
};

inline constexpr u8 kResumeProbe = 0;      ///< probe announces "resuming epoch E"
inline constexpr u8 kResumeCollector = 1;  ///< collector acks "delivered through seq S"

/// Resume handshake (version >= 4). A reconnecting probe sends
/// role=kResumeProbe with its session epoch and next fresh sequence; the
/// collector replies role=kResumeCollector carrying the highest sequence
/// it has delivered contiguously, so the probe retransmits only the gap.
/// The collector reply doubles as the steady-state ack that lets the
/// probe prune its replay buffer.
struct Resume {
  u8 role = kResumeProbe;
  u16 epoch = 0;
  u32 seq = 0;

  friend bool operator==(const Resume&, const Resume&) = default;
};

/// Sequence envelope (version >= 4): any v1-v3 data frame's payload,
/// prefixed with (epoch, seq) so the collector can deduplicate
/// retransmissions for exactly-once accounting. The envelope replaces the
/// inner frame's own framing (one magic/length/CRC for both layers), so
/// the wire cost is 7 bytes per frame. Envelopes never nest.
struct SequencedMsg {
  u16 epoch = 0;
  u32 seq = 0;
  u8 inner_type = 0;
  std::vector<u8> inner_payload;

  friend bool operator==(const SequencedMsg&, const SequencedMsg&) = default;
};

/// Emit-timestamp annotation (version >= 6): a data frame's payload,
/// prefixed with the probe's monotonic emit clock so the collector — which
/// already aligns per-probe clock origins — can compute ingest latency per
/// hop. Like SequencedMsg, the annotation replaces the inner frame's own
/// framing, so the wire cost is a flat 9 bytes per stamped frame; probes
/// stamp a sampled subset (every Nth frame) to keep the stream overhead
/// bounded. The stamp is always the *innermost* envelope: a SequencedMsg
/// may carry a StampedMsg, but a StampedMsg never carries an envelope.
struct StampedMsg {
  Cycles emit_timestamp = 0;
  u8 inner_type = 0;
  std::vector<u8> inner_payload;

  friend bool operator==(const StampedMsg&, const StampedMsg&) = default;
};

/// One row of a TaskTableMsg (version >= 5): binds a stream-local compact
/// task id to the task's OS identity and human-readable names. Sample rows
/// reference the id so the identity bytes ship once per task, not once per
/// tick — the same indirection numatop's /proc scraper keeps in memory.
struct TaskTableEntry {
  u32 task_id = 0;
  u32 pid = 0;
  u32 tid = 0;
  std::string process_name;
  std::string thread_name;

  friend bool operator==(const TaskTableEntry&, const TaskTableEntry&) = default;
};

/// Task registration frame (version >= 5). A probe announces each task
/// before (or, across a lossy resume, possibly after) the first sample row
/// that references it; collectors must tolerate either order.
struct TaskTableMsg {
  std::vector<TaskTableEntry> entries;

  friend bool operator==(const TaskTableMsg&, const TaskTableMsg&) = default;
};

/// One hot memory area of a task: `base` is the area base address (1 MiB
/// granularity) and `samples` the cumulative sampled-load count landing in
/// it. Snapshots, not deltas, like resident_bytes.
struct TaskAreaCounters {
  u64 base = 0;
  u64 samples = 0;

  friend bool operator==(const TaskAreaCounters&, const TaskAreaCounters&) = default;
};

/// Per-task counter deltas of one sampling period (version >= 5). `node`
/// is the NUMA node that executed most of the task's cycles this period —
/// the row the task sorts under in a numatop-style drill-down.
struct TaskSampleRow {
  u32 task_id = 0;
  u32 node = 0;
  u64 instructions = 0;
  u64 cycles = 0;
  u64 local_dram = 0;
  u64 remote_dram = 0;
  u64 remote_hitm = 0;
  u64 loads = 0;
  u64 latency_sum = 0;
  u64 latency_loads = 0;
  std::vector<TaskAreaCounters> areas;

  friend bool operator==(const TaskSampleRow&, const TaskSampleRow&) = default;
};

/// One timestamped per-task telemetry sample (version >= 5); the task-level
/// sibling of MonitorSampleMsg, sharing its timestamp domain.
struct TaskSampleMsg {
  Cycles timestamp = 0;
  std::vector<TaskSampleRow> rows;

  friend bool operator==(const TaskSampleMsg&, const TaskSampleMsg&) = default;
};

using Message = std::variant<Hello, ReadingMsg, End, MonitorSampleMsg, Heartbeat, Resume,
                             SequencedMsg, TaskTableMsg, TaskSampleMsg, StampedMsg>;

/// CRC-32 (IEEE 802.3 polynomial, reflected).
u32 crc32(const u8* data, usize length);

std::vector<u8> encode(const Message& message);

/// Wraps `inner` (which must not itself be a SequencedMsg) in a sequence
/// envelope for (epoch, seq).
SequencedMsg wrap_sequenced(u16 epoch, u32 seq, const Message& inner);

/// Decodes the envelope's inner message; nullopt if the inner payload is
/// malformed or of an unknown (future) type. The outer frame's CRC
/// already covered these bytes, so a nullopt here means a malformed
/// *sender*, not transport damage.
std::optional<Message> unwrap_sequenced(const SequencedMsg& envelope);

/// Annotates `inner` (a data frame — never an envelope) with the probe's
/// emit timestamp. The result may in turn be wrapped by wrap_sequenced():
/// the nesting order on the wire is Sequenced(Stamped(data)).
StampedMsg wrap_stamped(Cycles emit_timestamp, const Message& inner);

/// Decodes the annotated inner message; nullopt if the inner payload is
/// malformed or of an unknown (future) type — sender damage, not
/// transport damage, exactly as for unwrap_sequenced().
std::optional<Message> unwrap_stamped(const StampedMsg& stamped);

/// Incremental decoder. Feed bytes as they arrive; poll() yields complete
/// messages. Frames with bad CRCs or unknown types are dropped and counted;
/// decoding resumes at the next magic sequence. A CRC failure discards only
/// the magic bytes of the failed frame, not the (possibly corrupted) length
/// it advertised, so one damaged frame never swallows intact successors.
class Decoder {
 public:
  void feed(const std::vector<u8>& bytes);
  std::optional<Message> poll();

  /// Signals end of stream: a frame truncated by the transport can never
  /// complete, so poll() stops waiting for it and resynchronizes on
  /// whatever intact frames remain in the buffer.
  void finish() noexcept { finished_ = true; }

  usize dropped_frames() const noexcept { return dropped_; }
  usize resyncs() const noexcept { return resyncs_; }
  /// Incomplete frames flushed at end of stream (a subset of
  /// dropped_frames(): each truncation is also counted as a drop).
  usize truncated_flushes() const noexcept { return truncated_; }

 private:
  void discard(usize bytes);

  std::vector<u8> buffer_;
  usize dropped_ = 0;
  usize resyncs_ = 0;
  usize truncated_ = 0;
  bool finished_ = false;
};

}  // namespace npat::memhist::wire
