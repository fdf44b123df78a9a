// npat::fleet — multi-probe aggregation: one collector merges
// MonitorSampleMsg streams from several headless probes (one per host)
// into a fleet-wide per-node view, the way NUMAscope aggregates hardware
// metrics across a large ccNUMA system. Each connected probe channel gets
// its own wire::Decoder, so transport damage (dropped frames, resyncs,
// EOF truncations) is attributed per probe; probes identify themselves
// via the host id on the protocol-v3 Hello, and per-probe timestamps are
// aligned to a common origin so hosts with skewed clocks merge cleanly.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "introspect/health.hpp"
#include "memhist/wire.hpp"
#include "monitor/aggregate.hpp"
#include "monitor/sampler.hpp"
#include "monitor/task_sampler.hpp"
#include "proc/task.hpp"
#include "resilience/ledger.hpp"
#include "resilience/liveness.hpp"
#include "util/channel.hpp"
#include "util/types.hpp"

namespace npat::fleet {

/// Transport damage attributed to one probe's stream. The first three
/// counters mirror that probe's wire::Decoder tallies exactly;
/// `unexpected_frames` counts frames that decoded fine but carry a type
/// the fleet layer has no use for (e.g. memhist ThresholdReadings in a
/// telemetry stream) or a node count that contradicts the stream so far.
struct ProbeDamage {
  usize dropped_frames = 0;
  usize resyncs = 0;
  usize truncated_flushes = 0;
  usize unexpected_frames = 0;
  /// Per-task sample rows (v5) whose task id had no TaskTable registration
  /// when they arrived. Held — not dropped — and attributed retroactively
  /// if the registration shows up late; `orphans_attributed` counts the
  /// rescues. Neither joins total(): orphaning is an ordering hazard of a
  /// healthy transport, and keeping it out preserves the reconciliation
  /// identity total() == dropped + unexpected that v1-v4 tests pin.
  usize orphaned_task_rows = 0;
  usize orphans_attributed = 0;

  usize total() const noexcept {
    return dropped_frames + unexpected_frames;  // resyncs/truncations are subsets of drops
  }
  friend bool operator==(const ProbeDamage&, const ProbeDamage&) = default;
};

/// Everything the collector knows about one probe stream.
struct ProbeState {
  std::string host_id;  // v3 Hello, else the add_probe fallback
  u8 version = 0;       // from Hello, 0 until one arrives
  u32 node_count = 0;   // ditto
  bool hello_received = false;
  bool ended = false;          // End frame seen
  Cycles total_cycles = 0;     // from End
  /// Raw timestamp of the probe's first sample. Subtracted from every
  /// sample so unsynchronized probe clocks share origin 0.
  std::optional<Cycles> origin;
  std::vector<monitor::Sample> samples;  // aligned timestamps, stream order
  /// Per-task telemetry (protocol v5): merged TaskSample records with the
  /// same aligned timestamps, and the id -> identity registry accumulated
  /// from this probe's TaskTable frames.
  std::vector<monitor::TaskSample> task_samples;
  proc::TaskRegistry registry;
  ProbeDamage damage;

  /// Resilience accounting, re-published from this probe's DeliveryLedger
  /// and LivenessTracker each poll. All zero (and `supervised` false) for
  /// plain v1-v3 streams that never send sequence envelopes.
  bool supervised = false;
  u16 epoch = 0;            ///< probe incarnation the ledger is tracking
  u32 seq_floor = 0;        ///< highest contiguously delivered sequence
  u32 highest_seq = 0;      ///< highest sequence seen at all
  usize gap_backlog = 0;    ///< sequences delivered ahead of a gap
  u64 delivered_frames = 0; ///< sequenced frames delivered exactly once
  u64 duplicate_frames = 0; ///< retransmissions suppressed by the ledger
  u64 epoch_resets = 0;     ///< ledger resets by a newer epoch
  u64 heartbeats = 0;       ///< idle heartbeats received
  u64 hellos = 0;           ///< Hello frames received (re-handshakes included)
  u64 resumes = 0;          ///< probe-role Resume requests received
  u64 acks_sent = 0;        ///< Resume acks sent back to the probe
  usize reattaches = 0;     ///< channels swapped in by reattach_probe()
  resilience::Liveness liveness = resilience::Liveness::kLive;

  /// Pipeline self-observability (npat::introspect), republished each
  /// poll: hop latency from emit stamps, reorder dwell, stage depths,
  /// decode rate. Plain values so views never touch the obs registry.
  introspect::PipelineStats pipeline;
};

/// One host's row in the merged fleet view.
struct HostRow {
  std::string host_id;
  bool hello_received = false;
  bool ended = false;
  usize samples_total = 0;        // samples merged over the whole session
  monitor::WindowStats window;    // aggregation over the requested window
  monitor::TaskWindowStats tasks; // per-task aggregation over the same window
  ProbeDamage damage;
  bool supervised = false;        // probe speaks the v4 resilience protocol
  resilience::Liveness liveness = resilience::Liveness::kLive;
  u64 duplicates = 0;             // frames suppressed by (epoch, seq) dedup
};

/// Snapshot of the merged fleet: per-host rows plus the cross-host
/// aggregate. Rates for the aggregate divide by `span` (the longest host
/// window), which is the fleet's wall clock once origins are aligned.
struct FleetView {
  std::vector<HostRow> hosts;
  monitor::NodeStats total;  // summed over every host's window total
  Cycles span = 0;
  u64 samples = 0;  // sample records inside the window, all hosts

  usize hosts_ended() const noexcept;
  ProbeDamage damage_total() const noexcept;
  u64 duplicates_total() const noexcept;
};

/// Merges several probe streams. The public API is cooperative like the
/// memhist GuiCollector: call poll() whenever channel data may be
/// pending. Each probe runs one sequential pipeline per poll — drain,
/// decode, dedup by (epoch, seq), reorder, fold — in probe-index order.
/// The collector itself must be polled from one thread.
class FleetCollector {
 public:
  /// `liveness` sets the stale/dead thresholds and dwell applied to
  /// supervised probes (the defaults suit the simulated-cycle clock of
  /// the tests).
  explicit FleetCollector(resilience::LivenessConfig liveness = {}) : liveness_(liveness) {}

  /// Registers a probe channel; returns its index. `fallback_host_id`
  /// names the probe until (or unless) a v3 Hello carries its own id;
  /// empty means "probe<index>".
  usize add_probe(std::shared_ptr<util::ByteChannel> channel, std::string fallback_host_id = {});

  /// Swaps a fresh channel under an existing probe slot after the old
  /// connection died (the collector half of a supervised reconnect). The
  /// retiring decoder is drained and flushed first — a frame truncated by
  /// the disconnect is counted, not lost silently — and its damage tally
  /// is carried forward so per-probe accounting stays cumulative across
  /// any number of reconnects. Ledger, liveness and merged samples all
  /// survive: deduplication spans connections by design.
  void reattach_probe(usize index, std::shared_ptr<util::ByteChannel> channel);

  /// Drains every channel, decodes, and folds frames into the per-probe
  /// state. Returns the number of monitor samples merged by this call.
  /// `now` advances the collector clock that drives liveness (heartbeat
  /// gap) tracking for supervised probes; omitting it (legacy callers)
  /// leaves the clock parked and liveness permanently live.
  usize poll(Cycles now = 0);

  usize probe_count() const noexcept { return probes_.size(); }
  const ProbeState& probe(usize index) const;
  /// Samples merged across all probes since construction.
  usize samples_merged() const noexcept { return samples_merged_; }

  /// Per-host aggregation over each host's most recent `window_samples`
  /// samples (0 = the whole session) plus the cross-host totals. Task
  /// windows take the same number of most-recent TaskSample records.
  FleetView view(usize window_samples = 0) const;

  /// Per-probe rows for the --health pane / self-metrics surface: the
  /// republished PipelineStats joined with identity and damage.
  std::vector<introspect::HealthRow> health_rows() const;

  /// Orphaned v5 rows a probe may hold awaiting late registration; beyond
  /// this, the oldest are evicted (they stay counted in the damage ledger).
  static constexpr usize kMaxOrphanRows = 4096;

  /// Monotonic collector clock (the largest `now` ever passed to poll()).
  Cycles clock() const noexcept { return clock_; }

 private:
  /// One probe's pipeline: the channel and its decoder, the delivery
  /// ledger and reorder stage, then ProbeState, liveness, ack
  /// bookkeeping, metric handles, flight narration and the orphan pool.
  struct PerProbe {
    explicit PerProbe(std::shared_ptr<util::ByteChannel> channel_in)
        : channel(std::move(channel_in)) {}

    struct Pending {
      memhist::wire::Message message;
      Cycles decoded_at = 0;
    };

    std::shared_ptr<util::ByteChannel> channel;
    memhist::wire::Decoder decoder;
    ProbeDamage carried;  // framing tallies of decoders retired by reattach_probe()
    resilience::DeliveryLedger ledger;
    /// Reorder stage: sequenced frames admitted ahead of a gap wait here
    /// and fold only once every lower sequence has arrived, so the merged
    /// stream is the *sent* stream even when retransmissions fill gaps
    /// late. Drained in lockstep with the ledger floor; bounded by the
    /// probe's replay capacity (the gap can never be wider). `decoded_at`
    /// is the collector clock at decode, so delivery observes the frame's
    /// reorder-stage dwell.
    std::map<u32, Pending> pending;
    u32 folded_floor = 0;  // highest sequence already folded (in order)
    /// introspect: emit-clock alignment — the first stamped frame defines
    /// the offset, so the first observation is latency 0 by construction.
    std::optional<i64> stamp_offset;

    ProbeState state;
    resilience::LivenessTracker liveness;
    bool ack_due = false;   // a Resume handshake awaits its reply
    u16 resume_epoch = 0;   // epoch the pending handshake announced
    u16 acked_epoch = 0;    // last ack actually sent
    u32 acked_floor = 0;
    /// introspect: cached per-probe labeled metric handles (re-resolved —
    /// and the old host's series retired — if a late Hello renames the
    /// host), and the damage already narrated to the flight ring so each
    /// poll records only the delta.
    std::string metric_host;
    obs::Histogram* ingest_hist = nullptr;
    obs::Histogram* reorder_hist = nullptr;
    obs::Gauge* pending_gauge = nullptr;
    obs::Gauge* orphan_gauge = nullptr;
    obs::Gauge* rate_gauge = nullptr;
    ProbeDamage flight_reported;
    u64 flight_epoch_resets = 0;
    /// v5 sample rows whose task id had no registration on arrival; held
    /// (timestamp already aligned) until a TaskTable names the id, then
    /// attributed at the sorted timestamp position. Bounded by
    /// kMaxOrphanRows, oldest first out.
    struct OrphanRow {
      Cycles timestamp = 0;
      memhist::wire::TaskSampleRow row;
    };
    std::vector<OrphanRow> orphans;
  };

  /// Drains the channel (flushing a truncated frame once it closed) and
  /// processes what decoded. Returns the samples merged.
  usize collect(PerProbe& probe);
  /// Decode → dedup → reorder → fold for every frame the decoder holds.
  usize process(PerProbe& probe);
  /// Folds the contiguous run the ledger floor just certified.
  usize drain_in_order(PerProbe& probe);
  /// Folds everything the reorder stage holds (a new epoch took over).
  usize flush_pending(PerProbe& probe);
  usize fold_pending(PerProbe& probe, PerProbe::Pending& pending);
  /// Per-probe poll tail: ack, republish, liveness verdict + flight.
  void finish_poll(PerProbe& probe);
  usize fold(PerProbe& probe, const memhist::wire::Message& message);
  void fold_task_sample(PerProbe& probe, const memhist::wire::TaskSampleMsg& message);
  void attribute_orphans(PerProbe& probe);
  void maybe_ack(PerProbe& probe);
  void republish(PerProbe& probe);
  void ensure_metrics(PerProbe& probe);
  void retire_metrics(const std::string& host);
  void observe_ingest(PerProbe& probe, Cycles emit_timestamp);
  void observe_dwell(PerProbe& probe, Cycles dwell);
  void narrate_flight(PerProbe& probe);

  resilience::LivenessConfig liveness_;
  Cycles clock_ = 0;
  std::vector<std::unique_ptr<PerProbe>> probes_;
  usize samples_merged_ = 0;
};

}  // namespace npat::fleet
