// Placement advisor: closes the detect→act loop. The assessment half of
// the toolkit (per-phase attribution, per-task hot-area profiles, live
// remote-ratio alerts) says *that* a workload is remote-heavy; the advisor
// turns the counter signature into ranked candidate placements
// (AffinityPolicy × PagePolicy × bind node, plus page-migration hints for
// the hottest 1 MiB areas), then *replays* the unmodified workload under
// the advised placement — os::AddressSpace policy override + os::affinity
// pinning through evsel — and reports "before X cycles, after Y cycles"
// with per-event deltas. Per Röhl et al. (event validation), a predicted
// improvement is only trustworthy once re-measured against ground truth;
// every replay therefore carries both its predicted and measured speedup.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "evsel/collector.hpp"
#include "evsel/compare.hpp"
#include "evsel/measurement.hpp"
#include "os/affinity.hpp"
#include "os/vm.hpp"
#include "phasen/detector.hpp"
#include "sim/machine.hpp"
#include "validate/trust.hpp"

namespace npat::advisor {

/// One candidate thread+page placement — what taskset + numactl would pin.
struct Placement {
  os::AffinityPolicy affinity = os::AffinityPolicy::kCompact;
  /// nullopt = leave the workload's own allocation policies alone.
  std::optional<os::PagePolicy> page_policy;
  sim::NodeId bind_node = 0;  // only meaningful for kBind

  /// "scatter+first-touch", "compact+bind(2)", "scatter+as-is".
  std::string name() const;

  friend bool operator==(const Placement&, const Placement&) = default;
};

/// Counter signature of the profiled compute phase — the evidence every
/// recommendation cites (the paper's §II indicator set).
struct CounterSignature {
  u64 cycles = 0;            // compute-phase cycles (summed over cores)
  u64 stall_cycles_mem = 0;  // memory stall cycles in the phase
  u64 numa_loads = 0;        // DRAM + remote-HITM loads in the phase
  /// (remote DRAM + HITM) / numa_loads; when the load-uop DRAM events are
  /// silent (cache-resident working set whose misses are store/RFO cold
  /// misses) this is estimated from the uncore instead: QPI flits per
  /// average hop over total IMC reads+writes.
  double remote_ratio = 0.0;
  double stall_fraction = 0.0;      // stall_cycles_mem / cycles
  double qpi_flits_per_kinstr = 0.0;
  /// Largest per-node share of executed cycles (1/nodes = balanced).
  double node_cycle_imbalance = 0.0;
  /// Fraction of sampled loads landing in 1 MiB areas where no single task
  /// owns a majority of the samples — decides whether first-touch (private
  /// data) or a thread/data co-location fix (shared data) is the better
  /// move. Majority ownership keeps per-thread arrays that merely straddle
  /// an area boundary out of the shared bucket.
  double shared_fraction = 0.0;
  /// Resident-page share per node at the end of the profile run (numastat
  /// style) — the scoring model's picture of where the workload's own
  /// allocation policy put the data.
  std::vector<double> page_share;
  /// True when remote_ratio came from the uncore estimate rather than the
  /// load-uop DRAM breakdown — either because the primary events were
  /// silent, or because the trust harness rated them below bounded.
  bool remote_ratio_from_uncore = false;
  /// Events the trust harness rated suspect or refuted that this signature
  /// would normally rely on, with their tier ("mem_load_remote_dram
  /// (refuted)"). Non-empty means the recommendation runs on degraded
  /// inputs and the report says so.
  std::vector<std::string> degraded_inputs;
};

/// Page-migration hint: move one hot 1 MiB area next to its dominant task
/// (the move_pages(2) the recommendation would issue on a live system).
struct MigrationHint {
  u32 pid = 0;
  u32 tid = 0;
  std::string task;        // "process/thread" from the proc registry
  u64 area_base = 0;       // 1 MiB aligned virtual base
  u64 samples = 0;         // sampled loads attributed to the area
  sim::NodeId target = 0;  // the task's dominant execution node
};

/// One scored candidate, ranked by predicted cycles.
struct Candidate {
  Placement placement;
  double predicted_remote_ratio = 0.0;
  double predicted_cycles = 0.0;
  double predicted_speedup = 1.0;  // baseline cycles / predicted cycles
  std::string rationale;           // counter-signature justification
};

/// One replayed (re-measured) candidate.
struct Replay {
  Placement placement;
  evsel::Measurement measurement;
  double cycles = 0.0;
  double measured_speedup = 1.0;   // before cycles / measured cycles
  double predicted_speedup = 1.0;  // the Röhl-style validation column
};

struct Recommendation {
  CounterSignature signature;
  phasen::PhaseSplit phases;
  usize compute_phase = 0;            // index of the phase the signature covers
  std::vector<std::string> alerts;    // committed remote-ratio transitions
  std::vector<MigrationHint> hints;   // hottest areas first
  std::vector<Candidate> ranked;      // best predicted first
  Placement baseline;
  evsel::Measurement before;          // measured under `baseline`
  double before_cycles = 0.0;
  std::vector<Replay> replays;        // measured candidates, ranked order
  usize best_replay = 0;              // argmin measured cycles
  evsel::Comparison delta;            // before vs. best replay, per event

  const Replay& best() const { return replays.at(best_replay); }
  double measured_speedup() const { return best().measured_speedup; }
  /// True when no replay beat the baseline — keep the current placement.
  bool keep_current() const { return replays.empty() || measured_speedup() <= 1.0; }
};

struct AdvisorOptions {
  /// Placement the profile run (the "before") executes under.
  Placement baseline;
  /// Repetitions per measured configuration (before + each replayed
  /// candidate); >= 2 keeps the per-event t-tests alive.
  u32 replay_repetitions = 3;
  /// Candidates re-measured, best predicted first. The rest stay
  /// prediction-only in `ranked`.
  usize replay_top_k = 3;
  /// Profile sampler period in simulated cycles (footprint, counters,
  /// per-node and per-task telemetry all share it).
  Cycles sample_period = 20000;
  u64 seed = 2017;
  /// Events measured before/after; empty = the advisor's NUMA indicator set.
  std::vector<sim::Event> events;
  /// Remote-ratio alert thresholds evaluated over the profile windows.
  double warn_remote_ratio = 0.20;
  double bad_remote_ratio = 0.50;
  /// Migration hints emitted per task.
  usize max_hints_per_task = 2;
  /// Trust report consulted before reading the signature's primary events;
  /// nullptr falls back to validate::active_trust_report() (no validation
  /// run = every event trusted, the pre-harness behavior).
  const validate::TrustReport* trust = nullptr;
};

/// The advisor's default before/after event set (the paper's indicators).
std::vector<sim::Event> default_events();

/// Scores every candidate placement from the signature alone — no runs.
/// Exposed for tests and the report's predicted-vs-measured validation.
/// `threads` is the profiled thread count; `remote_penalty` the modeled
/// remote/local latency ratio (Advisor derives it from the machine config).
std::vector<Candidate> score_candidates(const CounterSignature& signature,
                                        const sim::Topology& topology, u32 threads,
                                        const Placement& baseline, double remote_penalty);

class Advisor {
 public:
  explicit Advisor(sim::MachineConfig config);

  /// Full detect→recommend→apply→re-measure loop on `factory`'s program.
  Recommendation advise(const evsel::ProgramFactory& factory,
                        const AdvisorOptions& options = {});

  /// Remote/local latency ratio of the configured machine (one average-hop
  /// remote access vs. a local one) — the scoring model's penalty term.
  double remote_penalty() const;

 private:
  sim::MachineConfig config_;
};

}  // namespace npat::advisor
