// SupervisedProbe: the resilient evolution of memhist::Probe. Every data
// frame is stamped with (epoch, seq) and kept in a bounded replay buffer
// until the collector acknowledges it; when the channel dies the probe
// redials through exponential backoff with jitter, replays the Resume
// handshake (Hello + Resume{probe, epoch, next_seq}), and — once the
// collector answers with the sequence it delivered contiguously —
// retransmits only the frames the collector never saw. Explicit
// Heartbeats flow only while the probe is otherwise idle: data frames
// themselves prove liveness, which keeps the steady-state wire overhead
// to the 7-byte sequence envelope.
//
// The probe is cooperative and clockless like the rest of the transport:
// callers thread a monotonically non-decreasing `now` (simulated cycles)
// through pump()/send_*(), and backoff, heartbeat and resume deadlines
// are measured on that clock.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "memhist/builder.hpp"
#include "memhist/wire.hpp"
#include "obs/metrics.hpp"
#include "util/channel.hpp"
#include "util/random.hpp"
#include "util/types.hpp"

namespace npat::resilience {

namespace wire = memhist::wire;

/// Produces a fresh connected channel to the collector (like dialing a
/// TCP socket), or nullptr when the connection attempt fails.
using DialFn = std::function<std::shared_ptr<util::ByteChannel>()>;

enum class LinkState : u8 {
  kConnected,       ///< resume handshake complete; frames flow
  kAwaitingResume,  ///< dialed and hello sent; waiting for the collector's floor
  kBackoff,         ///< link down; next dial attempt scheduled
};

struct BackoffConfig {
  Cycles initial = 2000;    ///< delay before the first retry
  Cycles max = 256000;      ///< exponential growth is capped here
  double multiplier = 2.0;  ///< growth per consecutive failure
  /// Jitter fraction: each delay is drawn uniformly from
  /// [delay * (1 - jitter), delay] so a fleet of probes that died
  /// together does not redial in lockstep.
  double jitter = 0.5;
};

struct SupervisedProbeConfig {
  std::string host_id;
  u32 node_count = 0;
  /// Names this probe incarnation; a restarted probe must pick a higher
  /// epoch so the collector's ledger does not swallow its fresh sequences.
  u16 epoch = 1;
  /// Unacked frames retained for retransmission; overflow evicts the
  /// oldest (counted — bounded memory beats silent unbounded growth).
  usize replay_capacity = 1024;
  /// Idle gap (no accepted send) after which a Heartbeat is emitted.
  Cycles heartbeat_interval = 100000;
  /// How long to wait for the collector's Resume reply before tearing the
  /// connection down and redialing.
  Cycles resume_timeout = 200000;
  BackoffConfig backoff;
  u64 seed = 42;
  /// Every `stamp_interval`-th data frame carries an emit-timestamp
  /// annotation (StampedMsg, protocol v6) so the collector can attribute
  /// per-hop pipeline latency; 0 disables stamping. Sampling — not every
  /// frame — keeps the wire cost bounded: at the default 4, the 9-byte
  /// annotation adds ~1.3% to a two-node dual-preset telemetry stream
  /// (gated <= 2% by bench/ablation_introspect_overhead).
  usize stamp_interval = 4;
};

class SupervisedProbe {
 public:
  SupervisedProbe(SupervisedProbeConfig config, DialFn dial);

  /// Drives the state machine: detects a dead channel, redials when the
  /// backoff expires, drains collector acks (pruning the replay buffer
  /// and completing the resume handshake), and emits idle heartbeats.
  void pump(Cycles now);

  /// Data senders: stamp, buffer, and transmit when connected. While the
  /// link is down (or resuming) frames are buffered and flow after the
  /// handshake, in sequence order.
  void send_sample(const wire::MonitorSampleMsg& sample, Cycles now);
  void send_task_table(const wire::TaskTableMsg& table, Cycles now);
  void send_task_sample(const wire::TaskSampleMsg& sample, Cycles now);
  void send_end(Cycles total_cycles, Cycles now);

  LinkState link() const noexcept { return state_; }
  u16 epoch() const noexcept { return config_.epoch; }
  /// Highest sequence assigned so far (sequences start at 1).
  u32 last_seq() const noexcept { return last_seq_; }
  /// Highest contiguous sequence the collector has acknowledged.
  u32 acked_floor() const noexcept { return acked_floor_; }
  /// True once every assigned sequence has been acknowledged.
  bool fully_acked() const noexcept { return acked_floor_ >= last_seq_; }
  usize replay_depth() const noexcept { return replay_.size(); }

  /// Sequenced data frames the channel accepted, retransmissions included.
  usize data_transmissions() const noexcept { return data_transmissions_; }
  /// Hello/Resume/Heartbeat frames the channel accepted.
  usize control_transmissions() const noexcept { return control_transmissions_; }
  usize retransmissions() const noexcept { return retransmissions_; }
  usize heartbeats_sent() const noexcept { return heartbeats_sent_; }
  /// Sends rejected by a dead channel (these bytes never hit the wire).
  usize send_failures() const noexcept { return send_failures_; }
  usize dial_attempts() const noexcept { return dial_attempts_; }
  usize dial_failures() const noexcept { return dial_failures_; }
  /// Successful resume handshakes after the first connection.
  usize reconnects() const noexcept { return reconnects_; }
  /// Unacked frames evicted by a full replay buffer (permanent loss).
  usize evictions() const noexcept { return evictions_; }
  usize acks_received() const noexcept { return acks_received_; }
  /// Data frames that carried an emit-timestamp annotation.
  usize stamped_frames() const noexcept { return stamped_frames_; }

 private:
  struct Buffered {
    u32 seq = 0;
    std::vector<u8> frame;  // fully encoded sequence-envelope frame
  };

  void dial(Cycles now);
  void lose_link(Cycles now);
  void schedule_backoff(Cycles now);
  Cycles backoff_delay();
  void drain_acks(Cycles now);
  void complete_resume(Cycles now);
  void prune_acked();
  void enqueue_and_send(const wire::Message& inner, Cycles now);
  bool wire_send(const std::vector<u8>& frame, bool data, Cycles now);
  void publish_replay_depth();

  SupervisedProbeConfig config_;
  DialFn dial_;
  util::Xoshiro256ss rng_;

  std::shared_ptr<util::ByteChannel> channel_;
  wire::Decoder ack_decoder_;
  LinkState state_ = LinkState::kBackoff;
  Cycles next_attempt_ = 0;  // first pump() dials immediately
  Cycles resume_deadline_ = 0;
  Cycles last_wire_activity_ = 0;
  usize failure_streak_ = 0;
  bool connected_once_ = false;

  u32 last_seq_ = 0;
  u32 acked_floor_ = 0;
  std::deque<Buffered> replay_;

  usize data_transmissions_ = 0;
  usize control_transmissions_ = 0;
  usize retransmissions_ = 0;
  usize heartbeats_sent_ = 0;
  usize send_failures_ = 0;
  usize dial_attempts_ = 0;
  usize dial_failures_ = 0;
  usize reconnects_ = 0;
  usize evictions_ = 0;
  usize acks_received_ = 0;
  usize stamped_frames_ = 0;
  obs::Gauge* replay_gauge_ = nullptr;  // npat_introspect_replay_depth{host=…}
};

}  // namespace npat::resilience
