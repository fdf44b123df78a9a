#include "resilience/probe.hpp"

#include <algorithm>
#include <utility>

#include "introspect/flight.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"

namespace npat::resilience {

namespace {

constexpr usize kRecvChunk = 4096;

}  // namespace

SupervisedProbe::SupervisedProbe(SupervisedProbeConfig config, DialFn dial)
    : config_(std::move(config)), dial_(std::move(dial)), rng_(config_.seed) {
  NPAT_CHECK_MSG(dial_ != nullptr, "SupervisedProbe needs a dial function");
  NPAT_CHECK_MSG(config_.replay_capacity > 0, "replay capacity must be positive");
  NPAT_CHECK_MSG(config_.backoff.multiplier >= 1.0, "backoff must not shrink");
  NPAT_CHECK_MSG(config_.backoff.jitter >= 0.0 && config_.backoff.jitter <= 1.0,
                 "jitter is a fraction of the delay");
}

void SupervisedProbe::pump(Cycles now) {
  // A channel that died since the last pump (peer closed, injector cut the
  // stream) is only discovered here; tear it down before anything else.
  if (state_ != LinkState::kBackoff && (!channel_ || channel_->closed())) {
    lose_link(now);
  }
  if (state_ == LinkState::kBackoff && now >= next_attempt_) {
    dial(now);
  }
  if (state_ != LinkState::kBackoff) {
    drain_acks(now);
  }
  if (state_ == LinkState::kAwaitingResume && now >= resume_deadline_) {
    // The collector never answered the handshake; assume the dial landed on
    // a dead socket and go around again.
    lose_link(now);
  }
  if (state_ == LinkState::kConnected &&
      now - last_wire_activity_ >= config_.heartbeat_interval) {
    wire::Heartbeat beat;
    beat.epoch = config_.epoch;
    beat.seq = last_seq_;
    beat.timestamp = now;
    if (wire_send(wire::encode(wire::Message{beat}), /*data=*/false, now)) {
      ++heartbeats_sent_;
      NPAT_OBS_COUNT("npat_resilience_heartbeats_sent_total",
                     "Idle heartbeats emitted by supervised probes", 1);
    } else {
      lose_link(now);
    }
  }
}

void SupervisedProbe::send_sample(const wire::MonitorSampleMsg& sample, Cycles now) {
  enqueue_and_send(wire::Message{sample}, now);
}

void SupervisedProbe::send_task_table(const wire::TaskTableMsg& table, Cycles now) {
  enqueue_and_send(wire::Message{table}, now);
}

void SupervisedProbe::send_task_sample(const wire::TaskSampleMsg& sample, Cycles now) {
  enqueue_and_send(wire::Message{sample}, now);
}

void SupervisedProbe::send_end(Cycles total_cycles, Cycles now) {
  enqueue_and_send(wire::Message{wire::End{total_cycles}}, now);
}

void SupervisedProbe::enqueue_and_send(const wire::Message& inner, Cycles now) {
  const u32 seq = ++last_seq_;
  // Sampled emit stamping: every Nth data frame is annotated with the
  // probe's send clock before the sequence envelope goes on (nesting
  // Sequenced(Stamped(data))), so the collector can measure per-hop
  // latency without paying 9 bytes on every frame. The stamp rides the
  // replay buffer too: a retransmission keeps its original emit time, so
  // the measured latency honestly includes the outage.
  std::vector<u8> frame;
  if (config_.stamp_interval > 0 && (seq - 1) % config_.stamp_interval == 0) {
    ++stamped_frames_;
    frame = wire::encode(wire::Message{
        wire::wrap_sequenced(config_.epoch, seq, wire::Message{wire::wrap_stamped(now, inner)})});
  } else {
    frame = wire::encode(wire::Message{wire::wrap_sequenced(config_.epoch, seq, inner)});
  }
  if (replay_.size() >= config_.replay_capacity) {
    // The oldest unacked frame is gone for good; the collector's ledger
    // will report the hole. Bounded memory beats silent unbounded growth.
    replay_.pop_front();
    ++evictions_;
    NPAT_OBS_COUNT("npat_resilience_replay_evictions_total",
                   "Unacked frames evicted from full replay buffers", 1);
    introspect::flight().record(introspect::FlightKind::kReplayEviction, now, config_.host_id,
                                "unacked frame evicted from a full replay buffer");
  }
  replay_.push_back(Buffered{seq, frame});
  publish_replay_depth();
  // While resuming, fresh frames stay buffered: retransmissions of the gap
  // must hit the wire first so the collector's floor advances in order.
  if (state_ == LinkState::kConnected) {
    if (!wire_send(frame, /*data=*/true, now)) lose_link(now);
  }
}

void SupervisedProbe::dial(Cycles now) {
  ++dial_attempts_;
  NPAT_OBS_COUNT("npat_resilience_dial_attempts_total",
                 "Connection attempts by supervised probes", 1);
  std::shared_ptr<util::ByteChannel> fresh = dial_ ? dial_() : nullptr;
  if (!fresh || fresh->closed()) {
    ++dial_failures_;
    NPAT_OBS_COUNT("npat_resilience_dial_failures_total",
                   "Connection attempts that failed outright", 1);
    schedule_backoff(now);
    return;
  }
  channel_ = std::move(fresh);
  ack_decoder_ = wire::Decoder{};  // acks are framed per connection
  wire::Hello hello;
  hello.node_count = config_.node_count;
  hello.host_id = config_.host_id;
  wire::Resume resume;
  resume.role = wire::kResumeProbe;
  resume.epoch = config_.epoch;
  resume.seq = last_seq_ + 1;  // next fresh sequence this probe will assign
  if (!wire_send(wire::encode(wire::Message{hello}), /*data=*/false, now) ||
      !wire_send(wire::encode(wire::Message{resume}), /*data=*/false, now)) {
    lose_link(now);
    return;
  }
  state_ = LinkState::kAwaitingResume;
  resume_deadline_ = now + config_.resume_timeout;
  introspect::flight().record(
      introspect::FlightKind::kDial, now, config_.host_id,
      util::format("epoch=%u next_seq=%u", static_cast<unsigned>(config_.epoch),
                   static_cast<unsigned>(last_seq_ + 1)));
  NPAT_OBS_INSTANT("resilience.dial",
                   util::format("host=%s epoch=%u next_seq=%u", config_.host_id.c_str(),
                                static_cast<unsigned>(config_.epoch),
                                static_cast<unsigned>(last_seq_ + 1)));
}

void SupervisedProbe::drain_acks(Cycles now) {
  if (!channel_) return;
  for (;;) {
    std::vector<u8> bytes = channel_->recv(kRecvChunk);
    if (bytes.empty()) break;
    ack_decoder_.feed(bytes);
  }
  while (std::optional<wire::Message> message = ack_decoder_.poll()) {
    const wire::Resume* ack = std::get_if<wire::Resume>(&*message);
    if (ack == nullptr || ack->role != wire::kResumeCollector) continue;
    if (ack->epoch != config_.epoch) continue;  // stale incarnation's ack
    ++acks_received_;
    if (ack->seq > acked_floor_) acked_floor_ = ack->seq;
    prune_acked();
    if (state_ == LinkState::kAwaitingResume) complete_resume(now);
  }
}

void SupervisedProbe::complete_resume(Cycles now) {
  // The collector told us its contiguous floor; everything above it that we
  // still hold goes back on the wire, oldest first, followed (implicitly,
  // in the buffer order) by frames queued while the link was down.
  for (const Buffered& entry : replay_) {
    if (entry.seq <= acked_floor_) continue;
    if (!wire_send(entry.frame, /*data=*/true, now)) {
      lose_link(now);
      return;
    }
    ++retransmissions_;
    NPAT_OBS_COUNT("npat_resilience_retransmissions_total",
                   "Replay-buffer frames retransmitted after a resume", 1);
  }
  state_ = LinkState::kConnected;
  failure_streak_ = 0;
  if (connected_once_) {
    ++reconnects_;
    NPAT_OBS_COUNT("npat_resilience_reconnects_total",
                   "Resume handshakes completed after a link loss", 1);
    introspect::flight().record(
        introspect::FlightKind::kReconnect, now, config_.host_id,
        util::format("floor=%u replayed=%zu", static_cast<unsigned>(acked_floor_),
                     replay_.size()));
  }
  connected_once_ = true;
  NPAT_OBS_INSTANT("resilience.resume",
                   util::format("host=%s floor=%u replayed=%zu", config_.host_id.c_str(),
                                static_cast<unsigned>(acked_floor_), replay_.size()));
}

void SupervisedProbe::prune_acked() {
  while (!replay_.empty() && replay_.front().seq <= acked_floor_) {
    replay_.pop_front();
  }
  publish_replay_depth();
}

void SupervisedProbe::publish_replay_depth() {
  if (!obs::enabled()) return;
  if (replay_gauge_ == nullptr) {
    replay_gauge_ = &obs::metrics().gauge(
        obs::labeled_name("npat_introspect_replay_depth", {{"host", config_.host_id}}),
        "Unacked frames held in a supervised probe's replay buffer");
  }
  replay_gauge_->set(static_cast<double>(replay_.size()));
}

void SupervisedProbe::lose_link(Cycles now) {
  if (channel_) channel_.reset();
  schedule_backoff(now);
}

void SupervisedProbe::schedule_backoff(Cycles now) {
  state_ = LinkState::kBackoff;
  next_attempt_ = now + backoff_delay();
  if (failure_streak_ < 32) ++failure_streak_;
  NPAT_OBS_COUNT("npat_resilience_backoffs_total",
                 "Link losses that scheduled a backoff delay", 1);
}

Cycles SupervisedProbe::backoff_delay() {
  double delay = static_cast<double>(config_.backoff.initial);
  for (usize i = 0; i + 1 < failure_streak_; ++i) {
    delay *= config_.backoff.multiplier;
    if (delay >= static_cast<double>(config_.backoff.max)) break;
  }
  delay = std::min(delay, static_cast<double>(config_.backoff.max));
  delay *= 1.0 - config_.backoff.jitter * rng_.uniform();
  return std::max<Cycles>(1, static_cast<Cycles>(delay));
}

bool SupervisedProbe::wire_send(const std::vector<u8>& frame, bool data, Cycles now) {
  const bool ok = channel_ != nullptr && channel_->send(frame);
  if (ok) {
    if (data) {
      ++data_transmissions_;
    } else {
      ++control_transmissions_;
    }
    last_wire_activity_ = now;
  } else {
    ++send_failures_;
  }
  return ok;
}

}  // namespace npat::resilience
