#include "util/channel.hpp"

#include <mutex>

namespace npat::util {

namespace {

/// Shared duplex state: two directed byte queues. The mutex makes a
/// loopback pair safe to use from two threads (a probe and a collector
/// may run on different threads), as the socket it stands in for would
/// be. Single-threaded users pay one uncontended lock per call.
struct LoopbackState {
  std::mutex mutex;
  std::deque<u8> a_to_b;
  std::deque<u8> b_to_a;
  bool a_closed = false;
  bool b_closed = false;
};

class LoopbackEndpoint : public ByteChannel {
 public:
  LoopbackEndpoint(std::shared_ptr<LoopbackState> state, bool is_a)
      : state_(std::move(state)), is_a_(is_a) {}

  bool send(const std::vector<u8>& data) override {
    std::lock_guard lock(state_->mutex);
    if (my_closed() || peer_closed()) return false;
    auto& queue = is_a_ ? state_->a_to_b : state_->b_to_a;
    queue.insert(queue.end(), data.begin(), data.end());
    return true;
  }

  std::vector<u8> recv(usize max_bytes) override {
    std::lock_guard lock(state_->mutex);
    auto& queue = is_a_ ? state_->b_to_a : state_->a_to_b;
    const usize n = std::min(max_bytes, queue.size());
    std::vector<u8> out(queue.begin(), queue.begin() + static_cast<std::ptrdiff_t>(n));
    queue.erase(queue.begin(), queue.begin() + static_cast<std::ptrdiff_t>(n));
    return out;
  }

  void close() override {
    std::lock_guard lock(state_->mutex);
    (is_a_ ? state_->a_closed : state_->b_closed) = true;
  }

  // Either half-close ends the conversation: sends already fail when the
  // peer closed, and a reader whose peer closed will never see new data.
  bool closed() const override {
    std::lock_guard lock(state_->mutex);
    return my_closed() || peer_closed();
  }

 private:
  bool my_closed() const { return is_a_ ? state_->a_closed : state_->b_closed; }
  bool peer_closed() const { return is_a_ ? state_->b_closed : state_->a_closed; }

  std::shared_ptr<LoopbackState> state_;
  bool is_a_;
};

}  // namespace

ChannelPair make_loopback_pair() {
  auto state = std::make_shared<LoopbackState>();
  return ChannelPair{std::make_shared<LoopbackEndpoint>(state, true),
                     std::make_shared<LoopbackEndpoint>(state, false)};
}

bool FaultyChannel::send(const std::vector<u8>& data) {
  if (config_.drop_probability > 0.0 && rng_.chance(config_.drop_probability)) {
    ++dropped_;
    return true;  // silently lost in transit
  }
  std::vector<u8> payload = data;
  if (config_.truncate_to > 0 && payload.size() > config_.truncate_to) {
    payload.resize(config_.truncate_to);
    ++truncated_;
  }
  if (!payload.empty() && config_.corrupt_probability > 0.0 &&
      rng_.chance(config_.corrupt_probability)) {
    payload[rng_.below(payload.size())] ^= 0xFF;
    ++corrupted_;
  }
  return inner_->send(payload);
}

bool DisconnectingChannel::send(const std::vector<u8>& data) {
  if (closed()) return false;
  if (stalled_) {
    stall_queue_.push_back(data);
    ++stalled_sends_;
    return true;  // accepted; delivery is merely delayed
  }
  return forward(data);
}

usize DisconnectingChannel::release_stall() {
  stalled_ = false;
  usize flushed = 0;
  for (usize i = 0; i < stall_queue_.size(); ++i) {
    if (cut_) {
      // The cut fired mid-burst; everything behind it dies with the
      // connection. These frames were accepted earlier, so count them —
      // reconciliation must see the loss somewhere.
      stall_discards_ += stall_queue_.size() - i;
      break;
    }
    forward(stall_queue_[i]);
    ++flushed;
  }
  stall_queue_.clear();
  return flushed;
}

bool DisconnectingChannel::forward(const std::vector<u8>& data) {
  ++sends_seen_;
  if (config_.cut_after_sends > 0 && sends_seen_ >= config_.cut_after_sends && !cut_) {
    // The fatal send: a prefix escapes, then the connection is gone. The
    // send itself still reports success — like a write the kernel
    // accepted before the reset arrived — so the sender only learns of
    // the cut from closed() on its next pump.
    std::vector<u8> prefix = data;
    if (prefix.size() > config_.cut_delivery_bytes) prefix.resize(config_.cut_delivery_bytes);
    if (!prefix.empty()) inner_->send(prefix);
    cut_ = true;
    ++cut_frames_;
    inner_->close();
    return true;
  }
  return inner_->send(data);
}

}  // namespace npat::util
