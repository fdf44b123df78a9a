#include "memhist/remote.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace npat::memhist {

Probe::Probe(std::shared_ptr<util::ByteChannel> channel) : channel_(std::move(channel)) {
  NPAT_CHECK_MSG(channel_ != nullptr, "probe needs a channel");
}

void Probe::send_frame(const wire::Message& message, bool stampable) {
  // Sampled emit stamping (protocol v6): every Nth data frame carries the
  // probe clock so the collector can attribute per-hop latency. Control
  // frames (Hello) stay bare — they predate the handshake's clock origin.
  std::vector<u8> frame;
  if (stampable && stamp_interval_ > 0 && data_frames_++ % stamp_interval_ == 0) {
    ++stamped_frames_;
    frame = wire::encode(wire::Message{wire::wrap_stamped(clock_, message)});
  } else {
    frame = wire::encode(message);
  }
  // Only frames the channel accepted count as sent; a closed channel's
  // rejections are accounted separately so the probe's tally reconciles
  // with what could ever reach the collector.
  if (channel_->send(frame)) {
    ++frames_sent_;
  } else {
    ++send_failures_;
    NPAT_OBS_COUNT("npat_remote_send_failures_total",
                   "Probe frames rejected by a closed channel", 1);
  }
}

void Probe::send_hello(u32 node_count, const std::string& host_id) {
  send_frame(wire::Hello{wire::kProtocolVersion, node_count, host_id}, /*stampable=*/false);
}

void Probe::send_reading(const ThresholdReading& reading) {
  send_frame(wire::ReadingMsg{reading});
}

void Probe::send_readings(const std::vector<ThresholdReading>& readings) {
  for (const auto& reading : readings) send_reading(reading);
}

void Probe::send_sample(const wire::MonitorSampleMsg& sample) { send_frame(sample); }

void Probe::send_task_table(const wire::TaskTableMsg& table) { send_frame(table); }

void Probe::send_task_sample(const wire::TaskSampleMsg& sample) { send_frame(sample); }

void Probe::send_end(Cycles total_cycles) { send_frame(wire::End{total_cycles}); }

GuiCollector::GuiCollector(std::shared_ptr<util::ByteChannel> channel)
    : channel_(std::move(channel)) {
  NPAT_CHECK_MSG(channel_ != nullptr, "collector needs a channel");
}

void GuiCollector::poll() {
  for (;;) {
    const auto bytes = channel_->recv(4096);
    if (bytes.empty()) break;
    decoder_.feed(bytes);
  }
  // The channel is drained; if it is also closed, a partially received
  // frame can never complete. Signal end of stream so the decoder flushes
  // and counts the truncation instead of waiting forever (mirrors
  // fleet::FleetCollector).
  if (channel_->closed()) decoder_.finish();
  while (auto message = decoder_.poll()) {
    // Emit-stamp annotations (v6) are transparent to this collector: it
    // does not measure latency, so it unwraps and processes the inner
    // frame as if the stamp were never there.
    if (const auto* stamped = std::get_if<wire::StampedMsg>(&*message)) {
      std::optional<wire::Message> inner = wire::unwrap_stamped(*stamped);
      if (!inner.has_value()) {
        ++unexpected_frames_;
        NPAT_OBS_COUNT("npat_remote_unexpected_frames_total",
                       "Valid frames of a type the collector has no use for", 1);
        continue;
      }
      message = std::move(inner);
    }
    if (const auto* hello = std::get_if<wire::Hello>(&*message)) {
      hello_ = *hello;
    } else if (const auto* reading = std::get_if<wire::ReadingMsg>(&*message)) {
      // Accumulate by threshold: multiple sends for the same threshold are
      // merged, mirroring the probe-side accumulation semantics.
      bool merged = false;
      for (auto& existing : readings_) {
        if (existing.threshold == reading->reading.threshold) {
          existing.counted += reading->reading.counted;
          existing.window_cycles += reading->reading.window_cycles;
          existing.slices += reading->reading.slices;
          merged = true;
          break;
        }
      }
      if (!merged) readings_.push_back(reading->reading);
    } else if (const auto* end = std::get_if<wire::End>(&*message)) {
      total_cycles_ = end->total_cycles;
    } else {
      // Valid frame, wrong session kind (e.g. MonitorSampleMsg telemetry
      // in a histogram stream): useless here, but account for it so the
      // transport's loss tally stays complete.
      ++unexpected_frames_;
      NPAT_OBS_COUNT("npat_remote_unexpected_frames_total",
                     "Valid frames of a type the collector has no use for", 1);
    }
  }
}

LatencyHistogram GuiCollector::build(HistogramMode mode) const {
  NPAT_CHECK_MSG(ended(), "collector has not received the end-of-session frame");
  std::vector<ThresholdReading> sorted = readings_;
  std::sort(sorted.begin(), sorted.end(),
            [](const ThresholdReading& a, const ThresholdReading& b) {
              return a.threshold < b.threshold;
            });
  return MemhistBuilder::build(sorted, *total_cycles_, mode);
}

}  // namespace npat::memhist
