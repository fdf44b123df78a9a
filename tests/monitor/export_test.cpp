#include "monitor/export.hpp"

#include <gtest/gtest.h>

#include "util/strings.hpp"

namespace npat::monitor {
namespace {

namespace wire = memhist::wire;

/// Every frame a wire::Decoder yields from a (possibly damaged) stream, in
/// order, plus its drop count: the input FleetCollector folds.
struct Frames {
  std::vector<wire::Message> messages;
  usize dropped = 0;
};

Frames decode_all(const std::vector<u8>& bytes) {
  wire::Decoder decoder;
  decoder.feed(bytes);
  decoder.finish();
  Frames out;
  while (auto message = decoder.poll()) out.messages.push_back(std::move(*message));
  out.dropped = decoder.dropped_frames();
  return out;
}

/// The monitor samples among the frames, converted by monitor::from_wire.
std::vector<Sample> samples_of(const Frames& frames) {
  std::vector<Sample> out;
  for (const wire::Message& message : frames.messages) {
    if (const auto* sample = std::get_if<wire::MonitorSampleMsg>(&message)) {
      out.push_back(from_wire(*sample));
    }
  }
  return out;
}

Sample make_sample(Cycles timestamp, usize nodes) {
  Sample sample;
  sample.timestamp = timestamp;
  sample.footprint_bytes = 1234567;
  for (usize n = 0; n < nodes; ++n) {
    NodeSample node;
    node.instructions = 1000 + n;
    node.cycles = 2000 + n;
    node.local_dram = 30 + n;
    node.remote_dram = 7 + n;
    node.remote_hitm = n;
    node.imc_reads = 100 + n;
    node.imc_writes = 50 + n;
    node.qpi_flits = 9 * n;
    node.resident_bytes = 4096 * (n + 1);
    sample.nodes.push_back(node);
  }
  return sample;
}

TEST(Export, CsvOneRowPerSampleAndNode) {
  const std::vector<Sample> samples = {make_sample(100, 2), make_sample(200, 2)};
  const std::string csv = to_csv(samples);
  const auto lines = util::split(util::trim(csv), '\n');
  ASSERT_EQ(lines.size(), 1u + 4u);  // header + 2 samples × 2 nodes
  EXPECT_EQ(lines[0],
            "timestamp,footprint_bytes,node,instructions,cycles,local_dram,remote_dram,"
            "remote_hitm,imc_reads,imc_writes,qpi_flits,resident_bytes");
  EXPECT_EQ(lines[1], "100,1234567,0,1000,2000,30,7,0,100,50,0,4096");
  EXPECT_EQ(lines[4], "200,1234567,1,1001,2001,31,8,1,101,51,9,8192");
}

TEST(Export, JsonShapeAndValues) {
  const std::vector<Sample> samples = {make_sample(42, 2)};
  const util::Json doc = to_json(samples);
  const auto& list = doc.at("samples").as_array();
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list[0].get_number("timestamp"), 42.0);
  EXPECT_EQ(list[0].get_number("footprint_bytes"), 1234567.0);
  const auto& nodes = list[0].at("nodes").as_array();
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_EQ(nodes[1].get_number("remote_dram"), 8.0);
  EXPECT_EQ(nodes[1].get_number("resident_bytes"), 8192.0);

  // Serialization round-trips through the parser.
  const util::Json reparsed = util::Json::parse(doc.dump());
  EXPECT_EQ(reparsed, doc);
}

TEST(Export, WireRoundTripSingleSample) {
  const Sample original = make_sample(777, 4);
  const auto message = to_wire(original);
  memhist::wire::Decoder decoder;
  decoder.feed(memhist::wire::encode(message));
  const auto decoded = decoder.poll();
  ASSERT_TRUE(decoded.has_value());
  const auto* sample = std::get_if<memhist::wire::MonitorSampleMsg>(&*decoded);
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(from_wire(*sample), original);
}

TEST(Export, StreamRoundTrip) {
  std::vector<Sample> samples;
  for (Cycles t = 1; t <= 50; ++t) samples.push_back(make_sample(t * 1000, 2));

  const Frames frames = decode_all(encode_stream(samples));
  ASSERT_GE(frames.messages.size(), 2u);
  const auto* hello = std::get_if<wire::Hello>(&frames.messages.front());
  ASSERT_NE(hello, nullptr);
  EXPECT_EQ(hello->version, wire::kProtocolVersion);
  EXPECT_EQ(hello->node_count, 2u);
  const auto* end = std::get_if<wire::End>(&frames.messages.back());
  ASSERT_NE(end, nullptr);
  EXPECT_EQ(end->total_cycles, 50000u);
  EXPECT_EQ(frames.dropped, 0u);
  EXPECT_EQ(samples_of(frames), samples);
}

TEST(Export, EmptyStreamStillFrames) {
  const Frames frames = decode_all(encode_stream({}));
  ASSERT_EQ(frames.messages.size(), 2u);
  const auto* hello = std::get_if<wire::Hello>(&frames.messages.front());
  ASSERT_NE(hello, nullptr);
  EXPECT_EQ(hello->node_count, 0u);
  EXPECT_NE(std::get_if<wire::End>(&frames.messages.back()), nullptr);
}

TEST(Export, CorruptedStreamLosesOnlyDamagedSamples) {
  std::vector<Sample> samples;
  for (Cycles t = 1; t <= 20; ++t) samples.push_back(make_sample(t * 10, 2));
  auto bytes = encode_stream(samples);
  bytes[bytes.size() / 2] ^= 0xA5;  // one flipped byte mid-stream

  const Frames frames = decode_all(bytes);
  const std::vector<Sample> decoded = samples_of(frames);
  EXPECT_GE(decoded.size(), samples.size() - 1);
  EXPECT_LE(frames.dropped, 2u);
  // Every surviving sample is bit-exact — corruption can drop, not distort.
  for (const Sample& sample : decoded) {
    const usize index = static_cast<usize>(sample.timestamp / 10) - 1;
    ASSERT_LT(index, samples.size());
    EXPECT_EQ(sample, samples[index]);
  }
}

TEST(Export, TruncatedStreamRecoversPrefix) {
  std::vector<Sample> samples;
  for (Cycles t = 1; t <= 10; ++t) samples.push_back(make_sample(t, 1));
  auto bytes = encode_stream(samples);
  bytes.resize(bytes.size() - 25);  // lose the End frame and part of the last sample

  const Frames frames = decode_all(bytes);
  for (const wire::Message& message : frames.messages) {
    EXPECT_EQ(std::get_if<wire::End>(&message), nullptr);
  }
  EXPECT_GE(samples_of(frames).size(), 8u);
}

}  // namespace
}  // namespace npat::monitor
