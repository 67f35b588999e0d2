// Wire frame serialization: golden byte layouts, the 64-byte header pin,
// encode/decode round-trips for every frame type and message kind, a
// fuzz-style table of hostile/truncated buffers the decoder must reject,
// and the WorkerLedger StatsReply payload round-trip.
#include <gtest/gtest.h>

#include <array>
#include <cstring>

#include "wire/frame.hpp"
#include "wire/ledger.hpp"

namespace lotec::wire {
namespace {

[[nodiscard]] std::uint64_t read_le(std::span<const std::byte> buf,
                                    std::size_t offset, std::size_t width) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < width; ++i)
    v |= static_cast<std::uint64_t>(std::to_integer<std::uint8_t>(
             buf[offset + i]))
         << (8 * i);
  return v;
}

TEST(WireFrameTest, HeaderIsExactlyTheModeledSixtyFourBytes) {
  // The analytic cost model has charged a fixed 64-byte header since the
  // seed; the wire realizes it.  If either constant moves, every accounted
  // byte across the two transports diverges.
  EXPECT_EQ(kFrameSize, 64u);
  EXPECT_EQ(kFrameSize, wire::kHeaderBytes);
  EXPECT_EQ(encode_frame(Frame{}).size(), 64u);
}

TEST(WireFrameTest, GoldenByteLayout) {
  Frame f;
  f.type = FrameType::kData;
  f.kind = MessageKind::kPageFetchReply;  // enum index 7
  f.flags = 0;
  f.src = 2;
  f.dst = 5;
  f.object = 0x0123456789ABCDEFull;
  f.payload_bytes = 4096;
  f.correlation = 42;
  f.trace = TraceContext{0x1111, 0x2222, 7};

  const std::array<std::byte, kFrameSize> buf = encode_frame(f);
  const std::uint8_t expected[kFrameSize] = {
      0x43, 0x54, 0x4F, 0x4C,                          // magic "LOTC" (LE)
      0x01,                                            // version
      0x01,                                            // type = kData
      0x07,                                            // kind = kPageFetchReply
      0x00,                                            // flags
      0x02, 0x00, 0x00, 0x00,                          // src = 2
      0x05, 0x00, 0x00, 0x00,                          // dst = 5
      0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01,  // object
      0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // payload = 4096
      0x2A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // correlation = 42
      0x11, 0x11, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // trace id
      0x22, 0x22, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // parent span
      0x07,                                            // trace phase
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,        // reserved
  };
  for (std::size_t i = 0; i < kFrameSize; ++i)
    EXPECT_EQ(std::to_integer<std::uint8_t>(buf[i]), expected[i])
        << "at offset " << i;
}

TEST(WireFrameTest, GoldenOffsetsForEveryMessageKind) {
  // The per-kind golden check: for every kind a Data frame built from an
  // accounted WireMessage places that kind (and only that kind) at offset 6,
  // with the message fields at their pinned offsets.
  for (std::size_t k = 0; k < static_cast<std::size_t>(MessageKind::kNumKinds);
       ++k) {
    const auto kind = static_cast<MessageKind>(k);
    const WireMessage m{kind, NodeId(1), NodeId(3), ObjectId(9), 17 + k};
    m.trace = TraceContext{100 + k, 200 + k,
                           static_cast<std::uint8_t>(k % 13)};
    const Frame f = data_frame(m, /*correlation=*/1000 + k);
    const std::array<std::byte, kFrameSize> buf = encode_frame(f);

    EXPECT_EQ(read_le(buf, 0, 4), kMagic) << "kind " << k;
    EXPECT_EQ(read_le(buf, 4, 1), kWireVersion);
    EXPECT_EQ(read_le(buf, 5, 1),
              static_cast<std::uint64_t>(FrameType::kData));
    EXPECT_EQ(read_le(buf, 6, 1), k);
    EXPECT_EQ(read_le(buf, 8, 4), 1u);
    EXPECT_EQ(read_le(buf, 12, 4), 3u);
    EXPECT_EQ(read_le(buf, 16, 8), 9u);
    EXPECT_EQ(read_le(buf, 24, 8), 17u + k);
    EXPECT_EQ(read_le(buf, 32, 8), 1000u + k);
    EXPECT_EQ(read_le(buf, 40, 8), 100u + k);
    EXPECT_EQ(read_le(buf, 48, 8), 200u + k);
    EXPECT_EQ(read_le(buf, 56, 1), k % 13);
    for (std::size_t i = 57; i < kFrameSize; ++i)
      EXPECT_EQ(std::to_integer<std::uint8_t>(buf[i]), 0u);

    const Frame back = decode_frame(buf);
    EXPECT_EQ(back, f) << "round-trip for kind " << k;
  }
}

TEST(WireFrameTest, RoundTripsEveryFrameType) {
  for (std::uint8_t t = 1; t <= 8; ++t) {
    Frame f;
    f.type = static_cast<FrameType>(t);
    f.flags = static_cast<std::uint8_t>(NackReason::kTimeout);
    f.src = kCoordinatorNode;
    f.dst = 0;
    f.correlation = 7;
    const Frame back = decode_frame(encode_frame(f));
    EXPECT_EQ(back, f) << "frame type " << int(t);
  }
}

TEST(WireFrameTest, RejectsEveryTruncation) {
  const std::array<std::byte, kFrameSize> buf = encode_frame(Frame{});
  for (std::size_t len = 0; len < kFrameSize; ++len)
    EXPECT_THROW((void)decode_frame(std::span(buf.data(), len)),
                 WireProtocolError)
        << "accepted a " << len << "-byte header";
}

TEST(WireFrameTest, HostileMutationTable) {
  // Fuzz-style table: one valid frame, one byte patched per row; every
  // mutation must be rejected, never folded into a plausible frame.
  struct Mutation {
    const char* label;
    std::size_t offset;
    std::uint8_t value;
  };
  const Mutation mutations[] = {
      {"bad magic byte 0", 0, 0x00},
      {"bad magic byte 3", 3, 0xFF},
      {"unknown version", 4, 99},
      {"frame type zero", 5, 0},
      {"frame type out of range", 5, 11},  // one past kStatsScrapeReply
      {"frame type hostile", 5, 0xFF},
      {"message kind out of range", 6,
       static_cast<std::uint8_t>(MessageKind::kNumKinds)},
      {"message kind hostile", 6, 0xEE},
      {"reserved byte 57 set", 57, 1},
      {"reserved byte 63 set", 63, 0x80},
  };
  Frame valid;
  valid.type = FrameType::kData;
  valid.kind = MessageKind::kLockAcquireRequest;
  for (const Mutation& m : mutations) {
    std::array<std::byte, kFrameSize> buf = encode_frame(valid);
    buf[m.offset] = std::byte{m.value};
    EXPECT_THROW((void)decode_frame(buf), WireProtocolError) << m.label;
  }
}

TEST(WireFrameTest, RejectsOversizedPayloadDeclaration) {
  Frame f;
  f.payload_bytes = kMaxPayloadBytes;  // boundary: still legal
  EXPECT_EQ(decode_frame(encode_frame(f)).payload_bytes, kMaxPayloadBytes);
  f.payload_bytes = kMaxPayloadBytes + 1;
  EXPECT_THROW((void)decode_frame(encode_frame(f)), WireProtocolError);
  f.payload_bytes = ~std::uint64_t{0};  // hostile length-field bomb
  EXPECT_THROW((void)decode_frame(encode_frame(f)), WireProtocolError);
}

TEST(WireLedgerTest, SerializeParseRoundTrip) {
  WorkerLedger l;
  for (std::size_t k = 0; k < kNumWireKinds; ++k) {
    l.delivered[k] = {k * 3 + 1, k * 100 + 7};
    l.relayed[k] = {k * 2, k * 50};
  }
  l.locks_granted = 11;
  l.locks_released = 10;
  l.gdo_requests_served = 42;
  l.replica_syncs_applied = 3;
  l.page_bytes_stored = 123456;

  const std::vector<std::byte> payload = serialize_ledger(l);
  EXPECT_EQ(read_le(payload, 0, 8), kNumWireKinds);
  EXPECT_EQ(parse_ledger(payload), l);
}

TEST(WireLedgerTest, RejectsTruncatedAndInconsistentPayloads) {
  const std::vector<std::byte> payload = serialize_ledger(WorkerLedger{});
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{7}, std::size_t{8},
        payload.size() - 1}) {
    EXPECT_THROW((void)parse_ledger(std::span(payload.data(), len)),
                 WireProtocolError)
        << "accepted a " << len << "-byte ledger";
  }
  // Kind-count mismatch: a worker built against a different MessageKind
  // enum must be rejected, not misinterpreted.
  std::vector<std::byte> skewed = payload;
  skewed[0] = std::byte{static_cast<std::uint8_t>(kNumWireKinds + 1)};
  EXPECT_THROW((void)parse_ledger(skewed), WireProtocolError);
  // Trailing garbage after a well-formed ledger is equally hostile.
  std::vector<std::byte> trailing = payload;
  trailing.push_back(std::byte{0});
  EXPECT_THROW((void)parse_ledger(trailing), WireProtocolError);
}

TEST(WireLedgerTest, AccumulationMatchesPerKindSums) {
  WorkerLedger a, b;
  a.delivered[0] = {1, 100};
  a.locks_granted = 2;
  b.delivered[0] = {3, 50};
  b.relayed[1] = {7, 700};
  b.page_bytes_stored = 9;
  WorkerLedger sum = a;
  sum += b;
  EXPECT_EQ(sum.delivered[0].messages, 4u);
  EXPECT_EQ(sum.delivered[0].bytes, 150u);
  EXPECT_EQ(sum.relayed[1].messages, 7u);
  EXPECT_EQ(sum.locks_granted, 2u);
  EXPECT_EQ(sum.page_bytes_stored, 9u);
  EXPECT_EQ(sum.delivered_total().messages, 4u);
  EXPECT_EQ(sum.relayed_total().bytes, 700u);
}

}  // namespace
}  // namespace lotec::wire
