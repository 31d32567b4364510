#include "net/codec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.h"
#include "common/rng.h"

namespace dolbie::net {
namespace {

TEST(Codec, RoundTripsAllKinds) {
  for (message_kind kind :
       {message_kind::local_cost, message_kind::round_info,
        message_kind::decision, message_kind::assignment,
        message_kind::cost_and_step}) {
    message m{3, 7, kind, {1.5, -2.25, 1e-300}};
    const auto bytes = encode(m);
    const message back = decode(bytes);
    EXPECT_EQ(back.from, m.from);
    EXPECT_EQ(back.to, m.to);
    EXPECT_EQ(back.kind, m.kind);
    ASSERT_EQ(back.payload.size(), m.payload.size());
    for (std::size_t i = 0; i < m.payload.size(); ++i) {
      EXPECT_DOUBLE_EQ(back.payload[i], m.payload[i]);
    }
  }
}

TEST(Codec, RoundTripsReliabilityFields) {
  message m{3, 7, message_kind::decision, {0.25}};
  m.seq = 0xdeadbeef;
  m.ack = 41;
  m.flags = message::kFlagRetransmit;
  const message back = decode(encode(m));
  EXPECT_EQ(back.seq, m.seq);
  EXPECT_EQ(back.ack, m.ack);
  EXPECT_EQ(back.flags, m.flags);
}

TEST(Codec, EmptyPayload) {
  message m{0, 1, message_kind::assignment, {}};
  const auto bytes = encode(m);
  EXPECT_EQ(bytes.size(), encoded_size(m));
  EXPECT_EQ(bytes.size(), 20u);
  const message back = decode(bytes);
  EXPECT_TRUE(back.payload.empty());
}

TEST(Codec, EncodedSizeMatches) {
  message m{1, 2, message_kind::round_info, {1.0, 2.0, 3.0}};
  EXPECT_EQ(encode(m).size(), encoded_size(m));
  EXPECT_EQ(encoded_size(m), 20u + 24u);
}

TEST(Codec, EncodedSizeAgreesWithTrafficAccounting) {
  // The network's byte metrics (message::wire_size_bytes) must equal the
  // actual wire format's size — the accounting is backed by real bytes.
  for (std::size_t scalars = 0; scalars <= kMaxPayloadScalars; ++scalars) {
    message m{0, 1, message_kind::decision, {}};
    for (std::size_t i = 0; i < scalars; ++i) m.payload.push_back(1.0);
    EXPECT_EQ(m.wire_size_bytes(), encoded_size(m)) << scalars;
  }
}

TEST(Codec, PreservesSpecialFiniteDoubles) {
  message m{0, 1, message_kind::local_cost,
            {0.0, -0.0, std::numeric_limits<double>::denorm_min()}};
  const message back = decode(encode(m));
  EXPECT_EQ(back.payload[0], 0.0);
  EXPECT_TRUE(std::signbit(back.payload[1]));
  EXPECT_EQ(back.payload[2], std::numeric_limits<double>::denorm_min());
  message big{0, 1, message_kind::local_cost,
              {std::numeric_limits<double>::max()}};
  EXPECT_EQ(decode(encode(big)).payload[0],
            std::numeric_limits<double>::max());
}

TEST(Codec, EncodeRejectsNonFiniteScalars) {
  // The protocols only exchange finite quantities; a NaN or infinity in an
  // outgoing payload is a bug upstream, not something to put on the wire.
  message inf{0, 1, message_kind::local_cost,
              {std::numeric_limits<double>::infinity()}};
  EXPECT_THROW(encode(inf), invariant_error);
  message nan{0, 1, message_kind::local_cost,
              {std::numeric_limits<double>::quiet_NaN()}};
  EXPECT_THROW(encode(nan), invariant_error);
}

TEST(Codec, EncodeRejectsOversizedPayload) {
  // The inline payload is the wire cap: a message wider than the format
  // allows cannot even be built, by push_back or by brace-init.
  static_assert(kMaxPayloadScalars == inline_payload::kCapacity);
  message m{0, 1, message_kind::local_cost, {1.0, 2.0, 3.0}};
  EXPECT_THROW(m.payload.push_back(4.0), invariant_error);
  EXPECT_EQ(m.payload.size(), kMaxPayloadScalars);
  EXPECT_THROW((message{0, 1, message_kind::local_cost, {1.0, 2.0, 3.0, 4.0}}),
               invariant_error);
}

TEST(Codec, RoundTripsEveryPayloadCount) {
  for (std::size_t count = 0; count <= kMaxPayloadScalars; ++count) {
    message m{5, 9, message_kind::round_info, {}};
    for (std::size_t i = 0; i < count; ++i) {
      m.payload.push_back(0.5 + static_cast<double>(i));
    }
    const auto bytes = encode(m);
    EXPECT_EQ(bytes.size(), 20u + 8u * count) << count;
    const message back = decode(bytes);
    EXPECT_EQ(back.payload, m.payload) << count;
    EXPECT_EQ(encode(back), bytes) << count;
  }
}

TEST(Codec, RejectsCountsPastInlineCapacity) {
  // A count past the inline capacity is rejected even when the buffer
  // carries exactly that many well-formed scalars: the count alone decides,
  // before any scalar is read into the payload.
  for (const std::uint16_t count : {std::uint16_t{4}, std::uint16_t{1024},
                                    std::uint16_t{65535}}) {
    message m{0, 1, message_kind::local_cost, {1.0, 2.0, 3.0}};
    auto bytes = encode(m);
    bytes[2] = static_cast<std::uint8_t>(count & 0xff);
    bytes[3] = static_cast<std::uint8_t>(count >> 8);
    const std::vector<std::uint8_t> scalar(bytes.end() - 8, bytes.end());
    for (std::size_t i = kMaxPayloadScalars; i < count; ++i) {
      bytes.insert(bytes.end(), scalar.begin(), scalar.end());
    }
    ASSERT_EQ(bytes.size(), 20u + 8u * count);
    EXPECT_THROW(decode(bytes), invariant_error) << count;
  }
}

TEST(Codec, EncodeRejectsUnknownFlags) {
  message m{0, 1, message_kind::local_cost, {1.0}};
  m.flags = 0x80;
  EXPECT_THROW(encode(m), invariant_error);
}

TEST(Codec, RejectsShortBuffer) {
  message m{0, 1, message_kind::local_cost, {1.0}};
  auto bytes = encode(m);
  bytes.pop_back();
  EXPECT_THROW(decode(bytes), invariant_error);
  EXPECT_THROW(decode({}), invariant_error);
}

TEST(Codec, RejectsTrailingBytes) {
  message m{0, 1, message_kind::local_cost, {1.0}};
  auto bytes = encode(m);
  bytes.push_back(0);
  EXPECT_THROW(decode(bytes), invariant_error);
}

TEST(Codec, RejectsUnknownKind) {
  message m{0, 1, message_kind::local_cost, {1.0}};
  auto bytes = encode(m);
  bytes[0] = 200;  // not a valid message_kind
  EXPECT_THROW(decode(bytes), invariant_error);
}

TEST(Codec, RejectsUnknownFlagBits) {
  message m{0, 1, message_kind::local_cost, {1.0}};
  auto bytes = encode(m);
  bytes[1] = 0x80;  // flag bit the format does not define
  EXPECT_THROW(decode(bytes), invariant_error);
}

TEST(Codec, RejectsCorruptCount) {
  message m{0, 1, message_kind::local_cost, {1.0, 2.0}};
  auto bytes = encode(m);
  bytes[2] = 5;  // claims 5 payload doubles, buffer carries 2
  EXPECT_THROW(decode(bytes), invariant_error);
}

TEST(Codec, RejectsOversizedCount) {
  // A corrupted count past kMaxPayloadScalars must be rejected before any
  // allocation sized by it.
  message m{0, 1, message_kind::local_cost, {1.0}};
  auto bytes = encode(m);
  bytes[2] = 0xff;
  bytes[3] = 0xff;  // count = 65535
  EXPECT_THROW(decode(bytes), invariant_error);
}

TEST(Codec, RejectsNonFinitePayloadScalar) {
  message m{0, 1, message_kind::local_cost, {1.0}};
  auto bytes = encode(m);
  // Overwrite the payload scalar with the quiet-NaN bit pattern.
  const std::uint64_t nan_bits = 0x7ff8000000000000ull;
  for (int i = 0; i < 8; ++i) {
    bytes[20 + i] = static_cast<std::uint8_t>(nan_bits >> (8 * i));
  }
  EXPECT_THROW(decode(bytes), invariant_error);
}

TEST(Codec, FuzzDecodeNeverCrashes) {
  rng gen(2024);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> noise(
        static_cast<std::size_t>(gen.uniform_int(0, 64)));
    for (auto& b : noise) {
      b = static_cast<std::uint8_t>(gen.uniform_int(0, 255));
    }
    // Must either produce a well-formed message or throw invariant_error;
    // anything else (crash, garbage, other exception types) is a bug.
    try {
      const message result = decode(noise);
      EXPECT_EQ(noise.size(), encoded_size(result));
      for (double v : result.payload) EXPECT_TRUE(std::isfinite(v));
    } catch (const invariant_error&) {
      // rejected: fine
    }
  }
}

TEST(Codec, FuzzRoundTripRandomMessages) {
  rng gen(7);
  for (int trial = 0; trial < 500; ++trial) {
    message m;
    m.from = static_cast<node_id>(gen.uniform_int(0, 1000));
    m.to = static_cast<node_id>(gen.uniform_int(0, 1000));
    m.kind = static_cast<message_kind>(gen.uniform_int(0, 4));
    m.seq = static_cast<std::uint32_t>(gen.uniform_int(0, 1 << 30));
    m.ack = static_cast<std::uint32_t>(gen.uniform_int(0, 1 << 30));
    m.flags = gen.uniform_int(0, 1) != 0 ? message::kFlagRetransmit
                                         : std::uint8_t{0};
    const auto count =
        gen.uniform_int(0, static_cast<int>(kMaxPayloadScalars));
    for (int i = 0; i < count; ++i) {
      m.payload.push_back(gen.uniform(-1e6, 1e6));
    }
    const message back = decode(encode(m));
    EXPECT_EQ(back.from, m.from);
    EXPECT_EQ(back.to, m.to);
    EXPECT_EQ(back.kind, m.kind);
    EXPECT_EQ(back.seq, m.seq);
    EXPECT_EQ(back.ack, m.ack);
    EXPECT_EQ(back.flags, m.flags);
    EXPECT_EQ(back.payload, m.payload);
  }
}

// ---- Length-prefixed framing (the socket transport's wire unit) ----

std::vector<std::uint8_t> framed(const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> out;
  append_frame(out, body);
  return out;
}

TEST(Framing, RoundTripsSingleFrame) {
  const std::vector<std::uint8_t> body = {1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> wire = framed(body);
  ASSERT_EQ(wire.size(), body.size() + 4);
  frame_parser p;
  p.feed(wire.data(), wire.size());
  const auto got = p.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, body);
  EXPECT_FALSE(p.next().has_value());
  EXPECT_EQ(p.buffered(), 0u);
  p.finish();  // clean boundary: must not throw
}

TEST(Framing, ReassemblesByteAtATime) {
  // A TCP read can hand back any fragmentation; a frame delivered one
  // byte at a time must reassemble identically.
  const std::vector<std::uint8_t> body = {9, 8, 7, 6, 5, 4, 3, 2, 1};
  const std::vector<std::uint8_t> wire = framed(body);
  frame_parser p;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    EXPECT_FALSE(p.next().has_value());
    p.feed(&wire[i], 1);
  }
  const auto got = p.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, body);
}

TEST(Framing, DrainsMultipleFramesFromOneFeed) {
  std::vector<std::uint8_t> wire;
  append_frame(wire, std::vector<std::uint8_t>{1});
  append_frame(wire, std::vector<std::uint8_t>{7});
  append_frame(wire, std::vector<std::uint8_t>{2, 3});
  frame_parser p;
  p.feed(wire.data(), wire.size());
  EXPECT_EQ(*p.next(), std::vector<std::uint8_t>{1});
  EXPECT_EQ(*p.next(), std::vector<std::uint8_t>{7});
  EXPECT_EQ(*p.next(), (std::vector<std::uint8_t>{2, 3}));
  EXPECT_FALSE(p.next().has_value());
}

TEST(Framing, EmptyBodiesAreIllegal) {
  // Every frame carries at least an opcode byte; an empty body is a bug
  // on the sending side and hostile input on the receiving side.
  std::vector<std::uint8_t> out;
  EXPECT_THROW(append_frame(out, std::vector<std::uint8_t>{}),
               invariant_error);
}

TEST(Framing, TruncatedStreamIsLoudAtFinish) {
  const std::vector<std::uint8_t> wire = framed({1, 2, 3, 4});
  frame_parser p;
  p.feed(wire.data(), wire.size() - 1);  // connection died mid-frame
  EXPECT_FALSE(p.next().has_value());
  EXPECT_GT(p.buffered(), 0u);
  EXPECT_THROW(p.finish(), invariant_error);
}

TEST(Framing, OversizedPrefixThrowsTheMomentItArrives) {
  // Hostile header claiming a frame beyond kMaxFrameBytes: the parser
  // must refuse as soon as the 4 prefix bytes are in, never buffer.
  const std::uint32_t huge = kMaxFrameBytes + 1;
  std::uint8_t prefix[4] = {
      static_cast<std::uint8_t>(huge & 0xff),
      static_cast<std::uint8_t>((huge >> 8) & 0xff),
      static_cast<std::uint8_t>((huge >> 16) & 0xff),
      static_cast<std::uint8_t>((huge >> 24) & 0xff)};
  frame_parser p;
  p.feed(prefix, 3);  // incomplete prefix: not yet judgeable
  EXPECT_THROW(p.feed(prefix + 3, 1), invariant_error);
}

TEST(Framing, ZeroLengthPrefixIsRejected) {
  const std::uint8_t prefix[4] = {0, 0, 0, 0};
  frame_parser p;
  EXPECT_THROW(p.feed(prefix, 4), invariant_error);
}

TEST(Framing, GarbageSecondHeaderIsAsLoudAsTheFirst) {
  // A valid frame followed by a hostile header in the same feed: the
  // garbage prefix surfaces the moment the parser reaches it.
  std::vector<std::uint8_t> wire = framed({42});
  const std::uint8_t garbage[4] = {0xff, 0xff, 0xff, 0xff};
  wire.insert(wire.end(), garbage, garbage + 4);
  frame_parser p;
  p.feed(wire.data(), wire.size());  // first prefix completed valid
  EXPECT_THROW(p.next(), invariant_error);
}

TEST(Framing, GarbageSecondHeaderFedAfterExtractionThrowsAtFeed) {
  // Same hostile bytes arriving after the good frame was consumed: the
  // prefix completes against an empty buffer and feed() itself refuses.
  const std::vector<std::uint8_t> wire = framed({42});
  frame_parser p;
  p.feed(wire.data(), wire.size());
  EXPECT_TRUE(p.next().has_value());
  const std::uint8_t garbage[4] = {0xff, 0xff, 0xff, 0xff};
  EXPECT_THROW(p.feed(garbage, 4), invariant_error);
}

TEST(Framing, AppendRejectsOversizedBody) {
  std::vector<std::uint8_t> out;
  const std::vector<std::uint8_t> body(kMaxFrameBytes + 1, 0);
  EXPECT_THROW(append_frame(out, body), invariant_error);
}

TEST(Framing, MaxSizedBodyRoundTrips) {
  const std::vector<std::uint8_t> body(kMaxFrameBytes, 0xab);
  const std::vector<std::uint8_t> wire = framed(body);
  frame_parser p;
  p.feed(wire.data(), wire.size());
  const auto got = p.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->size(), kMaxFrameBytes);
}

}  // namespace
}  // namespace dolbie::net
