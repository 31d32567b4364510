#include "net/codec.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "common/error.h"

namespace dolbie::net {
namespace {

constexpr std::size_t kHeaderBytes = 1 + 1 + 2 + 4 + 4 + 4 + 4;

constexpr std::uint8_t kMaxKind =
    static_cast<std::uint8_t>(message_kind::shard_broadcast);

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  }
  return v;
}

double get_f64(const std::uint8_t* p) {
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace

std::size_t encoded_size(const message& m) {
  return kHeaderBytes + 8 * m.payload.size();
}

std::vector<std::uint8_t> encode(const message& m) {
  DOLBIE_REQUIRE(m.payload.size() <= kMaxPayloadScalars,
                 "payload too large for wire format: " << m.payload.size());
  DOLBIE_REQUIRE(m.from <= std::numeric_limits<std::uint32_t>::max() &&
                     m.to <= std::numeric_limits<std::uint32_t>::max(),
                 "node id exceeds 32-bit wire format");
  DOLBIE_REQUIRE((m.flags & ~message::kKnownFlags) == 0,
                 "unknown flag bits set: " << static_cast<int>(m.flags));
  for (double v : m.payload) {
    DOLBIE_REQUIRE(std::isfinite(v),
                   "non-finite scalar in outgoing payload: " << v);
  }
  std::vector<std::uint8_t> out;
  out.reserve(encoded_size(m));
  out.push_back(static_cast<std::uint8_t>(m.kind));
  out.push_back(m.flags);
  put_u16(out, static_cast<std::uint16_t>(m.payload.size()));
  put_u32(out, static_cast<std::uint32_t>(m.from));
  put_u32(out, static_cast<std::uint32_t>(m.to));
  put_u32(out, m.seq);
  put_u32(out, m.ack);
  for (double v : m.payload) put_f64(out, v);
  return out;
}

message decode(const std::vector<std::uint8_t>& bytes) {
  DOLBIE_REQUIRE(bytes.size() >= kHeaderBytes,
                 "truncated message: " << bytes.size() << " bytes, header is "
                                       << kHeaderBytes);
  const std::uint8_t kind = bytes[0];
  DOLBIE_REQUIRE(kind <= kMaxKind,
                 "unknown message kind " << static_cast<int>(kind));
  const std::uint8_t flags = bytes[1];
  DOLBIE_REQUIRE((flags & ~message::kKnownFlags) == 0,
                 "unknown flag bits set: " << static_cast<int>(flags));
  const std::uint16_t count = get_u16(&bytes[2]);
  DOLBIE_REQUIRE(count <= kMaxPayloadScalars,
                 "oversized payload count " << count << " (cap "
                                            << kMaxPayloadScalars << ")");
  DOLBIE_REQUIRE(
      bytes.size() == kHeaderBytes + 8 * static_cast<std::size_t>(count),
      "payload length mismatch: " << bytes.size() << " bytes for count "
                                  << count);
  message m;
  m.kind = static_cast<message_kind>(kind);
  m.flags = flags;
  m.from = get_u32(&bytes[4]);
  m.to = get_u32(&bytes[8]);
  m.seq = get_u32(&bytes[12]);
  m.ack = get_u32(&bytes[16]);
  for (std::uint16_t i = 0; i < count; ++i) {
    const double v = get_f64(&bytes[kHeaderBytes + 8 * i]);
    DOLBIE_REQUIRE(std::isfinite(v),
                   "non-finite scalar at payload index " << i);
    m.payload.push_back(v);
  }
  return m;
}

void encode_into(const message& m, snapshot_writer& w) {
  const std::vector<std::uint8_t> bytes = encode(m);
  w.u32(static_cast<std::uint32_t>(bytes.size()));
  w.raw(bytes.data(), bytes.size());
}

message decode_from(snapshot_reader& r) {
  const std::uint32_t size = r.u32();
  DOLBIE_REQUIRE(size >= kHeaderBytes &&
                     size <= kHeaderBytes + 8 * kMaxPayloadScalars,
                 "embedded message size " << size << " outside wire bounds");
  const std::uint8_t* p = r.raw(size);
  return decode(std::vector<std::uint8_t>(p, p + size));
}

void append_frame(std::vector<std::uint8_t>& out, const std::uint8_t* body,
                  std::size_t size) {
  DOLBIE_REQUIRE(size > 0, "empty frame body: every frame carries an opcode");
  DOLBIE_REQUIRE(size <= kMaxFrameBytes,
                 "frame body of " << size << " bytes exceeds cap "
                                  << kMaxFrameBytes);
  put_u32(out, static_cast<std::uint32_t>(size));
  out.insert(out.end(), body, body + size);
}

void frame_parser::feed(const std::uint8_t* data, std::size_t size) {
  const bool prefix_was_complete = buffer_.size() >= 4;
  buffer_.insert(buffer_.end(), data, data + size);
  // Validate a length prefix the moment it completes, before the body
  // streams in — a hostile length must never drive buffering decisions.
  if (!prefix_was_complete && buffer_.size() >= 4) {
    const std::uint32_t body = get_u32(buffer_.data());
    DOLBIE_REQUIRE(body > 0, "zero-length frame on stream");
    DOLBIE_REQUIRE(body <= kMaxFrameBytes,
                   "frame length prefix " << body << " exceeds cap "
                                          << kMaxFrameBytes);
  }
}

std::optional<std::vector<std::uint8_t>> frame_parser::next() {
  if (buffer_.size() < 4) return std::nullopt;
  const std::uint32_t body = get_u32(buffer_.data());
  // feed() validated the prefix; re-check so a parser fed through raw
  // buffer surgery still fails closed.
  DOLBIE_REQUIRE(body > 0 && body <= kMaxFrameBytes,
                 "frame length prefix " << body << " outside (0, "
                                        << kMaxFrameBytes << "]");
  if (buffer_.size() < 4 + static_cast<std::size_t>(body)) return std::nullopt;
  std::vector<std::uint8_t> out(buffer_.begin() + 4,
                                buffer_.begin() + 4 + body);
  buffer_.erase(buffer_.begin(), buffer_.begin() + 4 + body);
  // The erase may have exposed the next frame's prefix; validate it now so
  // a garbage second header is as loud as a garbage first one.
  if (buffer_.size() >= 4) {
    const std::uint32_t next_body = get_u32(buffer_.data());
    DOLBIE_REQUIRE(next_body > 0, "zero-length frame on stream");
    DOLBIE_REQUIRE(next_body <= kMaxFrameBytes,
                   "frame length prefix " << next_body << " exceeds cap "
                                          << kMaxFrameBytes);
  }
  return out;
}

void frame_parser::finish() const {
  DOLBIE_REQUIRE(buffer_.empty(),
                 "stream truncated mid-frame: " << buffer_.size()
                                                << " dangling bytes");
}

}  // namespace dolbie::net
