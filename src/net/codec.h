// Byte-level wire format for protocol messages.
//
// The simulated network moves `message` structs directly; this codec pins
// down what those messages would look like on a real wire, so the byte
// accounting in the network's traffic counters is backed by an actual
// serialization and a deployment could swap the in-memory transport for
// sockets without touching the protocol state machines.
//
// Layout (little-endian):
//   u8   kind
//   u8   flags           (message::kKnownFlags; others rejected)
//   u16  payload count
//   u32  from            (node id, truncated - networks are small)
//   u32  to
//   u32  seq             (reliable-delivery sequence number, 0 = none)
//   u32  ack             (piggybacked cumulative ack, 0 = none)
//   f64  payload[count]
//
// The 20-byte `wire_size_bytes` header estimate in message.h corresponds
// exactly to this header; `encoded_size` reports the exact total.
//
// decode() treats the wire as hostile: truncated or oversized buffers,
// unknown kinds or flag bits, payload counts beyond kMaxPayloadScalars (the
// inline payload's capacity) and non-finite scalars all throw
// invariant_error instead of handing garbage to a protocol state machine.
// The protocols only ever exchange finite quantities (costs, step sizes,
// simplex coordinates), so a NaN or infinity on the wire is unambiguously
// corruption.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/snapshot.h"
#include "net/message.h"

namespace dolbie::net {

/// Largest payload the wire format accepts: the message's inline payload
/// capacity (3 scalars, the widest protocol message). decode() rejects a
/// larger count before it touches the payload, so a corrupted count field
/// can neither drive an allocation nor overflow the inline storage.
constexpr std::size_t kMaxPayloadScalars = inline_payload::kCapacity;

/// Exact encoded size of a message in bytes.
std::size_t encoded_size(const message& m);

/// Serialize a message to bytes. Throws invariant_error when the payload
/// exceeds kMaxPayloadScalars or carries non-finite scalars, when node ids
/// exceed 32 bits, or when unknown flag bits are set.
std::vector<std::uint8_t> encode(const message& m);

/// Deserialize. Throws invariant_error on malformed input: short or
/// trailing bytes, unknown kind or flag bits, oversized payload count,
/// non-finite payload scalars.
message decode(const std::vector<std::uint8_t>& bytes);

/// Length-prefixed embedding of a message inside an engine snapshot
/// (common/snapshot.h): u32 byte count, then the encode() bytes. Restores
/// through decode(), so in-flight messages inherit the wire format's full
/// hostile-input validation.
void encode_into(const message& m, snapshot_writer& w);
message decode_from(snapshot_reader& r);

// ---------------------------------------------------------------------------
// Length-prefixed framing for byte streams (TCP).
//
// A stream carries frames: a u32 little-endian body length followed by the
// body bytes. The body is opaque at this layer — the socket transport puts
// a one-byte opcode plus an encode()d message or control payload inside.
// The framing layer owns exactly one problem: reassembling whole frames
// from the arbitrary fragments a socket hands back, and refusing hostile
// prefixes (zero-length, oversized, truncated) loudly instead of letting a
// corrupt length field drive an allocation or a blocked read.
// ---------------------------------------------------------------------------

/// Largest frame body the stream format accepts. Generously above the
/// biggest legal wire message (20-byte header + 8 * kMaxPayloadScalars)
/// plus framing overhead, while bounding what a corrupted length prefix
/// can make a receiver buffer.
constexpr std::size_t kMaxFrameBytes = 64 * 1024;

/// Append one frame (u32 length prefix + body) to `out`. Throws
/// invariant_error when `body` is empty or exceeds kMaxFrameBytes — every
/// legal frame carries at least an opcode byte.
void append_frame(std::vector<std::uint8_t>& out,
                  const std::uint8_t* body, std::size_t size);
inline void append_frame(std::vector<std::uint8_t>& out,
                         const std::vector<std::uint8_t>& body) {
  append_frame(out, body.data(), body.size());
}

/// Incremental frame reassembler: feed() socket fragments of any size, then
/// drain complete frames with next(). A hostile length prefix (zero or
/// above kMaxFrameBytes) throws invariant_error the moment the four prefix
/// bytes are in — before any body bytes are buffered. finish() asserts the
/// stream ended on a frame boundary; a dangling partial frame means the
/// peer died mid-write and throws.
class frame_parser {
 public:
  /// Buffer `size` raw stream bytes. Validates any length prefix that
  /// becomes complete; throws invariant_error on a hostile prefix.
  void feed(const std::uint8_t* data, std::size_t size);

  /// Extract the next complete frame body, or empty when more bytes are
  /// needed. Call in a loop — one feed() may complete several frames.
  std::optional<std::vector<std::uint8_t>> next();

  /// Bytes buffered toward an incomplete frame (0 = on a boundary).
  std::size_t buffered() const { return buffer_.size(); }

  /// Declare end-of-stream. Throws invariant_error when bytes of a partial
  /// frame are still buffered (truncated stream).
  void finish() const;

 private:
  std::vector<std::uint8_t> buffer_;
};

}  // namespace dolbie::net
