// Wire-level message schema for the simulated network. Payloads are a few
// scalars — exactly the quantities the paper's protocols exchange (local
// costs, step sizes, decisions, indicator flags) — so the byte accounting
// in `wire_size_bytes` reflects the claimed communication complexity.
//
// The payload is stored inline (`inline_payload`, at most three scalars,
// the widest message kind the protocols send), so building, queueing,
// copying and delivering a message never touches the heap.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "common/error.h"

namespace dolbie::net {

/// Identifier of a node in the simulated network.
using node_id = std::size_t;

/// Protocol message kinds (union of both DOLBIE protocol realizations).
enum class message_kind : std::uint8_t {
  local_cost,      ///< worker -> master: l_{i,t}                (Alg. 1 l.4)
  round_info,      ///< master -> worker: l_t, alpha_t, 1{i!=s}  (Alg. 1 l.12)
  decision,        ///< non-straggler -> master/straggler: x_{i,t+1}
  assignment,      ///< master -> straggler: x_{s,t+1}           (Alg. 1 l.15)
  cost_and_step,   ///< peer broadcast: l_{i,t}, alpha-bar_{i,t} (Alg. 2 l.4)
  shard_reduce,    ///< aggregator -> parent: shard summary {max, min, count}
  shard_broadcast, ///< aggregator -> child: round consensus {l_t, alpha_t}
};

/// Fixed-capacity payload stored inside the message. Reads mirror
/// std::vector<double> (operator[], size(), range-for, ==); filling past
/// kCapacity throws invariant_error instead of growing.
class inline_payload {
 public:
  /// Widest protocol message: round_info {l_t, alpha_t, 1{i!=s}} and
  /// shard_reduce {max, min, count}.
  static constexpr std::size_t kCapacity = 3;

  using const_iterator = const double*;

  inline_payload() = default;
  inline_payload(std::initializer_list<double> scalars) {
    for (const double v : scalars) push_back(v);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  double operator[](std::size_t i) const { return values_[i]; }

  const_iterator begin() const { return values_.data(); }
  const_iterator end() const { return values_.data() + size_; }

  void push_back(double v) {
    DOLBIE_REQUIRE(size_ < kCapacity, "message payload holds at most "
                                          << kCapacity << " scalars");
    values_[size_++] = v;
  }

  friend bool operator==(const inline_payload& a, const inline_payload& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const inline_payload& a,
                         const std::vector<double>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::array<double, kCapacity> values_{};
  std::uint8_t size_ = 0;
};

/// One in-flight message.
struct message {
  /// Flag bit: this transmission is a retransmission by the reliable
  /// delivery layer (net/reliable.h). The receiver treats it exactly like
  /// the original; the bit exists so wire transcripts distinguish the two.
  static constexpr std::uint8_t kFlagRetransmit = 0x01;
  /// All flag bits the wire format knows; the codec rejects the rest.
  static constexpr std::uint8_t kKnownFlags = kFlagRetransmit;

  // `payload` stays the fourth member so aggregate initialization at the
  // protocol call sites ({from, to, kind, {scalars...}}) is unaffected by
  // the reliability fields below. [[no_unique_address]] lets seq/ack/flags
  // sit in the payload's tail padding, keeping a message at 64 bytes: the
  // reliable layer's per-link buffers (a message plus a retry count) then
  // stay in the same allocator size class as before the payload went
  // inline, which holds peak RSS at FD-hier's ~262k links.
  node_id from = 0;
  node_id to = 0;
  message_kind kind = message_kind::local_cost;
  [[no_unique_address]] inline_payload payload;
  /// Per-link sequence number stamped by the reliable delivery layer
  /// (0 = unsequenced best-effort send, the zero-fault fast path).
  std::uint32_t seq = 0;
  /// Highest in-order sequence the sender has consumed from `to` on the
  /// reverse link — the piggybacked acknowledgement that lets a real
  /// deployment prune its retransmission buffer without dedicated ack
  /// frames (the simulation's pull-driven receive makes acks implicit).
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;

  /// Serialized size under the wire format of net/codec.h: a 20-byte
  /// header (kind, flags, count, addressing, seq, ack) plus 8 bytes per
  /// scalar, matching the paper's "each of which is a scalar value".
  std::size_t wire_size_bytes() const {
    return 20 + 8 * payload.size();
  }
};
static_assert(sizeof(message) <= 64, "message layout grew past 64 bytes");

}  // namespace dolbie::net
