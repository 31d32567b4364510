// A point-to-point FIFO channel. Channels are the only way nodes exchange
// state in src/dist/, which keeps the protocol implementations honest about
// what information each node actually has. Traffic accounting lives in the
// owning network's dense per-peer counters, not here.
//
// Storage is a vector with a consumed-prefix index rather than a deque: a
// libstdc++ deque preallocates a ~half-KiB block per instance, which at the
// hierarchical layer's scale (hundreds of thousands of channels across the
// shard networks) would dwarf the protocol state itself. An empty channel
// here owns no heap at all, and the steady-state push/pop cycle reuses one
// allocation. Messages carry their payload inline (net/message.h), so once
// a channel's buffer has reached its working size, push and pop allocate
// nothing.
#pragma once

#include <optional>
#include <vector>

#include "net/message.h"

namespace dolbie::net {

/// FIFO message queue between one (sender, receiver) pair.
class channel {
 public:
  /// Enqueue a message.
  void push(message m);

  /// Enqueue a message *behind* the current tail (adjacent reorder): the
  /// fault plan's reorder toggle delivers a late message that overtakes
  /// nothing but is itself overtaken by the send right before it. Falls
  /// back to a plain push on an empty queue.
  void push_before_tail(message m);

  /// Pop the oldest message, or nullopt when empty.
  std::optional<message> pop();

  /// Drop every pending message and release the backing storage. Used when
  /// a node is permanently retired: its links will never carry traffic
  /// again, so the capacity is reclaimed instead of cached.
  void release();

  bool empty() const { return head_ == queue_.size(); }
  std::size_t pending() const { return queue_.size() - head_; }

  /// The i-th pending message, oldest first (i < pending()). Read-only
  /// iteration for engine snapshots; delivery still goes through pop().
  const message& peek(std::size_t i) const { return queue_[head_ + i]; }

 private:
  std::vector<message> queue_;  // live region is [head_, queue_.size())
  std::size_t head_ = 0;        // messages consumed from the front
};

}  // namespace dolbie::net
