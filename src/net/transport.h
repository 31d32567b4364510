// Delivery-policy seam of the unified protocol core (dist/mw_round.h,
// dist/fd_round.h).
//
// The round state machines are written against a minimal delivery concept:
//
//   void begin_round(std::uint64_t round);
//   void send(message m);
//   std::optional<message> receive(node_id to, node_id from);
//   std::size_t last_receive_attempts() const;
//   void retire_node(node_id id);   // reclaim a retired node's link state
//
// Two policies implement it:
//
//   * `direct_delivery` — best-effort sends straight through the network;
//     every message is required to arrive (the fault-plan-disabled path).
//     begin_round is a no-op and every delivery "takes" one attempt.
//   * `reliable_delivery` — net/reliable.h underneath: per-link sequence
//     numbers, bounded retransmit under virtual-time timeouts, duplicate
//     and reorder absorption. last_receive_attempts() reports how many
//     transmissions the released message took (0 when the retry budget
//     expired), which is what the asynchronous timing models consume.
//
// Both are thin aggregates over references — constructing one per round is
// free and allocation-less, so the shared round flows stay on the PR 3
// zero-allocation hot path.
#pragma once

#include <cstdint>
#include <optional>

#include "net/network.h"
#include "net/reliable.h"

namespace dolbie::net {

/// Best-effort delivery: the policy of a disabled fault plan. Loss is a
/// protocol bug, not an expected outcome, so there is no epoch state to
/// purge and every released message took exactly one transmission.
struct direct_delivery {
  network& net;

  void begin_round(std::uint64_t /*round*/) {}
  void send(message m) { net.send(std::move(m)); }
  std::optional<message> receive(node_id to, node_id from) {
    return net.receive(to, from);
  }
  std::size_t last_receive_attempts() const { return 1; }
  void retire_node(node_id id) { net.retire_node(id); }
};

/// Reliable delivery: the degraded-mode policy (net/reliable.h semantics).
struct reliable_delivery {
  reliable_link& link;

  void begin_round(std::uint64_t round) { link.begin_round(round); }
  void send(message m) { link.send(std::move(m)); }
  std::optional<message> receive(node_id to, node_id from) {
    return link.receive(to, from);
  }
  std::size_t last_receive_attempts() const {
    return link.last_receive_attempts();
  }
  void retire_node(node_id id) { link.retire_node(id); }
};

/// Hand `f` the delivery policy an engine's fault plan selects: reliable
/// when the engine engaged a reliable link (`rel` non-null), direct
/// otherwise — the one place an engine chooses between the two.
template <class F>
decltype(auto) with_delivery(network& net, reliable_link* rel, F&& f) {
  if (rel != nullptr) return f(reliable_delivery{*rel});
  return f(direct_delivery{net});
}

}  // namespace dolbie::net
