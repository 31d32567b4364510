// Delivery seam of the unified protocol core (dist/mw_round.h,
// dist/fd_round.h).
//
// The round state machines are written against a minimal delivery concept
// and hold a reference to whatever implements it:
//
//   void begin_round(std::uint64_t round);
//   void send(message m);
//   std::optional<message> receive(node_id to, node_id from);
//   std::size_t last_receive_attempts() const;
//   void retire_node(node_id id);   // reclaim a retired node's link state
//
// Three types implement it, and the machines take each one directly:
//
//   * `direct_delivery` — best-effort sends straight through the network;
//     every message is required to arrive (the fault-plan-disabled path).
//     begin_round is a no-op and every delivery "takes" one attempt. It is
//     the one adapter, because `network` itself has no epochs and no
//     attempt count.
//   * `reliable_link` (net/reliable.h) — per-link sequence numbers,
//     bounded retransmit under virtual-time timeouts, duplicate and
//     reorder absorption. last_receive_attempts() reports how many
//     transmissions the released message took (0 when the retry budget
//     expired), which is what the asynchronous timing models consume.
//   * `socket_link` (net/socket_delivery.h) — the same semantics over TCP
//     to remote channel hosts (the cluster of dist/cluster.h).
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

/// Hand `f` the delivery an engine's fault plan selects: the reliable
/// link when the engine engaged one (`rel` non-null), direct delivery
/// over the raw network otherwise — the one place an engine chooses
/// between the two. `f` receives an lvalue reference.
template <class F>
decltype(auto) with_delivery(network& net, reliable_link* rel, F&& f) {
  if (rel != nullptr) return f(*rel);
  direct_delivery direct{net};
  return f(direct);
}

}  // namespace dolbie::net
