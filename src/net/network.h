// The simulated network: point-to-point channels with registry-backed
// traffic accounting. Deterministic and single-threaded by design —
// protocol progress is driven explicitly in phases by src/dist/runner,
// which makes every interleaving reproducible (and the tests meaningful).
//
// Three topologies share one implementation:
//   - dense: every ordered (from, to) pair has a channel (n^2 storage) —
//     the historical default, required by the fully distributed protocol's
//     all-pairs broadcast;
//   - star: only worker<->hub links exist (2(n-1) channels) — the
//     master/worker protocol's actual communication pattern, which is what
//     makes flat MW feasible at N = 10^5;
//   - sparse: an explicit directed edge list — the hierarchical layer's
//     aggregator trees.
// Fault rolls key on (seed, salt, from, to, attempt), never on storage
// layout, so a protocol that only ever uses the links a sparser topology
// keeps produces bit-identical transcripts on either topology.
//
// No send or receive allocates once the channel buffers are warm: the
// payload is inline (net/message.h). Dense and star links are found by
// arithmetic, so a message costs O(1) there; a sparse link costs a binary
// search over the edge list.
//
// Observability: every send bumps the sender's ("per-peer") message/byte
// counters, two plain integers in dense per-node arrays read through
// peer_messages_sent / peer_bytes_sent; total_traffic() is their sums.
// Constructing a network registers nothing. An optionally attached
// obs::tracer receives a "message_dropped" instant event whenever fault
// injection swallows a message.
//
// Concurrency: sends from different threads are safe when they use
// distinct links and distinct senders and no fault plan or scheduled drop
// is active (the reduction tree's per-parent relay jobs); everything else
// is single-threaded.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/channel.h"
#include "net/fault_plan.h"

namespace dolbie {
class snapshot_reader;
class snapshot_writer;
}  // namespace dolbie

namespace dolbie::obs {
class tracer;
}  // namespace dolbie::obs

namespace dolbie::net {

/// Aggregate traffic totals: the sums of the per-peer counters.
struct traffic_totals {
  std::size_t messages_sent = 0;
  std::size_t bytes_sent = 0;
};

class network {
 public:
  /// Dense topology: every ordered pair of distinct nodes is linked.
  explicit network(std::size_t n_nodes);

  /// Star topology: links exist only between `hub` and every other node
  /// (both directions). Sends on any other pair are protocol errors.
  network(std::size_t n_nodes, node_id hub);

  /// Sparse topology: exactly the given directed edges exist. Endpoints
  /// must be in range and distinct; duplicate edges are rejected.
  network(std::size_t n_nodes,
          std::vector<std::pair<node_id, node_id>> edges);

  std::size_t nodes() const { return n_; }

  /// Send a message; `m.from`/`m.to` must be valid node ids and distinct,
  /// and the (from, to) link must exist in the topology.
  void send(message m);

  /// Receive the oldest pending message from `from` to `to`.
  std::optional<message> receive(node_id to, node_id from);

  /// Receive the oldest pending message addressed to `to` from any sender
  /// (scanning senders in id order for determinism).
  std::optional<message> receive_any(node_id to);

  /// Count of messages currently pending for `to`.
  std::size_t pending_for(node_id to) const;

  /// Aggregate traffic since construction or the last reset (O(nodes)).
  traffic_totals total_traffic() const;

  /// Cumulative messages / bytes sent by one node (per-peer counters).
  std::uint64_t peer_messages_sent(node_id id) const;
  std::uint64_t peer_bytes_sent(node_id id) const;

  /// Zero every traffic-derived figure together: the per-peer counters
  /// (and so the totals) *and* the fault counters (`dropped_`,
  /// `duplicated_`) they are read against — resetting one but not the
  /// other leaves ratios like dropped/sent meaningless. Scheduled faults
  /// (inject_drop budgets, the attached fault plan and its per-link
  /// attempt counters) are configuration, not accounting, and survive.
  void reset_traffic();

  /// Release the channel storage of every link touching `id`, dropping any
  /// undelivered messages. For permanently retired nodes (churn): their
  /// links never carry traffic again, so long faulty runs at large N would
  /// otherwise hold dead buffers forever. Accounting is untouched; the
  /// links remain usable (empty) if addressed again.
  void retire_node(node_id id);

  /// Number of channels in this topology (dense counts self-slots too).
  std::size_t link_count() const { return links_.size(); }

  /// Storage index of the (from, to) link; requires the link to exist.
  /// Layered transports (net/reliable.h) index their per-link state with
  /// this so their storage matches the topology instead of assuming n^2.
  /// O(1) on dense and star topologies, O(log links) on sparse ones.
  std::size_t link_index(node_id from, node_id to) const;

  /// Endpoints of the link at a storage index (inverse of link_index).
  /// Dense topologies enumerate self-pairs (from == to) as well; callers
  /// iterating link storage must skip those.
  std::pair<node_id, node_id> link_endpoints(std::size_t index) const;

  /// Attach a tracer: drop events are recorded on `lane`, stamped with the
  /// round set by set_round(). Pass nullptr to detach.
  void attach_tracer(obs::tracer* tracer, std::uint32_t lane);

  /// Round stamp applied to subsequent trace events (protocol realizations
  /// call this at the start of each round).
  void set_round(std::uint64_t round) { trace_round_ = round; }

  /// Fault injection: silently drop the next `count` messages sent on the
  /// (from, to) link. Dropped messages still count as sent in the traffic
  /// metrics (the sender paid for them). Used by the fault-injection tests
  /// to verify that both protocol realizations *detect* message loss (they
  /// fail fast with a diagnostic) instead of computing with stale state.
  void inject_drop(node_id from, node_id to, std::size_t count = 1);

  /// Messages dropped so far by fault injection (inject_drop or plan).
  std::size_t dropped() const { return dropped_; }

  /// Messages duplicated so far by the attached fault plan.
  std::size_t duplicated() const { return duplicated_; }

  /// Attach a deterministic fault schedule: every subsequent send rolls
  /// the plan's drop/duplicate/reorder probabilities with a per-link
  /// attempt counter (reset here), generalizing inject_drop. Dropped
  /// messages still count as sent, exactly like injected drops.
  void attach_faults(fault_plan plan);
  const fault_plan& faults() const { return faults_; }

  /// Serialize the mutable delivery state — channel contents, scheduled
  /// drops, the fault counters (dropped/duplicated and the per-link
  /// attempt cursors the plan's rolls key on) and the traffic counters —
  /// for an engine snapshot. Topology and configuration are not written:
  /// the restoring network must be constructed identically first.
  void snapshot_to(snapshot_writer& w) const;
  /// Restore state written by snapshot_to into an identically constructed
  /// network (same topology, same fault attachment). Throws
  /// invariant_error on shape mismatch or corrupt bytes.
  void restore_from(snapshot_reader& r);

 private:
  void index_edges();
  channel& link(node_id from, node_id to);
  const channel& link(node_id from, node_id to) const;
  void account_sent(const message& m);
  void trace_drop(const message& m);

  enum class topology : std::uint8_t { dense, star, sparse };

  std::size_t n_;
  topology topology_ = topology::dense;
  node_id hub_ = 0;  // star only
  /// Sparse/star: directed edges sorted by (from, to); the link at
  /// edges_[i] is stored in links_[i]. Empty in dense mode. A star's
  /// sorted order is [(i, hub) for i < hub], [(hub, j) for j != hub],
  /// [(i, hub) for i > hub], which link_index computes arithmetically.
  std::vector<std::pair<node_id, node_id>> edges_;
  /// Sparse/star: per-receiver incoming links as (from, storage index),
  /// sorted by `from` so receive_any keeps its id-order determinism.
  std::vector<std::vector<std::pair<node_id, std::size_t>>> in_edges_;
  std::vector<channel> links_;  // dense: n*n matrix; sparse: one per edge
  std::vector<std::size_t> pending_drops_;  // same indexing as links_
  std::size_t dropped_ = 0;
  std::size_t duplicated_ = 0;

  fault_plan faults_;
  std::vector<std::uint64_t> fault_attempts_;  // same indexing as links_

  std::vector<std::uint64_t> peer_messages_;  // indexed by sender id
  std::vector<std::uint64_t> peer_bytes_;
  obs::tracer* tracer_ = nullptr;
  std::uint32_t trace_lane_ = 0;
  std::uint64_t trace_round_ = 0;
};

}  // namespace dolbie::net
