#include "net/network.h"

#include <algorithm>

#include "common/error.h"
#include "common/snapshot.h"
#include "net/codec.h"
#include "obs/trace.h"

namespace dolbie::net {

network::network(std::size_t n_nodes)
    : n_(n_nodes),
      topology_(topology::dense),
      links_(n_nodes * n_nodes),
      pending_drops_(n_nodes * n_nodes, 0),
      peer_messages_(n_nodes, 0),
      peer_bytes_(n_nodes, 0) {
  DOLBIE_REQUIRE(n_nodes >= 1, "network needs at least one node");
}

network::network(std::size_t n_nodes, node_id hub)
    : n_(n_nodes),
      topology_(topology::star),
      hub_(hub),
      peer_messages_(n_nodes, 0),
      peer_bytes_(n_nodes, 0) {
  DOLBIE_REQUIRE(n_nodes >= 1, "network needs at least one node");
  DOLBIE_REQUIRE(hub < n_nodes, "star hub " << hub << " out of range for "
                                            << n_nodes << " nodes");
  edges_.reserve(n_nodes >= 1 ? 2 * (n_nodes - 1) : 0);
  for (node_id i = 0; i < n_; ++i) {
    if (i == hub) continue;
    edges_.emplace_back(i, hub);
    edges_.emplace_back(hub, i);
  }
  index_edges();
}

network::network(std::size_t n_nodes,
                 std::vector<std::pair<node_id, node_id>> edges)
    : n_(n_nodes),
      topology_(topology::sparse),
      edges_(std::move(edges)),
      peer_messages_(n_nodes, 0),
      peer_bytes_(n_nodes, 0) {
  DOLBIE_REQUIRE(n_nodes >= 1, "network needs at least one node");
  for (const auto& [from, to] : edges_) {
    DOLBIE_REQUIRE(from < n_ && to < n_, "edge (" << from << " -> " << to
                                                  << ") out of range for "
                                                  << n_ << " nodes");
    DOLBIE_REQUIRE(from != to, "self-edge at node " << from);
  }
  index_edges();
}

void network::index_edges() {
  std::sort(edges_.begin(), edges_.end());
  DOLBIE_REQUIRE(
      std::adjacent_find(edges_.begin(), edges_.end()) == edges_.end(),
      "duplicate edge in sparse topology");
  links_.resize(edges_.size());
  pending_drops_.assign(edges_.size(), 0);
  in_edges_.assign(n_, {});
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    in_edges_[edges_[i].second].emplace_back(edges_[i].first, i);
  }
  // edges_ is sorted by (from, to), so each receiver's incoming list is
  // already in ascending sender order — the scan order receive_any and
  // pending_for promise.
}

std::size_t network::link_index(node_id from, node_id to) const {
  if (topology_ == topology::dense) return from * n_ + to;
  if (topology_ == topology::star) {
    // Position in the sorted star edge list (see edges_).
    const bool up = to == hub_ && from != hub_ && from < n_;
    const bool down = from == hub_ && to != hub_ && to < n_;
    DOLBIE_REQUIRE(up || down, "link (" << from << " -> " << to
                                        << ") does not exist in this topology");
    if (up) return from < hub_ ? from : from + n_ - 2;
    return hub_ + (to < hub_ ? to : to - 1);
  }
  const auto key = std::make_pair(from, to);
  const auto it = std::lower_bound(edges_.begin(), edges_.end(), key);
  DOLBIE_REQUIRE(it != edges_.end() && *it == key,
                 "link (" << from << " -> " << to
                          << ") does not exist in this topology");
  return static_cast<std::size_t>(it - edges_.begin());
}

std::pair<node_id, node_id> network::link_endpoints(std::size_t index) const {
  if (topology_ == topology::dense) return {index / n_, index % n_};
  return edges_[index];
}

channel& network::link(node_id from, node_id to) {
  return links_[link_index(from, to)];
}

const channel& network::link(node_id from, node_id to) const {
  return links_[link_index(from, to)];
}

void network::account_sent(const message& m) {
  ++peer_messages_[m.from];
  peer_bytes_[m.from] += m.wire_size_bytes();
}

void network::send(message m) {
  DOLBIE_REQUIRE(m.from < n_ && m.to < n_,
                 "message endpoints (" << m.from << " -> " << m.to
                                       << ") out of range for " << n_
                                       << " nodes");
  DOLBIE_REQUIRE(m.from != m.to, "node " << m.from << " sent to itself");
  const std::size_t idx = link_index(m.from, m.to);
  account_sent(m);
  std::size_t& drops = pending_drops_[idx];
  if (drops > 0) {
    // The sender still paid for the message; it just never arrives.
    --drops;
    ++dropped_;
    trace_drop(m);
    return;
  }
  if (faults_.enabled()) {
    // One roll set per delivery attempt; the counter advances exactly once
    // per send so the fault transcript is a pure function of the plan and
    // the protocol's (deterministic) send sequence.
    const std::uint64_t attempt = fault_attempts_[idx]++;
    if (faults_.roll_drop(m.from, m.to, attempt)) {
      ++dropped_;
      trace_drop(m);
      return;
    }
    const bool duplicate = faults_.roll_duplicate(m.from, m.to, attempt);
    const bool reorder = faults_.roll_reorder(m.from, m.to, attempt);
    if (duplicate) {
      ++duplicated_;
      links_[idx].push(m);  // the copy travels first
    }
    if (reorder) {
      links_[idx].push_before_tail(std::move(m));
    } else {
      links_[idx].push(std::move(m));
    }
    return;
  }
  links_[idx].push(std::move(m));
}

void network::trace_drop(const message& m) {
  if (tracer_ != nullptr) {
    tracer_->instant(trace_lane_, trace_round_, "message_dropped", "net",
                     {obs::arg_int("from", m.from), obs::arg_int("to", m.to),
                      obs::arg_int("bytes", m.wire_size_bytes())});
  }
}

void network::attach_faults(fault_plan plan) {
  faults_ = std::move(plan);
  fault_attempts_.assign(links_.size(), 0);
}

void network::attach_tracer(obs::tracer* tracer, std::uint32_t lane) {
  tracer_ = tracer;
  trace_lane_ = lane;
}

void network::inject_drop(node_id from, node_id to, std::size_t count) {
  DOLBIE_REQUIRE(from < n_ && to < n_, "drop endpoints out of range");
  pending_drops_[link_index(from, to)] += count;
}

std::optional<message> network::receive(node_id to, node_id from) {
  DOLBIE_REQUIRE(from < n_ && to < n_, "receive endpoints out of range");
  return link(from, to).pop();
}

std::optional<message> network::receive_any(node_id to) {
  DOLBIE_REQUIRE(to < n_, "receive endpoint out of range");
  if (topology_ == topology::dense) {
    for (node_id from = 0; from < n_; ++from) {
      if (auto m = links_[from * n_ + to].pop()) return m;
    }
    return std::nullopt;
  }
  for (const auto& in : in_edges_[to]) {
    if (auto m = links_[in.second].pop()) return m;
  }
  return std::nullopt;
}

std::size_t network::pending_for(node_id to) const {
  DOLBIE_REQUIRE(to < n_, "receive endpoint out of range");
  std::size_t total = 0;
  if (topology_ == topology::dense) {
    for (node_id from = 0; from < n_; ++from) {
      total += links_[from * n_ + to].pending();
    }
    return total;
  }
  for (const auto& in : in_edges_[to]) {
    total += links_[in.second].pending();
  }
  return total;
}

std::uint64_t network::peer_messages_sent(node_id id) const {
  DOLBIE_REQUIRE(id < n_, "peer id out of range");
  return peer_messages_[id];
}

std::uint64_t network::peer_bytes_sent(node_id id) const {
  DOLBIE_REQUIRE(id < n_, "peer id out of range");
  return peer_bytes_[id];
}

void network::retire_node(node_id id) {
  DOLBIE_REQUIRE(id < n_, "retired node out of range");
  if (topology_ == topology::dense) {
    for (node_id peer = 0; peer < n_; ++peer) {
      if (peer == id) continue;
      links_[id * n_ + peer].release();
      links_[peer * n_ + id].release();
    }
    return;
  }
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    if (edges_[i].first == id || edges_[i].second == id) links_[i].release();
  }
}

traffic_totals network::total_traffic() const {
  traffic_totals t;
  for (node_id i = 0; i < n_; ++i) {
    t.messages_sent += static_cast<std::size_t>(peer_messages_[i]);
    t.bytes_sent += static_cast<std::size_t>(peer_bytes_[i]);
  }
  return t;
}

void network::snapshot_to(snapshot_writer& w) const {
  w.u64(links_.size());
  for (const channel& ch : links_) {
    w.u64(ch.pending());
    for (std::size_t i = 0; i < ch.pending(); ++i) {
      encode_into(ch.peek(i), w);
    }
  }
  for (const std::size_t drops : pending_drops_) w.u64(drops);
  w.u64(dropped_);
  w.u64(duplicated_);
  // The fault-plan attempt cursors: the plan's rolls are pure functions of
  // (seed, link, attempt), so restoring the cursors resumes the exact
  // fault transcript mid-stream.
  w.u8(faults_.enabled() ? 1 : 0);
  if (faults_.enabled()) {
    for (const std::uint64_t attempt : fault_attempts_) w.u64(attempt);
  }
  const traffic_totals t = total_traffic();
  w.u64(t.messages_sent);
  w.u64(t.bytes_sent);
  for (node_id i = 0; i < n_; ++i) {
    w.u64(peer_messages_[i]);
    w.u64(peer_bytes_[i]);
  }
}

void network::restore_from(snapshot_reader& r) {
  const std::uint64_t link_count = r.u64();
  DOLBIE_REQUIRE(link_count == links_.size(),
                 "network snapshot has " << link_count
                                         << " links, this topology has "
                                         << links_.size());
  for (channel& ch : links_) {
    ch.release();
    const std::uint64_t pending = r.u64();
    // Each embedded message costs at least its u32 length prefix plus the
    // 20-byte wire header, bounding what a corrupt count can allocate.
    r.require_count(pending, 24);
    for (std::uint64_t i = 0; i < pending; ++i) {
      // Restored directly into storage: these messages were already sent
      // (and fault-rolled) before the snapshot; re-sending would double
      // the accounting and burn fresh rolls.
      ch.push(decode_from(r));
    }
  }
  for (std::size_t& drops : pending_drops_) {
    drops = static_cast<std::size_t>(r.u64());
  }
  dropped_ = static_cast<std::size_t>(r.u64());
  duplicated_ = static_cast<std::size_t>(r.u64());
  const bool had_faults = r.u8() != 0;
  DOLBIE_REQUIRE(had_faults == faults_.enabled(),
                 "network snapshot fault attachment does not match this "
                 "network's configuration");
  if (had_faults) {
    DOLBIE_REQUIRE(fault_attempts_.size() == links_.size(),
                   "fault attempt cursors not sized for this topology");
    for (std::uint64_t& attempt : fault_attempts_) attempt = r.u64();
  }
  const std::uint64_t total_messages = r.u64();
  const std::uint64_t total_bytes = r.u64();
  for (node_id i = 0; i < n_; ++i) {
    peer_messages_[i] = r.u64();
    peer_bytes_[i] = r.u64();
  }
  // Totals are the per-peer sums; a snapshot that disagrees is corrupt.
  const traffic_totals t = total_traffic();
  DOLBIE_REQUIRE(t.messages_sent == total_messages &&
                     t.bytes_sent == total_bytes,
                 "network snapshot totals (" << total_messages << " messages, "
                                             << total_bytes
                                             << " bytes) disagree with its "
                                                "per-peer counters");
}

void network::reset_traffic() {
  std::fill(peer_messages_.begin(), peer_messages_.end(), 0);
  std::fill(peer_bytes_.begin(), peer_bytes_.end(), 0);
  // Keep the fault counters in lockstep with the totals they qualify: a
  // stale `dropped_` against freshly zeroed send counters would claim more
  // drops than messages. (Scheduled pending_drops_ and the fault plan are
  // forward-looking configuration and deliberately survive the reset.)
  dropped_ = 0;
  duplicated_ = 0;
}

}  // namespace dolbie::net
