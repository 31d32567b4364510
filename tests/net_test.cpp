#include "net/network.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/snapshot.h"

// Counting allocator (as in engine_alloc_test): every global new in this
// binary bumps a counter, so the steady-state tests below count exactly.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// GCC pairs the free() below, once inlined into a new-expression's cleanup,
// with the replaced operator new and warns; both sides are malloc/free.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dolbie::net {
namespace {

std::uint64_t allocs_now() {
  return g_allocs.load(std::memory_order_relaxed);
}

TEST(Message, WireSizeCountsHeaderPlusScalars) {
  message m{0, 1, message_kind::local_cost, {1.0}};
  EXPECT_EQ(m.wire_size_bytes(), 20u + 8u);
  message m3{0, 1, message_kind::round_info, {1.0, 2.0, 3.0}};
  EXPECT_EQ(m3.wire_size_bytes(), 20u + 24u);
}

TEST(Channel, FifoOrder) {
  channel c;
  EXPECT_TRUE(c.empty());
  c.push({0, 1, message_kind::local_cost, {1.0}});
  c.push({0, 1, message_kind::local_cost, {2.0}});
  EXPECT_EQ(c.pending(), 2u);
  EXPECT_DOUBLE_EQ(c.pop()->payload[0], 1.0);
  EXPECT_DOUBLE_EQ(c.pop()->payload[0], 2.0);
  EXPECT_FALSE(c.pop().has_value());
}

TEST(Network, PerPeerCountersAccumulateAndReset) {
  network net(2);
  net.send({0, 1, message_kind::local_cost, {1.0}});
  net.send({0, 1, message_kind::decision, {1.0, 2.0}});
  EXPECT_EQ(net.peer_messages_sent(0), 2u);
  EXPECT_EQ(net.peer_messages_sent(1), 0u);
  EXPECT_EQ(net.peer_bytes_sent(0), 64u);
  EXPECT_EQ(net.total_traffic().bytes_sent, 64u);
  net.reset_traffic();
  EXPECT_EQ(net.total_traffic().messages_sent, 0u);
  EXPECT_EQ(net.total_traffic().bytes_sent, 0u);
}

TEST(Network, PointToPointDelivery) {
  network net(3);
  net.send({0, 2, message_kind::local_cost, {7.0}});
  EXPECT_EQ(net.pending_for(2), 1u);
  EXPECT_EQ(net.pending_for(1), 0u);
  const auto m = net.receive(2, 0);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->from, 0u);
  EXPECT_DOUBLE_EQ(m->payload[0], 7.0);
  EXPECT_EQ(net.pending_for(2), 0u);
}

TEST(Network, ChannelsAreIsolated) {
  network net(3);
  net.send({0, 1, message_kind::local_cost, {1.0}});
  net.send({2, 1, message_kind::local_cost, {2.0}});
  // Receiving from 0 must not consume 2's message.
  EXPECT_DOUBLE_EQ(net.receive(1, 0)->payload[0], 1.0);
  EXPECT_DOUBLE_EQ(net.receive(1, 2)->payload[0], 2.0);
}

TEST(Network, ReceiveAnyScansSendersInOrder) {
  network net(4);
  net.send({2, 0, message_kind::local_cost, {2.0}});
  net.send({1, 0, message_kind::local_cost, {1.0}});
  // Deterministic: lowest sender id first.
  EXPECT_DOUBLE_EQ(net.receive_any(0)->payload[0], 1.0);
  EXPECT_DOUBLE_EQ(net.receive_any(0)->payload[0], 2.0);
  EXPECT_FALSE(net.receive_any(0).has_value());
}

TEST(Network, TotalTrafficAggregatesAllLinks) {
  network net(3);
  net.send({0, 1, message_kind::local_cost, {1.0}});
  net.send({1, 2, message_kind::local_cost, {1.0, 2.0}});
  const traffic_totals total = net.total_traffic();
  EXPECT_EQ(total.messages_sent, 2u);
  EXPECT_EQ(total.bytes_sent, 28u + 36u);
  net.reset_traffic();
  EXPECT_EQ(net.total_traffic().messages_sent, 0u);
}

TEST(Network, ResetTrafficAlsoZeroesFaultCounters) {
  // Regression: reset_traffic() used to zero the metrics registry but leave
  // dropped_ stale, so dropped/sent ratios computed after a reset mixed a
  // fresh denominator with a cumulative numerator.
  network net(2);
  net.inject_drop(0, 1, 1);
  net.send({0, 1, message_kind::local_cost, {1.0}});
  EXPECT_EQ(net.dropped(), 1u);
  EXPECT_EQ(net.total_traffic().messages_sent, 1u);  // sender paid for it
  net.reset_traffic();
  EXPECT_EQ(net.dropped(), 0u);
  EXPECT_EQ(net.duplicated(), 0u);
  EXPECT_EQ(net.total_traffic().messages_sent, 0u);
  EXPECT_EQ(net.total_traffic().bytes_sent, 0u);
}

TEST(Network, AttachedPlanDropsDeterministically) {
  fault_plan plan;
  plan.seed = 99;
  plan.drop_rate = 1.0;
  network net(2);
  net.attach_faults(plan);
  net.send({0, 1, message_kind::local_cost, {1.0}});
  EXPECT_EQ(net.dropped(), 1u);
  EXPECT_FALSE(net.receive(1, 0).has_value());
  // Identical configuration reproduces the identical outcome.
  network net2(2);
  net2.attach_faults(plan);
  net2.send({0, 1, message_kind::local_cost, {1.0}});
  EXPECT_EQ(net2.dropped(), 1u);
}

TEST(Network, AttachedPlanDuplicatesDeliverTwice) {
  fault_plan plan;
  plan.seed = 7;
  plan.duplicate_rate = 1.0;
  network net(2);
  net.attach_faults(plan);
  net.send({0, 1, message_kind::local_cost, {3.0}});
  EXPECT_EQ(net.duplicated(), 1u);
  EXPECT_EQ(net.pending_for(1), 2u);
  EXPECT_DOUBLE_EQ(net.receive(1, 0)->payload[0], 3.0);
  EXPECT_DOUBLE_EQ(net.receive(1, 0)->payload[0], 3.0);
}

TEST(Network, RejectsBadEndpoints) {
  network net(2);
  EXPECT_THROW(net.send({0, 5, message_kind::local_cost, {}}),
               invariant_error);
  EXPECT_THROW(net.send({1, 1, message_kind::local_cost, {}}),
               invariant_error);  // self-send
  EXPECT_THROW(net.receive(5, 0), invariant_error);
  EXPECT_THROW(net.receive_any(7), invariant_error);
  EXPECT_THROW(network(0), invariant_error);
}

TEST(Message, PayloadIsInlineAndBounded) {
  message m{0, 1, message_kind::round_info, {1.0, 2.0, 3.0}};
  EXPECT_EQ(m.payload.size(), inline_payload::kCapacity);
  double sum = 0.0;
  for (const double v : m.payload) sum += v;
  EXPECT_DOUBLE_EQ(sum, 6.0);
  EXPECT_TRUE((std::is_trivially_copyable_v<message>));
  const std::uint64_t before = allocs_now();
  message copy = m;
  copy.payload = {};
  copy.payload.push_back(9.0);
  EXPECT_EQ(allocs_now() - before, 0u);
  EXPECT_EQ(copy.payload, std::vector<double>{9.0});
  EXPECT_EQ(m.payload, (std::vector<double>{1.0, 2.0, 3.0}));
  // seq/ack/flags share the payload's tail padding: assigning a payload
  // must leave them alone.
  copy.seq = 0xfffffffe;
  copy.ack = 0xfffffffd;
  copy.flags = message::kFlagRetransmit;
  copy.payload = m.payload;
  copy.payload = {};
  copy.payload = m.payload;
  EXPECT_EQ(copy.seq, 0xfffffffeu);
  EXPECT_EQ(copy.ack, 0xfffffffdu);
  EXPECT_EQ(copy.flags, message::kFlagRetransmit);
  EXPECT_EQ(copy.payload, m.payload);
}

std::vector<std::pair<node_id, node_id>> sparse_edges() {
  // An aggregator-tree shape: 0 is the root, 1 and 2 its children, 3..6
  // the leaves, edges in both directions, listed out of order.
  return {{3, 1}, {1, 0}, {0, 1}, {1, 3}, {4, 1}, {1, 4}, {0, 2},
          {2, 0}, {5, 2}, {2, 5}, {6, 2}, {2, 6}};
}

std::vector<std::pair<node_id, node_id>> star_links(std::size_t n,
                                                    node_id hub) {
  std::vector<std::pair<node_id, node_id>> out;
  for (node_id i = 0; i < n; ++i) {
    if (i == hub) continue;
    out.emplace_back(i, hub);
    out.emplace_back(hub, i);
  }
  return out;
}

bool has_link(const std::vector<std::pair<node_id, node_id>>& links,
              node_id from, node_id to) {
  for (const auto& l : links) {
    if (l == std::make_pair(from, to)) return true;
  }
  return false;
}

void expect_index_inverts_endpoints(const network& net,
                                    const std::vector<std::pair<node_id,
                                                                node_id>>&
                                        links,
                                    bool dense) {
  const std::size_t n = net.nodes();
  std::size_t real_links = 0;
  for (std::size_t idx = 0; idx < net.link_count(); ++idx) {
    const auto [from, to] = net.link_endpoints(idx);
    if (from == to) {
      EXPECT_TRUE(dense) << "self-slot " << idx << " outside dense storage";
      continue;
    }
    ++real_links;
    EXPECT_EQ(net.link_index(from, to), idx) << from << " -> " << to;
  }
  for (node_id from = 0; from < n; ++from) {
    for (node_id to = 0; to < n; ++to) {
      if (from == to) continue;
      if (dense || has_link(links, from, to)) {
        const std::size_t idx = net.link_index(from, to);
        ASSERT_LT(idx, net.link_count());
        EXPECT_EQ(net.link_endpoints(idx), std::make_pair(from, to));
      } else {
        EXPECT_THROW(net.link_index(from, to), invariant_error)
            << from << " -> " << to;
      }
    }
  }
  EXPECT_EQ(real_links, dense ? n * (n - 1) : links.size());
}

TEST(Network, LinkIndexInvertsLinkEndpointsOnEveryTopology) {
  expect_index_inverts_endpoints(network(5), {}, true);
  for (const node_id hub : {node_id{0}, node_id{2}, node_id{5}}) {
    SCOPED_TRACE(hub);
    const network star(6, hub);
    expect_index_inverts_endpoints(star, star_links(6, hub), false);
    // Links that are not in the star throw: worker -> worker, the hub to
    // itself, and anything out of range.
    EXPECT_THROW(star.link_index((hub + 1) % 6, (hub + 2) % 6),
                 invariant_error);
    EXPECT_THROW(star.link_index(hub, hub), invariant_error);
    EXPECT_THROW(star.link_index(6, hub), invariant_error);
    EXPECT_THROW(star.link_index(hub, 6), invariant_error);
  }
  expect_index_inverts_endpoints(network(7, sparse_edges()), sparse_edges(),
                                 false);
}

TEST(Network, StarCarriesOnlyHubTraffic) {
  network net(4, node_id{1});
  EXPECT_EQ(net.link_count(), 6u);
  net.send({0, 1, message_kind::local_cost, {1.0}});
  net.send({3, 1, message_kind::local_cost, {3.0}});
  net.send({1, 2, message_kind::round_info, {1.0, 2.0, 0.0}});
  EXPECT_THROW(net.send({0, 2, message_kind::local_cost, {1.0}}),
               invariant_error);
  EXPECT_EQ(net.pending_for(1), 2u);
  EXPECT_DOUBLE_EQ(net.receive_any(1)->payload[0], 1.0);
  EXPECT_DOUBLE_EQ(net.receive_any(1)->payload[0], 3.0);
  EXPECT_EQ(net.receive(2, 1)->payload.size(), 3u);
  EXPECT_EQ(net.peer_messages_sent(1), 1u);
  EXPECT_EQ(net.peer_bytes_sent(1), 44u);
  EXPECT_EQ(net.total_traffic().messages_sent, 3u);
  EXPECT_EQ(net.total_traffic().bytes_sent, 28u + 28u + 44u);
}

/// Allocations of ten send/receive cycles over `links` after one warm-up
/// cycle. A cycle puts a burst of three round_info-wide messages (the
/// widest payload) on every link, drains them by receive and receive_any,
/// and restarts the traffic counters as the clean engines do every round.
std::uint64_t steady_state_allocs(
    network& net, const std::vector<std::pair<node_id, node_id>>& links) {
  double sink = 0.0;
  const auto cycle = [&] {
    for (const auto& [from, to] : links) {
      for (int k = 0; k < 3; ++k) {
        net.send({from, to, message_kind::round_info,
                  {static_cast<double>(from), static_cast<double>(to),
                   static_cast<double>(k)}});
      }
    }
    for (const auto& [from, to] : links) {
      sink += net.receive(to, from)->payload[0];
    }
    for (node_id to = 0; to < net.nodes(); ++to) {
      while (auto m = net.receive_any(to)) sink += m->payload[2];
    }
    sink += static_cast<double>(net.total_traffic().bytes_sent);
    net.reset_traffic();
  };
  cycle();  // warm-up: every channel buffer reaches its working size
  const std::uint64_t before = allocs_now();
  for (int round = 0; round < 10; ++round) cycle();
  const std::uint64_t allocs = allocs_now() - before;
  EXPECT_GT(sink, 0.0);
  return allocs;
}

TEST(Network, SteadyStateSendReceiveAllocatesNothing) {
  std::vector<std::pair<node_id, node_id>> all_pairs;
  for (node_id f = 0; f < 6; ++f) {
    for (node_id t = 0; t < 6; ++t) {
      if (f != t) all_pairs.emplace_back(f, t);
    }
  }
  network dense(6);
  EXPECT_EQ(steady_state_allocs(dense, all_pairs), 0u);
  network star(6, node_id{2});
  EXPECT_EQ(steady_state_allocs(star, star_links(6, 2)), 0u);
  network sparse(7, sparse_edges());
  EXPECT_EQ(steady_state_allocs(sparse, sparse_edges()), 0u);
}

TEST(Network, SnapshotRejectsTotalsThatDisagreeWithPeers) {
  network net(3);
  net.send({0, 1, message_kind::local_cost, {1.0}});
  net.send({2, 1, message_kind::decision, {1.0, 2.0}});
  snapshot_writer w;
  net.snapshot_to(w);
  std::vector<std::uint8_t> bytes = w.bytes();
  {
    network back(3);
    snapshot_reader r(bytes);
    back.restore_from(r);
    EXPECT_EQ(back.peer_messages_sent(2), 1u);
    EXPECT_EQ(back.total_traffic().bytes_sent, 28u + 36u);
  }
  // The snapshot ends with the two totals and then one (messages, bytes)
  // pair per node; claim one message more than the peers sent.
  const std::size_t messages_total_at = bytes.size() - 16 * (3 + 1);
  ASSERT_EQ(bytes[messages_total_at], 2u);
  bytes[messages_total_at] = 3;
  network back(3);
  snapshot_reader r(bytes);
  EXPECT_THROW(back.restore_from(r), invariant_error);
}

}  // namespace
}  // namespace dolbie::net
