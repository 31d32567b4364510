// Transport conformance: the three deliveries behind the net/transport.h
// seam — direct_delivery (clean simulation), reliable_link (faulty
// simulation) and socket_link (real TCP, loopback here) — must expose the
// same observable receive/attempt behavior for the same scripted message
// set, because the round state machines are written against the seam and
// never against an implementation. Plus the socket-specific surfaces the
// simulated policies don't have: hostile-frame survival, peer death, and
// the acceptance gate — a loopback cluster reproducing the in-memory
// engines bit for bit.
#include <chrono>
#include <cmath>
#include <optional>
#include <thread>

#include <gtest/gtest.h>

#include "common/error.h"
#include "dist/cluster.h"
#include "exp/harness.h"
#include "exp/scenario.h"
#include "exp/transport.h"
#include "net/codec.h"
#include "net/network.h"
#include "net/reliable.h"
#include "net/socket.h"
#include "net/socket_delivery.h"
#include "net/transport.h"

namespace dolbie::net {
namespace {

message make_msg(node_id from, node_id to, double v) {
  return message{from, to, message_kind::local_cost, {v}};
}

/// What a policy is allowed *not* to do: direct_delivery has no epoch
/// state to purge and reports every delivery as one attempt even on a
/// miss (a miss on the clean path is a protocol bug, not a timeout).
struct conformance_caps {
  bool purges_on_begin_round = true;
  bool zero_attempts_on_miss = true;
};

/// The scripted message set every implementation must agree on. Nodes
/// 0, 1, 2; the script exercises FIFO order, link isolation, both
/// directions, the begin_round epoch and retirement.
template <typename Delivery>
void run_conformance_script(Delivery&& d, const conformance_caps& caps) {
  d.begin_round(1);

  // Per-link FIFO: two sends on 0 -> 1 come back in order.
  d.send(make_msg(0, 1, 1.5));
  d.send(make_msg(0, 1, 2.5));
  std::optional<message> m = d.receive(1, 0);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->payload, std::vector<double>{1.5});
  EXPECT_GE(d.last_receive_attempts(), 1u);
  m = d.receive(1, 0);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->payload, std::vector<double>{2.5});

  // A drained link yields nullopt; attempts report the miss.
  EXPECT_FALSE(d.receive(1, 0).has_value());
  if (caps.zero_attempts_on_miss) {
    EXPECT_EQ(d.last_receive_attempts(), 0u);
  }

  // Link isolation: traffic on 0 -> 1 is invisible everywhere else.
  d.send(make_msg(0, 1, 9.0));
  EXPECT_FALSE(d.receive(2, 0).has_value());
  EXPECT_FALSE(d.receive(1, 2).has_value());
  EXPECT_FALSE(d.receive(0, 1).has_value());
  m = d.receive(1, 0);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->payload, std::vector<double>{9.0});

  // Both directions are independent links.
  d.send(make_msg(1, 0, 3.0));
  m = d.receive(0, 1);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->payload, std::vector<double>{3.0});

  // begin_round is a delivery epoch: a message that missed its round is
  // stale and gets purged (direct_delivery exempt — no epoch state).
  d.begin_round(2);
  d.send(make_msg(0, 1, 4.0));
  d.begin_round(3);
  if (caps.purges_on_begin_round) {
    EXPECT_FALSE(d.receive(1, 0).has_value());
  } else {
    m = d.receive(1, 0);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->payload, std::vector<double>{4.0});
  }

  // Retirement drops a node's pending traffic.
  d.send(make_msg(0, 2, 5.0));
  d.retire_node(2);
  EXPECT_FALSE(d.receive(2, 0).has_value());

  // The surviving links still work after the purge and the retirement.
  d.send(make_msg(0, 1, 6.0));
  m = d.receive(1, 0);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->payload, std::vector<double>{6.0});
}

TEST(TransportConformance, DirectDelivery) {
  network net(3);
  conformance_caps caps;
  caps.purges_on_begin_round = false;  // begin_round is a no-op
  caps.zero_attempts_on_miss = false;  // always reports one attempt
  run_conformance_script(direct_delivery{net}, caps);
}

TEST(TransportConformance, ReliableDelivery) {
  network net(3);
  reliable_link link(net);
  run_conformance_script(link, {});
}

TEST(TransportConformance, SocketDeliveryAllLocal) {
  // The degenerate cluster: every link homed on the driving process.
  socket_link link(3, {-1, -1, -1}, {});
  run_conformance_script(link, {});
}

TEST(TransportConformance, SocketDeliveryLoopback) {
  // Every channel homed on a real socket_server across TCP loopback —
  // the same script, byte-for-byte the same observable behavior.
  socket_server server(0);
  std::thread serving([&] { server.run(); });
  {
    socket_link link(3, {0, 0, 0}, {{"127.0.0.1", server.port()}});
    run_conformance_script(link, {});
  }
  server.stop();
  serving.join();
  const socket_server_stats stats = server.stats();
  EXPECT_GT(stats.frames_received, 0u);
  EXPECT_GT(stats.pulls_served, 0u);
  EXPECT_EQ(stats.hostile_frames, 0u);
}

TEST(SocketTransport, HostileFramesCloseTheConnectionNotTheServer) {
  socket_server server(0);
  std::thread serving([&] { server.run(); });

  {  // A frame with a garbage opcode: connection closed, counted.
    tcp_socket hostile = connect_with_retry("127.0.0.1", server.port(),
                                            std::chrono::milliseconds(5000));
    std::vector<std::uint8_t> wire;
    append_frame(wire, std::vector<std::uint8_t>{0xff, 0x01, 0x02});
    hostile.write_all(wire.data(), wire.size());
    std::uint8_t buf[16];
    const read_result r =
        hostile.read_some(buf, sizeof(buf), std::chrono::milliseconds(5000));
    EXPECT_TRUE(r.eof);  // server hung up on us
  }
  {  // A hostile length prefix (larger than kMaxFrameBytes): same fate.
    tcp_socket hostile = connect_with_retry("127.0.0.1", server.port(),
                                            std::chrono::milliseconds(5000));
    const std::uint8_t prefix[4] = {0xff, 0xff, 0xff, 0xff};
    hostile.write_all(prefix, sizeof(prefix));
    std::uint8_t buf[16];
    const read_result r =
        hostile.read_some(buf, sizeof(buf), std::chrono::milliseconds(5000));
    EXPECT_TRUE(r.eof);
  }

  // The server survived both and still serves a well-behaved client.
  {
    socket_link link(2, {0, 0}, {{"127.0.0.1", server.port()}});
    link.begin_round(1);
    link.send(make_msg(0, 1, 7.0));
    const std::optional<message> m = link.receive(1, 0);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->payload, std::vector<double>{7.0});
  }
  server.stop();
  serving.join();
  EXPECT_EQ(server.stats().hostile_frames, 2u);
}

TEST(SocketTransport, PeerDeathDegradesReceivesToNullopt) {
  // A daemon dying mid-run must look exactly like loss: nullopt receives
  // (which the degraded round machinery absorbs), never a crash or hang.
  socket_server server(0);
  std::thread serving([&] { server.run(); });
  socket_link link(2, {0, 0}, {{"127.0.0.1", server.port()}});
  link.begin_round(1);
  link.send(make_msg(0, 1, 1.0));
  ASSERT_TRUE(link.receive(1, 0).has_value());
  EXPECT_EQ(link.live_peers(), 1u);

  server.stop();
  serving.join();  // connections die with the server

  link.send(make_msg(0, 1, 2.0));   // flushed into a dead socket, or
  link.send(make_msg(0, 1, 3.0));   // dropped once the death is noticed
  EXPECT_FALSE(link.receive(1, 0).has_value());
  EXPECT_EQ(link.last_receive_attempts(), 0u);
  EXPECT_EQ(link.live_peers(), 0u);
  EXPECT_GT(link.stats().peer_failures, 0u);
}

TEST(SocketTransport, RealTimerModeStillDelivers) {
  // Nonzero receive_timeout switches to wall-clock re-pulling; on a
  // healthy loopback it must deliver just like the virtual-time mode.
  socket_server server(0);
  std::thread serving([&] { server.run(); });
  {
    socket_link_options opts;
    opts.receive_timeout = std::chrono::milliseconds(200);
    opts.pull_interval = std::chrono::milliseconds(1);
    socket_link link(2, {0, 0}, {{"127.0.0.1", server.port()}}, opts);
    link.begin_round(1);
    link.send(make_msg(0, 1, 11.0));
    const std::optional<message> m = link.receive(1, 0);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->payload, std::vector<double>{11.0});
    // An empty link burns the deadline (several pulls), then reports the
    // miss the same way the virtual-time mode does.
    EXPECT_FALSE(link.receive(1, 0).has_value());
    EXPECT_EQ(link.last_receive_attempts(), 0u);
    EXPECT_GT(link.stats().empty_pulls, 1u);
  }
  server.stop();
  serving.join();
}

}  // namespace
}  // namespace dolbie::net

namespace dolbie::dist {
namespace {

/// The acceptance gate in test form: a loopback cluster — every channel
/// hosted by real socket_servers over TCP — must reproduce the in-memory
/// engine's cumulative cost and per-round iterates bit for bit.
void check_cluster_matches_memory(cluster_mode mode) {
  constexpr std::size_t kWorkers = 6;
  constexpr std::size_t kRounds = 12;
  constexpr std::uint64_t kSeed = 11;

  net::socket_server host_a(0);
  net::socket_server host_b(0);
  std::thread serve_a([&] { host_a.run(); });
  std::thread serve_b([&] { host_b.run(); });

  exp::harness_options hopts;
  hopts.rounds = kRounds;
  hopts.record_allocations = true;

  exp::transport_spec tcp_spec;
  tcp_spec.kind = exp::transport_kind::tcp;
  tcp_spec.mode = mode;
  tcp_spec.peers = {{"127.0.0.1", host_a.port()},
                    {"127.0.0.1", host_b.port()}};
  auto cluster = exp::make_transport_policy(kWorkers, tcp_spec, nullptr);
  auto env = exp::make_synthetic_environment(
      kWorkers, exp::synthetic_family::affine, kSeed);
  const exp::run_trace live = exp::run(*cluster, *env, hopts);

  exp::transport_spec memory_spec;
  memory_spec.mode = mode;
  auto reference = exp::make_transport_policy(kWorkers, memory_spec, nullptr);
  auto replay = exp::make_synthetic_environment(
      kWorkers, exp::synthetic_family::affine, kSeed);
  const exp::run_trace expected = exp::run(*reference, *replay, hopts);

  host_a.stop();
  host_b.stop();
  serve_a.join();
  serve_b.join();

  // Bit-exact: the wire must change nothing.
  EXPECT_EQ(live.global_cost.total(), expected.global_cost.total());
  ASSERT_EQ(live.allocations.size(), expected.allocations.size());
  for (std::size_t t = 0; t < kRounds; ++t) {
    EXPECT_EQ(live.allocations[t], expected.allocations[t]) << "round " << t;
  }

  // And it really went over TCP: a healthy run degrades nothing.
  auto* policy = static_cast<cluster_policy*>(cluster.get());
  EXPECT_GT(policy->link_stats().messages_sent, 0u);
  EXPECT_EQ(policy->link_stats().dropped_sends, 0u);
  EXPECT_EQ(policy->faults().degraded_rounds, 0u);
  EXPECT_EQ(host_a.stats().hostile_frames, 0u);
  EXPECT_EQ(host_b.stats().hostile_frames, 0u);
  EXPECT_GT(host_a.stats().pulls_served, 0u);
  EXPECT_GT(host_b.stats().pulls_served, 0u);
}

TEST(SocketCluster, MasterWorkerMatchesInMemoryBitForBit) {
  check_cluster_matches_memory(cluster_mode::master_worker);
}

TEST(SocketCluster, FullyDistributedMatchesInMemoryBitForBit) {
  check_cluster_matches_memory(cluster_mode::fully_distributed);
}

TEST(SocketCluster, AllLocalClusterMatchesInMemoryToo) {
  // No peers at all: the degenerate single-process cluster over local
  // queues — the cheapest determinism check, no sockets involved.
  constexpr std::size_t kWorkers = 5;
  exp::harness_options hopts;
  hopts.rounds = 10;
  hopts.record_allocations = true;

  for (cluster_mode mode :
       {cluster_mode::master_worker, cluster_mode::fully_distributed}) {
    exp::transport_spec tcp_spec;
    tcp_spec.kind = exp::transport_kind::tcp;
    tcp_spec.mode = mode;  // no peers: everything local
    auto cluster = exp::make_transport_policy(kWorkers, tcp_spec, nullptr);
    auto env = exp::make_synthetic_environment(
        kWorkers, exp::synthetic_family::power, 3);
    const exp::run_trace live = exp::run(*cluster, *env, hopts);

    exp::transport_spec memory_spec;
    memory_spec.mode = mode;
    auto reference =
        exp::make_transport_policy(kWorkers, memory_spec, nullptr);
    auto replay = exp::make_synthetic_environment(
        kWorkers, exp::synthetic_family::power, 3);
    const exp::run_trace expected = exp::run(*reference, *replay, hopts);

    EXPECT_EQ(live.global_cost.total(), expected.global_cost.total());
    for (std::size_t t = 0; t < live.allocations.size(); ++t) {
      EXPECT_EQ(live.allocations[t], expected.allocations[t]);
    }
  }
}

TEST(SocketCluster, RejectsOffSimplexInitialPartition) {
  // The cluster validates x_1 like the in-memory engines do: an allocation
  // summing to 1.5 is refused at construction, never played at round 0.
  // No peers, so no sockets are opened.
  for (cluster_mode mode :
       {cluster_mode::master_worker, cluster_mode::fully_distributed}) {
    cluster_options copts;
    copts.mode = mode;
    copts.initial_partition = {0.5, 0.5, 0.5};
    EXPECT_THROW(cluster_policy(3, copts), invariant_error);
  }
}

TEST(SocketCluster, DeadDaemonDegradesTheRoundNotTheProcess) {
  // Kill the only channel host mid-run: every subsequent round must
  // degrade (holds / failover / abort) while the policy keeps serving
  // finite simplex-feasible iterates — daemon death is an environmental
  // failure, not a crash.
  constexpr std::size_t kWorkers = 4;
  net::socket_server host(0);
  std::thread serving([&] { host.run(); });

  cluster_options copts;
  copts.mode = cluster_mode::master_worker;
  copts.peers = {{"127.0.0.1", host.port()}};
  cluster_policy policy(kWorkers, copts);
  auto env = exp::make_synthetic_environment(
      kWorkers, exp::synthetic_family::affine, 7);

  exp::harness_options hopts;
  hopts.rounds = 4;
  const exp::run_trace healthy = exp::run(policy, *env, hopts);
  EXPECT_EQ(policy.faults().degraded_rounds, 0u);
  EXPECT_GT(healthy.global_cost.total(), 0.0);

  host.stop();
  serving.join();

  // Same policy, channel host gone: every receive misses, every round
  // degrades, and the run still completes with finite simplex iterates.
  hopts.rounds = 3;
  const exp::run_trace degraded = exp::run(policy, *env, hopts);
  EXPECT_TRUE(std::isfinite(degraded.global_cost.total()));
  const core::allocation& x = policy.current();
  double sum = 0.0;
  for (double v : x) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(policy.faults().degraded_rounds, 0u);
  EXPECT_GT(policy.link_stats().dropped_sends +
                policy.link_stats().peer_failures,
            0u);
}

}  // namespace
}  // namespace dolbie::dist
