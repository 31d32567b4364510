// Socket-backed implementation of the delivery seam (net/transport.h):
// `socket_link` is the third delivery next to `direct_delivery` (fault-free
// simulation) and `reliable_link` (faulty simulation), carrying the same
// protocol messages over TCP so the unchanged mw_round/fd_round state
// machines, which take the link directly, drive a real cluster.
//
// Topology: the driving process (the master daemon, or a test) runs the
// protocol state machine for *every* node; remote worker daemons host the
// message channels. Each link (from -> to) is homed on exactly one
// process by the ownership rule
//
//     owner(to) if remote, else owner(from) if remote, else local,
//
// so in the master-driver deployment every protocol message crosses TCP —
// a send pushes the message to the channel host, a receive pulls it back.
// One TCP connection per peer plus strictly synchronous request/response
// framing preserves the simulation's pull-model ordering: a pull issued
// after a send on the same link always observes that send, which is what
// makes a loopback cluster bit-identical to the in-memory engines.
//
// Sequencing reuses reliable_link's semantics rather than its mechanism:
// TCP supplies retransmission and ordering, so the per-link sequence
// numbers exist to discard duplicates after a reconnect and to keep wire
// transcripts comparable, and `begin_round` is a delivery epoch that
// purges stale channels on the host — exactly reliable_link::begin_round.
//
// Timer modes: the default `receive_timeout == 0` is the virtual-time
// pull model (one deterministic pull per receive; a miss is the timeout —
// no wall clock consulted). A nonzero timeout is the real-timer mode: the
// receive re-pulls every `pull_interval` until a dist::wall_deadline
// expires, which is what a wide-area deployment with genuinely in-flight
// messages needs. Peer death (connection refused/reset/EOF/slow) is an
// environmental failure: the receive returns nullopt and the degraded
// round machinery — built for lossy simulation — handles it unchanged.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "net/codec.h"
#include "net/message.h"
#include "net/socket.h"

namespace dolbie::obs {
class metrics_registry;
class counter;
}  // namespace dolbie::obs

namespace dolbie::net {

// Stream frame opcodes (first body byte; the rest is opcode-specific,
// little-endian, validated hostile-input-loud on both ends).
enum class frame_op : std::uint8_t {
  hello = 1,        ///< client -> server: [u8 protocol version]
  msg = 2,          ///< client -> server: [codec::encode bytes]
  pull = 3,         ///< client -> server: [u32 to][u32 from]
  reply = 4,        ///< server -> client: [u8 has][encode bytes if has=1]
  begin_round = 5,  ///< client -> server: [u64 round]
  retire = 6,       ///< client -> server: [u32 node]
  reset = 7,        ///< client -> server: []
};

/// Protocol version in the hello frame; bumped on wire-format changes.
constexpr std::uint8_t kSocketProtocolVersion = 1;

/// Channel-host accounting (read from another thread than run()).
struct socket_server_stats {
  std::size_t connections_accepted = 0;
  std::size_t frames_received = 0;
  std::size_t messages_stored = 0;
  std::size_t pulls_served = 0;
  std::size_t empty_pulls = 0;
  std::size_t duplicates_discarded = 0;  ///< by per-link sequence check
  std::size_t stale_purged = 0;          ///< swept by begin_round epochs
  std::size_t hostile_frames = 0;        ///< malformed input; conn closed
};

/// The channel host: owns the message queues for the links homed on this
/// process and serves sends/pulls over TCP. This is what a worker daemon
/// runs; tests run it on a thread behind a loopback listener. Single
/// poll-loop threaded design — all connection and queue state is confined
/// to the run() thread; stats() and stop() are the only cross-thread
/// surfaces.
class socket_server {
 public:
  /// Binds 127.0.0.1:`port` immediately (0 = ephemeral; read port()).
  /// Throws transport_error when the bind fails.
  explicit socket_server(std::uint16_t port,
                         obs::metrics_registry* metrics = nullptr);
  ~socket_server();

  socket_server(const socket_server&) = delete;
  socket_server& operator=(const socket_server&) = delete;

  std::uint16_t port() const { return listener_.port(); }

  /// Serve until stop(). Hostile frames close their connection and count
  /// in stats().hostile_frames; they never terminate the server.
  void run();

  /// One bounded poll iteration (accept + read + serve); run() is this in
  /// a loop. Exposed so a daemon can interleave serving with housekeeping.
  void poll_once(std::chrono::milliseconds timeout);

  /// Ask run() to return; safe from any thread or a signal handler.
  void stop() { stop_.store(true, std::memory_order_relaxed); }
  bool stopped() const { return stop_.load(std::memory_order_relaxed); }

  socket_server_stats stats() const;

 private:
  struct connection {
    tcp_socket sock;
    frame_parser parser;
  };
  struct link_channel {
    std::deque<message> q;
    std::uint32_t next_expected = 1;
  };

  // Returns false when the connection must close (EOF, hostile frame,
  // write failure).
  bool service(connection& conn);
  bool handle_frame(connection& conn, const std::vector<std::uint8_t>& body);

  tcp_listener listener_;
  std::vector<connection> conns_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, link_channel> channels_;
  std::atomic<bool> stop_{false};
  mutable std::mutex mu_;  // guards stats_ only
  socket_server_stats stats_;
  obs::counter* frames_counter_ = nullptr;
  obs::counter* hostile_counter_ = nullptr;
  obs::counter* pulls_counter_ = nullptr;
};

/// One remote channel host a socket_link connects to.
struct peer_address {
  std::string host;
  std::uint16_t port = 0;
};

struct socket_link_options {
  /// Real-timer receive deadline. Zero (default) is the deterministic
  /// virtual-time mode: exactly one pull per receive, a miss is the
  /// timeout. Nonzero re-pulls every `pull_interval` until the deadline.
  std::chrono::milliseconds receive_timeout{0};
  /// Re-pull cadence of the real-timer mode.
  std::chrono::milliseconds pull_interval{2};
  /// How long to keep retrying the initial connection to each peer —
  /// daemons race each other's startup.
  std::chrono::milliseconds connect_deadline{5000};
  /// Longest wait for one reply frame before declaring the peer dead.
  std::chrono::milliseconds reply_timeout{2000};
};

/// Client-side accounting.
struct socket_link_stats {
  std::size_t messages_sent = 0;
  std::size_t messages_received = 0;
  std::size_t frames_sent = 0;
  std::size_t pulls = 0;
  std::size_t empty_pulls = 0;
  std::size_t dropped_sends = 0;   ///< sends to a peer already marked dead
  std::size_t peer_failures = 0;   ///< connections declared dead
  std::size_t stale_purged = 0;    ///< local-queue sweeps by begin_round
};

/// The driver-side transport: routes each link's traffic to its channel
/// host (a remote socket_server, or a process-local queue when both
/// endpoints are local) and implements the delivery-seam semantics over
/// it. Single-threaded like every delivery policy — one protocol state
/// machine drives it.
class socket_link {
 public:
  /// `owner[node]` is the index into `peers` hosting that node's channels,
  /// or -1 for this process. Connects to every referenced peer up front
  /// (connect_with_retry) and fails loudly — a cluster with an absent
  /// member at startup is a deployment error, not a degraded round.
  socket_link(std::size_t n_nodes, std::vector<int> owner,
              const std::vector<peer_address>& peers,
              socket_link_options options = {},
              obs::metrics_registry* metrics = nullptr);

  // Delivery-seam surface (net/transport.h semantics).
  void begin_round(std::uint64_t round);
  void send(message m);
  std::optional<message> receive(node_id to, node_id from);
  std::size_t last_receive_attempts() const { return last_receive_attempts_; }
  void retire_node(node_id id);

  /// Purge everything on both ends (sequence numbers included), like
  /// reliable_link::reset. Accounting is kept.
  void reset();

  const socket_link_stats& stats() const { return stats_; }
  std::size_t nodes() const { return n_; }
  /// Peers still connected (a dead peer degrades rounds; it never revives
  /// within a link's lifetime).
  std::size_t live_peers() const;

 private:
  std::size_t link_index(node_id from, node_id to) const {
    return from * n_ + to;
  }
  /// The peer hosting this link's channel, or -1 for the local queue.
  int channel_host(node_id from, node_id to) const {
    return owner_[to] >= 0 ? owner_[to] : owner_[from];
  }
  bool post(int peer, const std::vector<std::uint8_t>& body);
  void mark_dead(std::size_t peer);
  std::optional<std::vector<std::uint8_t>> read_reply(std::size_t peer);
  void broadcast(const std::vector<std::uint8_t>& body);

  std::size_t n_;
  std::vector<int> owner_;
  socket_link_options options_;
  std::vector<tcp_socket> conns_;
  std::vector<frame_parser> parsers_;
  std::vector<std::uint8_t> dead_;
  std::vector<std::uint32_t> next_seq_;        // n*n, client-side stamping
  std::vector<std::deque<message>> local_q_;   // n*n, both-local links
  socket_link_stats stats_;
  std::size_t last_receive_attempts_ = 0;
  obs::counter* frames_counter_ = nullptr;
  obs::counter* pulls_counter_ = nullptr;
  obs::counter* failures_counter_ = nullptr;
};

}  // namespace dolbie::net
