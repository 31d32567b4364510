// Round-latency benchmark: times DOLBIE's user-facing round — from
// the moment a round's costs are revealed to the moment every worker holds
// x_{t+1} — on three closed-loop workloads, checks every round against an
// in-memory oracle, and (with --trace 1) splits the round by layer.
//
//   $ roundbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (see roundbench/README.md for why each was chosen):
//   mw-flat-10k       dist::master_worker_policy, N = 10^4, fault-free
//   fd-hier-4k-lossy  shard::hierarchical_engine (FD), N = 4096 as 64
//                     shards of 64, pool width 2, seeded drop rate 0.01
//   mw-tcp-256        dist::cluster_policy (MW), N = 256, over two
//                     in-process net::socket_server hosts on 127.0.0.1,
//                     all threads on one CPU at a time (see cpu_rotor)
//
// The loop is closed: round t+1's costs exist only after x_{t+1} is
// decided, so one thread plays every round. A run builds the system
// once (construction, connecting, warm-up rounds: the set-up time) and
// plays measured rounds until --seconds have passed, timing observe()
// alone. Cost generation, scoring and the correctness checks happen outside
// the timed window. Further set-ups, spread over the run, give the
// set-up time its median.
//
// The last line of standard output is one JSON object with the keys
// correct/attempted/failed/metrics; the line before it records the host.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/simplex.h"
#include "core/dolbie.h"
#include "core/max_acceptable.h"
#include "core/policy.h"
#include "cost/batch.h"
#include "cost/cost_function.h"
#include "dist/cluster.h"
#include "dist/master_worker.h"
#include "exp/scenario.h"
#include "exp/transport.h"
#include "net/network.h"
#include "net/socket.h"
#include "net/socket_delivery.h"
#include "obs/trace.h"
#include "shard/hierarchical_engine.h"

#ifndef ROUNDBENCH_COMPILER
#define ROUNDBENCH_COMPILER "unknown"
#endif
#ifndef ROUNDBENCH_BUILD_TYPE
#define ROUNDBENCH_BUILD_TYPE "unknown"
#endif

// ---------------------------------------------------------------------------
// Counting allocator: every global new in this binary bumps a counter, so
// dist.allocs_per_round is an exact count over all threads.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, ((size ? size : 1) + a - 1) / a * a)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// GCC pairs the free() below, once inlined into a new-expression's cleanup,
// with the replaced operator new and warns; both sides are malloc/free.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  ::operator delete(p);
}

namespace {

using namespace dolbie;
using steady = std::chrono::steady_clock;

double ms_between(steady::time_point a, steady::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Consecutive measured rounds that share one median in round_median.
constexpr std::size_t kChunkRounds = 20;

/// The median round time of each chunk of kChunkRounds consecutive rounds,
/// averaged over the chunks. The host this runs on switches between a
/// fast and a slow level (see README.md, "Host"), and the share of time
/// it spends slow differs from run to run; the plain median of a run jumps
/// from one level to the other as that share crosses one half, while this
/// estimate moves with it in proportion. Within a chunk it is still a
/// median, so a single stalled round does not move it.
double round_median(const std::vector<double>& rounds) {
  std::vector<double> chunk_medians;
  for (auto it = rounds.begin();
       rounds.end() - it >= static_cast<std::ptrdiff_t>(kChunkRounds);
       it += kChunkRounds) {
    chunk_medians.push_back(median({it, it + kChunkRounds}));
  }
  return chunk_medians.empty() ? median(rounds) : mean(chunk_medians);
}

/// FNV-1a over the bit patterns of an allocation: equal hashes are the
/// bit-for-bit comparison the correctness gate needs, without keeping
/// every iterate of a run in memory.
std::uint64_t hash_allocation(const core::allocation& x) {
  std::uint64_t h = 1469598103934665603ull;
  for (double v : x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class engine_kind { mw_flat, fd_hier, mw_tcp };

struct workload {
  std::string_view name;
  engine_kind kind;
  std::size_t n;
  std::size_t warmup;      ///< set-up rounds before measuring
  std::size_t rounds;      ///< oracle-checked window (cum_cost) after them
  std::size_t pool_width;  ///< threads driving one round
  std::size_t hosts;       ///< in-process TCP channel hosts
  /// Run the round's threads on one CPU at a time (see cpu_rotor).
  bool one_cpu;
};

constexpr std::size_t kShardSize = 64;
constexpr double kDropRate = 0.01;
/// p90 needs at least ten samples beyond it.
constexpr std::size_t kMinMeasuredRounds = 100;

constexpr workload kWorkloads[] = {
    {"mw-flat-10k", engine_kind::mw_flat, 10000, 10, 200, 1, 0, false},
    {"fd-hier-4k-lossy", engine_kind::fd_hier, 4096, 5, 60, 2, 0, false},
    {"mw-tcp-256", engine_kind::mw_tcp, 256, 10, 300, 1, 2, true},
};

std::unique_ptr<exp::environment> make_env(const workload& w,
                                           std::uint64_t seed) {
  return exp::make_synthetic_environment(w.n, exp::synthetic_family::mixed,
                                         seed);
}

shard::hierarchical_options hier_options(std::size_t threads) {
  shard::hierarchical_options o;
  o.mode = shard::shard_protocol::fully_distributed;
  o.plan.shard_size = kShardSize;
  o.threads = threads;
  return o;
}

// ---------------------------------------------------------------------------
// Systems under test
// ---------------------------------------------------------------------------

/// Cumulative counters of one system; per-round figures are deltas.
/// `msgs` is the single definition of protocol traffic: messages the
/// protocol sent, retransmissions excluded (they count in `retransmits`).
struct tally {
  double msgs = 0.0;
  double transmissions = 0.0;  ///< every wire send, retransmissions included
  double retransmits = 0.0;
  double degraded = 0.0;       ///< degraded or aborted rounds
  double link_failures = 0.0;  ///< socket peer failures + dropped sends
  double frames = 0.0;
  double pulls = 0.0;
  double empty_pulls = 0.0;
  double host_frames = 0.0;
};

class system_under_test {
 public:
  virtual ~system_under_test() = default;
  virtual core::online_policy& policy() = 0;
  /// Fold the round just observed into the cumulative tally (flat engines
  /// reset their traffic every clean round, so they accumulate here).
  virtual void account() {}
  virtual tally totals() const = 0;
  /// Protocol bytes and busiest-node messages of the last round, for
  /// engines whose own counters carry no retransmissions; nullopt when
  /// they come from the workload's fault-free twin instead.
  virtual std::optional<std::pair<double, double>> last_round_node_traffic() {
    return std::nullopt;
  }
  /// Threads the system started that serve its rounds.
  virtual void append_threads(std::vector<pthread_t>& out) { (void)out; }
};

class mw_flat_system final : public system_under_test {
 public:
  mw_flat_system(std::size_t n, obs::tracer* tracer)
      : policy_(n, [tracer] {
          dist::protocol_options o;
          o.tracer = tracer;
          return o;
        }()) {}

  core::online_policy& policy() override { return policy_; }
  void account() override {
    const net::traffic_totals& t = policy_.last_round_traffic();
    tally_.msgs += static_cast<double>(t.messages_sent);
    tally_.transmissions += static_cast<double>(t.messages_sent);
    tally_.degraded = static_cast<double>(policy_.faults().degraded_rounds);
  }
  tally totals() const override { return tally_; }
  std::optional<std::pair<double, double>> last_round_node_traffic() override {
    // The clean path resets its per-peer counters every round.
    net::network& net = policy_.transport();
    std::uint64_t busiest = 0;
    for (net::node_id i = 0; i < net.nodes(); ++i) {
      busiest = std::max(busiest, net.peer_messages_sent(i));
    }
    return std::pair{
        static_cast<double>(policy_.last_round_traffic().bytes_sent),
        static_cast<double>(busiest)};
  }

 private:
  dist::master_worker_policy policy_;
  tally tally_;
};

class fd_hier_system final : public system_under_test {
 public:
  fd_hier_system(std::size_t n, std::size_t threads, std::uint64_t seed,
                 obs::tracer* tracer)
      : engine_(n, [&] {
          shard::hierarchical_options o = hier_options(threads);
          o.protocol.faults.drop_rate = kDropRate;
          o.protocol.faults.seed = seed + 1;
          o.protocol.tracer = tracer;
          return o;
        }()) {}

  core::online_policy& policy() override { return engine_; }
  tally totals() const override {
    const net::traffic_totals t = engine_.total_traffic();
    const dist::fault_report& r = engine_.report();
    tally out;
    out.transmissions = static_cast<double>(t.messages_sent);
    out.retransmits = static_cast<double>(r.retransmits);
    out.msgs = out.transmissions - out.retransmits;
    out.degraded = static_cast<double>(r.degraded_rounds + r.aborted_rounds);
    return out;
  }

 private:
  shard::hierarchical_engine engine_;
};

/// Two loopback channel hosts, each served by its own thread; stopped and
/// joined on destruction (also when the cluster fails to connect).
class host_group {
 public:
  explicit host_group(std::size_t count) {
    for (std::size_t h = 0; h < count; ++h) {
      hosts_.push_back(std::make_unique<net::socket_server>(0));
    }
    for (auto& host : hosts_) {
      net::socket_server* s = host.get();
      threads_.emplace_back([this, s] {
        try {
          s->run();
        } catch (const std::exception&) {
          failed_.store(true, std::memory_order_relaxed);
        }
      });
    }
  }
  ~host_group() {
    for (auto& host : hosts_) host->stop();
    for (auto& t : threads_) t.join();
  }
  host_group(const host_group&) = delete;
  host_group& operator=(const host_group&) = delete;

  std::vector<net::peer_address> peers() const {
    std::vector<net::peer_address> out;
    for (const auto& host : hosts_) out.push_back({"127.0.0.1", host->port()});
    return out;
  }
  double frames_received() const {
    double sum = 0.0;
    for (const auto& host : hosts_) {
      sum += static_cast<double>(host->stats().frames_received);
    }
    return sum;
  }
  bool failed() const { return failed_.load(std::memory_order_relaxed); }
  void append_threads(std::vector<pthread_t>& out) {
    for (auto& t : threads_) out.push_back(t.native_handle());
  }

 private:
  std::vector<std::unique_ptr<net::socket_server>> hosts_;
  std::vector<std::thread> threads_;
  std::atomic<bool> failed_{false};
};

class mw_tcp_system final : public system_under_test {
 public:
  mw_tcp_system(std::size_t n, std::size_t hosts, obs::tracer* tracer)
      : hosts_(hosts) {
    dist::cluster_options o;
    o.mode = dist::cluster_mode::master_worker;
    o.peers = hosts_.peers();
    o.tracer = tracer;
    policy_ = std::make_unique<dist::cluster_policy>(n, o);
  }

  core::online_policy& policy() override { return *policy_; }
  tally totals() const override {
    const net::socket_link_stats& s = policy_->link_stats();
    const dist::fault_report& r = policy_->faults();
    tally out;
    out.msgs = static_cast<double>(s.messages_sent);
    out.transmissions = out.msgs;
    out.degraded = static_cast<double>(r.degraded_rounds + r.aborted_rounds);
    out.link_failures = static_cast<double>(s.peer_failures + s.dropped_sends) +
                        (hosts_.failed() ? 1.0 : 0.0);
    out.frames = static_cast<double>(s.frames_sent);
    out.pulls = static_cast<double>(s.pulls);
    out.empty_pulls = static_cast<double>(s.empty_pulls);
    out.host_frames = hosts_.frames_received();
    return out;
  }
  void append_threads(std::vector<pthread_t>& out) override {
    hosts_.append_threads(out);
  }

 private:
  host_group hosts_;  // declared first: outlives the connections to it
  std::unique_ptr<dist::cluster_policy> policy_;
};

std::unique_ptr<system_under_test> make_system(const workload& w,
                                               std::uint64_t seed,
                                               obs::tracer* tracer) {
  switch (w.kind) {
    case engine_kind::mw_flat:
      return std::make_unique<mw_flat_system>(w.n, tracer);
    case engine_kind::fd_hier:
      return std::make_unique<fd_hier_system>(w.n, w.pool_width, seed,
                                              tracer);
    case engine_kind::mw_tcp:
      return std::make_unique<mw_tcp_system>(w.n, w.hosts, tracer);
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Reference pass: the correctness oracle of each workload, run once per
// process over the same inputs, untimed.
//   mw-flat-10k       core::dolbie_policy (the sequential algorithm)
//   fd-hier-4k-lossy  the same engine, fault-free, pool width 1
//   mw-tcp-256        the in-memory MW engine of exp::make_transport_policy
// The two protocol twins also give the protocol traffic per round and per
// node with no retransmission in it.
// ---------------------------------------------------------------------------

struct reference {
  std::vector<std::uint64_t> played;  ///< hash of x_t, warm-up + window
  std::uint64_t final_hash = 0;       ///< hash of x_{t+1} after the window
  double cum_cost = 0.0;              ///< over the window
  std::vector<double> msgs;           ///< protocol messages per round
  std::vector<double> bytes;          ///< protocol bytes per round
  std::vector<double> busiest;        ///< max messages of one node per round
};

/// Cumulative per-node sends and totals of a protocol twin.
struct twin_counters {
  std::function<void(std::vector<std::uint64_t>&)> per_node;
  std::function<net::traffic_totals()> totals;
};

reference run_reference(const workload& w, std::uint64_t seed) {
  std::unique_ptr<core::online_policy> policy;
  twin_counters twin;
  switch (w.kind) {
    case engine_kind::mw_flat:
      policy = std::make_unique<core::dolbie_policy>(w.n);
      break;
    case engine_kind::fd_hier: {
      auto e = std::make_unique<shard::hierarchical_engine>(w.n,
                                                            hier_options(1));
      shard::hierarchical_engine* h = e.get();
      twin.per_node = [h](std::vector<std::uint64_t>& out) {
        out.clear();
        for (core::worker_id i = 0; i < h->workers(); ++i) {
          out.push_back(h->worker_messages_sent(i));
        }
        for (std::size_t a = 0; a < h->plan().aggregators(); ++a) {
          out.push_back(h->aggregator_messages_sent(a));
        }
      };
      twin.totals = [h] { return h->total_traffic(); };
      policy = std::move(e);
      break;
    }
    case engine_kind::mw_tcp: {
      exp::transport_spec spec;
      spec.mode = dist::cluster_mode::master_worker;
      policy = exp::make_transport_policy(w.n, spec, nullptr);
      auto* mw = dynamic_cast<dist::master_worker_policy*>(policy.get());
      if (mw == nullptr) throw std::logic_error("memory twin is not MW");
      twin.per_node = [mw](std::vector<std::uint64_t>& out) {
        out.clear();
        for (net::node_id i = 0; i < mw->transport().nodes(); ++i) {
          out.push_back(mw->transport().peer_messages_sent(i));
        }
      };
      twin.totals = [mw] { return mw->transport().total_traffic(); };
      break;
    }
  }

  reference ref;
  auto env = make_env(w, seed);
  cost::cost_view view;
  std::vector<std::uint64_t> before, after;
  for (std::size_t t = 0; t < w.warmup + w.rounds; ++t) {
    const cost::cost_vector costs = env->next_round();
    cost::view_into(costs, view);
    ref.played.push_back(hash_allocation(policy->current()));
    const core::round_outcome out =
        core::evaluate_round(view, policy->current());
    if (t >= w.warmup) ref.cum_cost += out.global_cost;
    net::traffic_totals t0{};
    if (twin.per_node) {
      twin.per_node(before);
      t0 = twin.totals();
    }
    policy->observe({&view, out.local_costs});
    if (twin.per_node) {
      twin.per_node(after);
      const net::traffic_totals t1 = twin.totals();
      std::uint64_t busiest = 0;
      for (std::size_t i = 0; i < after.size(); ++i) {
        busiest = std::max(busiest, after[i] - before[i]);
      }
      ref.msgs.push_back(static_cast<double>(t1.messages_sent) -
                         static_cast<double>(t0.messages_sent));
      ref.bytes.push_back(static_cast<double>(t1.bytes_sent) -
                          static_cast<double>(t0.bytes_sent));
      ref.busiest.push_back(static_cast<double>(busiest));
    }
  }
  ref.final_hash = hash_allocation(policy->current());
  return ref;
}

// ---------------------------------------------------------------------------
// Traced split: per-layer figures from the engines' own spans.
// ---------------------------------------------------------------------------

/// Length of the union of [a, b) intervals.
double union_length(std::vector<std::pair<double, double>>& iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  double cur_a = 0.0, cur_b = -1.0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (!open || a > cur_b) {
      if (open) total += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (open) total += cur_b - cur_a;
  return total;
}

/// One round's span split, in milliseconds.
struct span_split {
  double mw_phase[4] = {0, 0, 0, 0};
  double fd_phase[2] = {0, 0};
  double tree_reduce = 0.0;
  double tree_broadcast = 0.0;
  double shard_serial = 0.0;
  double dropped = 0.0;  ///< message_dropped instants
};

/// A span's self time is its duration minus the part of it its child spans
/// cover. Children live on the parent's lane, except that a "round" span
/// parents the spans of every lane: the hierarchical engine's shards record
/// on lanes of their own while its round span waits for them.
span_split split_round(const std::vector<obs::trace_record>& recs) {
  span_split out;
  std::vector<const obs::trace_record*> spans;
  for (const auto& r : recs) {
    if (r.kind == obs::record_kind::span) {
      spans.push_back(&r);
    } else if (r.name == "message_dropped") {
      out.dropped += 1.0;
    }
  }
  std::vector<std::pair<double, double>> iv;
  const auto self_ms = [&](const obs::trace_record& s) {
    iv.clear();
    const double end = s.ts + s.dur;
    for (const obs::trace_record* c : spans) {
      if (c == &s) continue;
      if (c->lane != s.lane && s.name != "round") continue;
      if (c->lane == s.lane && c->seq <= s.seq) continue;  // not nested
      const double c_end = c->ts + c->dur;
      if (c->ts < s.ts || c_end > end) continue;
      iv.emplace_back(c->ts, c_end);
    }
    return (s.dur - union_length(iv)) / 1e3;
  };
  for (const obs::trace_record* s : spans) {
    const std::string& n = s->name;
    const int phase =
        n.size() > 6 && n.compare(0, 5, "phase") == 0 && n[6] == '.'
            ? n[5] - '0'
            : 0;
    if (s->category == "mw" && phase >= 1 && phase <= 4) {
      out.mw_phase[phase - 1] += self_ms(*s);
    } else if (s->category == "fd" && phase >= 1 && phase <= 2) {
      out.fd_phase[phase - 1] += self_ms(*s);
    } else if (n.rfind("tree.reduce.", 0) == 0) {
      out.tree_reduce += s->dur / 1e3;
    } else if (n.rfind("tree.broadcast.", 0) == 0) {
      out.tree_broadcast += s->dur / 1e3;
    } else if (n == "round" && s->category == "shard") {
      out.shard_serial += self_ms(*s);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Probes: single-layer timings that call only public functions.
// ---------------------------------------------------------------------------

/// ns for one network::send plus receive on the workload's topology.
double probe_msg_ns(const workload& w) {
  const bool dense = w.kind == engine_kind::fd_hier;
  const std::size_t nodes = dense ? kShardSize : w.n + 1;
  net::network net = dense ? net::network(nodes)
                           : net::network(nodes, static_cast<net::node_id>(
                                                     w.n));
  const std::size_t workers = dense ? nodes : w.n;
  constexpr std::size_t kPerBatch = 100000;
  std::vector<double> batches;
  double sink = 0.0;
  for (int b = 0; b < 5; ++b) {
    const auto t0 = steady::now();
    for (std::size_t k = 0; k < kPerBatch; ++k) {
      const auto from = static_cast<net::node_id>(k % workers);
      const auto to = dense ? static_cast<net::node_id>((from + 1) % nodes)
                            : static_cast<net::node_id>(w.n);
      net.send({from, to, net::message_kind::local_cost,
                {static_cast<double>(k)}});
      sink += net.receive(to, from)->payload[0];
    }
    batches.push_back(ms_between(t0, steady::now()) * 1e6 /
                      static_cast<double>(kPerBatch));
  }
  if (sink < 0.0) std::cerr << "";
  return median(batches);
}

/// us for one socket_link send plus pull against one in-process host.
double probe_socket_rtt_us() {
  host_group hosts(1);
  net::socket_link link(2, {0, 0}, hosts.peers());
  constexpr std::size_t kPerBatch = 400;
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    const auto t0 = steady::now();
    for (std::size_t k = 0; k < kPerBatch; ++k) {
      link.send({1, 0, net::message_kind::local_cost,
                 {static_cast<double>(k)}});
      if (!link.receive(0, 1).has_value()) {
        throw std::runtime_error("socket probe lost a message");
      }
    }
    batches.push_back(ms_between(t0, steady::now()) * 1e3 /
                      static_cast<double>(kPerBatch));
  }
  return median(batches);
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

struct run_state {
  // End-to-end figures, from the untraced system.
  std::vector<double> round_ms;
  std::vector<double> cpu_ms;
  std::vector<double> setup_s;
  double msgs = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;

  // Per-layer figures (--trace 1): the untraced system's allocations and
  // CPU, the traced system's spans and counters, and the probes.
  double allocs = 0.0;
  std::vector<double> traced_round_ms;
  std::vector<double> gen_ms, eq4_ms, seq_ms;
  std::vector<double> mw_phase[4], fd_phase[2];
  std::vector<double> tree_reduce, tree_broadcast, shard_serial;
  std::vector<double> bytes, busiest;
  double retransmits = 0.0, transmissions = 0.0, dropped = 0.0;
  double frames = 0.0, pulls = 0.0, empty_pulls = 0.0, host_frames = 0.0;

  void fail(std::string what) {
    correct = false;
    if (errors.size() < 8) errors.push_back(std::move(what));
  }
};

/// Shadow sequential policy and Eq. 4 evaluator for the traced probes.
struct layer_probes {
  core::dolbie_policy seq;
  cost::batch_evaluator batch;
  std::vector<double> xp;
  explicit layer_probes(std::size_t n) : seq(n) {}
};

/// One system under test with its own input stream; `tracer` is set when
/// it records the engine's spans.
struct instance {
  std::unique_ptr<obs::tracer> tracer;
  std::unique_ptr<exp::environment> env;
  cost::cost_vector costs;
  cost::cost_view view;
  std::unique_ptr<system_under_test> sys;
  std::size_t t = 0;        ///< next round index
  double setup_ms = 0.0;    ///< construction plus warm-up rounds
  double window_cost = 0.0; ///< cumulative cost over the oracle's window
};

/// What one round of one instance measured.
struct round_sample {
  double gen_ms = 0.0;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  double allocs = 0.0;
  tally before, after;
};

/// Generate round t's costs, check and score x_t, then play the round,
/// timing observe() alone. `probes` (traced runs) time the single-layer
/// probes on the same inputs first. Returns nullopt when the round hit a
/// transport error, which ends the run.
std::optional<round_sample> play_round(const workload& w, instance& in,
                                       const reference& ref, run_state& st,
                                       layer_probes* probes) {
  const std::size_t t = in.t++;
  const std::string where = "round " + std::to_string(t) + ": ";
  round_sample r;
  const auto gen_begin = steady::now();
  in.costs = in.env->next_round();
  cost::view_into(in.costs, in.view);
  r.gen_ms = ms_between(gen_begin, steady::now());

  core::online_policy& policy = in.sys->policy();
  const core::allocation& x = policy.current();
  bool ok = true;
  if (!on_simplex(x)) {
    ok = false;
    st.fail(where + "x_t left the simplex");
  }
  if (t < ref.played.size() && hash_allocation(x) != ref.played[t]) {
    ok = false;
    st.fail(where + "x_t differs from the oracle");
  }
  const core::round_outcome out = core::evaluate_round(in.view, x);
  if (t >= w.warmup && t < ref.played.size()) {
    in.window_cost += out.global_cost;
  }

  if (probes != nullptr) {
    const auto e0 = steady::now();
    probes->batch.rebind(in.view);
    core::max_acceptable_vector_into(probes->batch, x, out.global_cost,
                                     out.straggler, probes->xp);
    st.eq4_ms.push_back(ms_between(e0, steady::now()));
    const core::round_outcome seq_out =
        core::evaluate_round(in.view, probes->seq.current());
    const auto s0 = steady::now();
    probes->seq.observe({&in.view, seq_out.local_costs});
    st.seq_ms.push_back(ms_between(s0, steady::now()));
  }

  r.before = in.sys->totals();
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const double cpu0 = process_cpu_ms();
  const auto t0 = steady::now();
  try {
    policy.observe({&in.view, out.local_costs});
  } catch (const net::transport_error& e) {
    st.attempted += 1;
    st.failed += 1;
    st.fail(where + "transport error: " + e.what());
    return std::nullopt;
  }
  const auto t1 = steady::now();
  const double cpu1 = process_cpu_ms();
  const std::uint64_t allocs1 = g_allocs.load(std::memory_order_relaxed);
  in.sys->account();
  r.after = in.sys->totals();
  r.wall_ms = ms_between(t0, t1);
  r.cpu_ms = cpu1 - cpu0;
  r.allocs = static_cast<double>(allocs1 - allocs0);

  st.attempted += 1;
  if (r.after.degraded > r.before.degraded ||
      r.after.link_failures > r.before.link_failures) {
    ok = false;
    st.fail(where + "degraded");
  }
  const double msgs = r.after.msgs - r.before.msgs;
  if (t < ref.msgs.size() && msgs != ref.msgs[t]) {
    ok = false;
    st.fail(where + "protocol sent " + std::to_string(msgs) +
            " messages, the fault-free twin " + std::to_string(ref.msgs[t]));
  }
  if (t + 1 == ref.played.size() &&
      hash_allocation(policy.current()) != ref.final_hash) {
    ok = false;
    st.fail(where + "x_{t+1} differs from the oracle");
  }
  if (!ok) st.failed += 1;
  return r;
}

/// Build a system and play its warm-up rounds: the set-up a user pays
/// before the first measured round. nullopt when set-up failed.
std::optional<instance> set_up(const workload& w, std::uint64_t seed,
                               bool traced, const reference& ref,
                               run_state& st) {
  instance in;
  if (traced) {
    in.tracer = std::make_unique<obs::tracer>(
        obs::tracer_options{obs::clock_kind::wall, 0});
  }
  in.env = make_env(w, seed);
  const auto t0 = steady::now();
  try {
    in.sys = make_system(w, seed, in.tracer.get());
  } catch (const net::transport_error& e) {
    st.attempted += 1;
    st.failed += 1;
    st.fail(std::string("set-up failed: ") + e.what());
    return std::nullopt;
  }
  in.setup_ms = ms_between(t0, steady::now());
  while (in.t < w.warmup) {
    const std::optional<round_sample> r = play_round(w, in, ref, st, nullptr);
    if (!r) return std::nullopt;
    in.setup_ms += r->wall_ms;
    if (in.tracer) in.tracer->clear();
  }
  return in;
}

/// Set-up samples per untraced run: the measured system's own plus fresh
/// ones spread evenly over the measured period (so they see the host in
/// more than one state); the median is reported.
constexpr std::size_t kSetupSamples = 5;

/// Keeps the calling thread and the threads it names on one CPU at a time and
/// moves them together to the next allowed CPU on every step. One CPU
/// spares a round of synchronous socket round trips the hypervisor's
/// cross-CPU wake-ups, which otherwise dominate its tail; moving on keeps
/// any one vCPU's neighbours from setting the figure for a whole run.
class cpu_rotor {
 public:
  cpu_rotor() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
      throw std::runtime_error("cannot read the CPU affinity");
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
    }
    step({});
  }
  std::size_t cpus() const { return cpus_.size(); }
  /// Move the calling thread (and so every thread it starts later) and
  /// `threads` to the next CPU.
  void step(const std::vector<pthread_t>& threads) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    bool ok = sched_setaffinity(0, sizeof one, &one) == 0;
    for (pthread_t t : threads) {
      ok = ok && pthread_setaffinity_np(t, sizeof one, &one) == 0;
    }
    if (!ok) throw std::runtime_error("cannot move threads to one CPU");
  }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// How long the round's threads stay on one CPU under a cpu_rotor.
constexpr double kRotateMs = 250.0;

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct metric_out {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const run_state& st, const std::vector<metric_out>& ms) {
  std::ostringstream os;
  os << "{\"correct\": " << (st.correct ? "true" : "false")
     << ", \"attempted\": " << st.attempted << ", \"failed\": " << st.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    os << (i ? ", " : "") << "\"" << ms[i].name
       << "\": {\"value\": " << json_number(ms[i].value) << ", \"unit\": \""
       << ms[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

void print_host(const workload& w, std::uint64_t seed, bool traced,
                std::size_t rotated_cpus) {
  std::cout << "{\"host\": {\"nproc\": " << std::thread::hardware_concurrency()
            << ", \"compiler\": \"" << ROUNDBENCH_COMPILER
            << "\", \"build\": \"" << ROUNDBENCH_BUILD_TYPE
            << "\", \"pool_width\": " << w.pool_width
            << ", \"hosts\": " << w.hosts
            << ", \"one_cpu_rotating_over\": " << rotated_cpus
            << "}, \"workload\": \"" << w.name
            << "\", \"workers\": " << w.n << ", \"warmup_rounds\": "
            << w.warmup << ", \"window_rounds\": " << w.rounds
            << ", \"seed\": " << seed << ", \"trace\": " << (traced ? 1 : 0)
            << "}" << std::endl;
}

int usage() {
  std::cerr << "usage: roundbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n  workloads:";
  for (const workload& w : kWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

int run(const workload& w, std::uint64_t seed, double seconds, bool trace) {
  std::optional<cpu_rotor> rotor;
  if (w.one_cpu) rotor.emplace();
  print_host(w, seed, trace, rotor ? rotor->cpus() : 0);
  run_state st;
  const reference ref = run_reference(w, seed);

  // One untraced system; a traced run adds a traced twin that plays the
  // same rounds interleaved with it (alternating which goes first), so
  // the tracing overhead is measured under the same conditions.
  std::vector<instance> systems;
  for (const bool traced : {false, true}) {
    if (traced && !trace) break;
    std::optional<instance> in = set_up(w, seed, traced, ref, st);
    if (!in) break;
    systems.push_back(std::move(*in));
  }
  std::unique_ptr<layer_probes> probes;
  if (trace) probes = std::make_unique<layer_probes>(w.n);

  if (!systems.empty()) st.setup_s.push_back(systems[0].setup_ms / 1e3);

  // Peak RSS is read before the first extra set-up, whose system lives
  // beside the measured one: oracle pass, set-up and the first fifth of
  // the measured rounds.
  std::optional<double> rss_mb;
  std::vector<pthread_t> threads;
  for (const instance& in : systems) in.sys->append_threads(threads);
  double rotated_at_ms = 0.0;
  const std::size_t min_rounds = std::max(kMinMeasuredRounds, w.rounds);
  const auto begin = steady::now();
  bool running = systems.size() == (trace ? 2u : 1u);
  for (std::size_t measured = 0; running; ++measured) {
    const double elapsed_ms = ms_between(begin, steady::now());
    if (measured >= min_rounds && elapsed_ms >= seconds * 1e3) break;
    if (rotor && elapsed_ms - rotated_at_ms >= kRotateMs) {
      rotor->step(threads);
      rotated_at_ms = elapsed_ms;
    }
    if (!trace && st.setup_s.size() < kSetupSamples &&
        elapsed_ms >= seconds * 1e3 * static_cast<double>(st.setup_s.size()) /
                           static_cast<double>(kSetupSamples)) {
      if (!rss_mb) rss_mb = peak_rss_mb();
      std::optional<instance> in = set_up(w, seed, false, ref, st);
      if (!in) break;
      st.setup_s.push_back(in->setup_ms / 1e3);
    }
    for (std::size_t j = 0; j < systems.size() && running; ++j) {
      const std::size_t k = (measured % 2 == 0) ? j : systems.size() - 1 - j;
      instance& in = systems[k];
      const std::optional<round_sample> r =
          play_round(w, in, ref, st, in.tracer ? probes.get() : nullptr);
      if (!r) {
        running = false;
        break;
      }
      if (k == 0) {
        st.round_ms.push_back(r->wall_ms);
        st.cpu_ms.push_back(r->cpu_ms);
        st.msgs += r->after.msgs - r->before.msgs;
        st.allocs += r->allocs;
        if (trace) st.gen_ms.push_back(r->gen_ms);
        continue;
      }
      st.traced_round_ms.push_back(r->wall_ms);
      const span_split sp = split_round(in.tracer->merged());
      in.tracer->clear();
      for (int p = 0; p < 4; ++p) st.mw_phase[p].push_back(sp.mw_phase[p]);
      for (int p = 0; p < 2; ++p) st.fd_phase[p].push_back(sp.fd_phase[p]);
      st.tree_reduce.push_back(sp.tree_reduce);
      st.tree_broadcast.push_back(sp.tree_broadcast);
      st.shard_serial.push_back(sp.shard_serial);
      st.retransmits += r->after.retransmits - r->before.retransmits;
      st.transmissions += r->after.transmissions - r->before.transmissions;
      st.dropped += sp.dropped;
      st.frames += r->after.frames - r->before.frames;
      st.pulls += r->after.pulls - r->before.pulls;
      st.empty_pulls += r->after.empty_pulls - r->before.empty_pulls;
      st.host_frames += r->after.host_frames - r->before.host_frames;
      const std::size_t t = in.t - 1;
      if (auto own = in.sys->last_round_node_traffic()) {
        st.bytes.push_back(own->first);
        st.busiest.push_back(own->second);
      } else if (t < ref.bytes.size()) {
        st.bytes.push_back(ref.bytes[t]);
        st.busiest.push_back(ref.busiest[t]);
      }
    }
  }
  for (const instance& in : systems) {
    if (in.t < ref.played.size()) {
      st.fail("run ended inside the oracle's window");
    }
    if (in.window_cost != ref.cum_cost) {
      std::ostringstream os;
      os.precision(17);
      os << "cumulative cost " << in.window_cost
         << " differs from the oracle's " << ref.cum_cost;
      st.fail(os.str());
    }
  }
  const double cum_cost = systems.empty() ? 0.0 : systems[0].window_cost;
  systems.clear();

  std::vector<metric_out> metrics;
  if (!trace) {
    double observe_ms = 0.0;
    for (double v : st.round_ms) observe_ms += v;
    const double rounds = static_cast<double>(st.round_ms.size());
    metrics = {
        {"round_p50_ms", round_median(st.round_ms), "ms"},
        {"round_p90_ms", quantile(st.round_ms, 0.9), "ms"},
        {"rounds_per_s", rounds / (observe_ms / 1e3), "1/s"},
        {"cpu_ms_per_round", mean(st.cpu_ms), "ms"},
        {"msgs_per_round", st.msgs / rounds, "count"},
        {"cum_cost", cum_cost, "cost"},
        {"setup_s", median(st.setup_s), "s"},
        {"peak_rss_mb", rss_mb.value_or(peak_rss_mb()), "MB"},
    };
  } else {
    const double untraced = static_cast<double>(st.round_ms.size());
    const double traced = static_cast<double>(st.traced_round_ms.size());
    double observe_ms = 0.0, cpu_ms = 0.0;
    for (double v : st.round_ms) observe_ms += v;
    for (double v : st.cpu_ms) cpu_ms += v;
    const double p50 = round_median(st.round_ms);
    metrics = {
        {"exp.gen_ms", median(st.gen_ms), "ms"},
        {"cost.eq4_ms", median(st.eq4_ms), "ms"},
        {"core.seq_round_ms", median(st.seq_ms), "ms"},
        {"dist.mw.phase1_ms", median(st.mw_phase[0]), "ms"},
        {"dist.mw.phase2_ms", median(st.mw_phase[1]), "ms"},
        {"dist.mw.phase3_ms", median(st.mw_phase[2]), "ms"},
        {"dist.mw.phase4_ms", median(st.mw_phase[3]), "ms"},
        {"dist.fd.phase1_ms", median(st.fd_phase[0]), "ms"},
        {"dist.fd.phase2_ms", median(st.fd_phase[1]), "ms"},
        {"dist.allocs_per_round", st.allocs / untraced, "count"},
        {"net.bytes_per_round", mean(st.bytes), "B"},
        {"net.max_node_msgs_per_round", mean(st.busiest), "count"},
        {"net.msg_ns", probe_msg_ns(w), "ns"},
        {"reliable.retransmits_per_round", st.retransmits / traced, "count"},
        {"reliable.delivery_ratio",
         st.transmissions > 0.0
             ? (st.transmissions - st.dropped) / st.transmissions
             : 1.0,
         "ratio"},
        {"shard.tree_reduce_ms", median(st.tree_reduce), "ms"},
        {"shard.tree_broadcast_ms", median(st.tree_broadcast), "ms"},
        {"shard.serial_ms", median(st.shard_serial), "ms"},
        {"pool.busy_frac",
         cpu_ms / (observe_ms * static_cast<double>(w.pool_width)), "ratio"},
        {"socket.frames_per_round", st.frames / traced, "count"},
        {"socket.pulls_per_round", st.pulls / traced, "count"},
        {"socket.empty_pull_frac",
         st.pulls > 0.0 ? st.empty_pulls / st.pulls : 0.0, "ratio"},
        {"socket.host_frames_per_round", st.host_frames / traced, "count"},
        {"socket.rtt_us", probe_socket_rtt_us(), "us"},
        {"obs.trace_overhead_frac",
         p50 > 0.0 ? round_median(st.traced_round_ms) / p50 - 1.0 : 0.0,
         "ratio"},
    };
  }
  for (const std::string& e : st.errors) {
    std::cerr << "CHECK FAILED: " << e << "\n";
  }
  if (st.round_ms.empty()) return 1;  // no round completed: no result
  print_result(st, metrics);
  return st.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage();
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 1) return usage();
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (args.count(required) == 0) return usage();
  }
  const workload* w = nullptr;
  for (const workload& cand : kWorkloads) {
    if (cand.name == args["workload"]) w = &cand;
  }
  if (w == nullptr) return usage();
  try {
    const std::uint64_t seed = std::stoull(args["seed"]);
    const double seconds = std::stod(args["seconds"]);
    const std::string& trace = args["trace"];
    if (!(seconds > 0.0) || (trace != "0" && trace != "1")) return usage();
    return run(*w, seed, seconds, trace == "1");
  } catch (const std::exception& e) {
    std::cerr << "roundbench: " << e.what() << "\n";
    return 1;
  }
}
