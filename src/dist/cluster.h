// DOLBIE over a real cluster: the PR 5 round state machines instantiated
// with the socket-backed delivery policy (net/socket_delivery.h).
//
// Deployment model: this process — the driver — runs the protocol logic
// for every node, exactly as the simulation engines do; remote `dolbied`
// worker daemons host the message channels, so every protocol message
// crosses TCP under the ownership rule documented in socket_delivery.h.
// The state machines are the *same templates* the in-memory engines
// instantiate (dist/mw_round.h, dist/fd_round.h) with the fault plan
// disabled: a healthy cluster reproduces the in-memory engines' iterates
// bit for bit (the invariant the tests pin), and a dead or
// slow daemon surfaces as a nullopt receive that the degraded-round
// machinery — built for lossy simulation — absorbs unchanged: holds,
// straggler failover, abort. No cluster-specific protocol logic exists.
#pragma once

#include <memory>
#include <vector>

#include "core/policy.h"
#include "dist/protocol.h"
#include "net/reliable.h"
#include "net/socket_delivery.h"

namespace dolbie::dist {

/// Which protocol realization the cluster runs.
enum class cluster_mode { master_worker, fully_distributed };

struct cluster_options {
  cluster_mode mode = cluster_mode::master_worker;
  /// Initial partition x_1; empty means uniform.
  core::allocation initial_partition;
  /// Initial step size alpha_1; negative selects the paper's safe
  /// initialization (core::initial_step_size).
  double initial_step = -1.0;
  /// Channel hosts. Empty runs every link over process-local queues (the
  /// degenerate single-process cluster — useful for tests and smoke
  /// runs); otherwise workers are assigned to peers in contiguous blocks
  /// and the master (MW mode) stays local to the driver.
  std::vector<net::peer_address> peers;
  net::socket_link_options link;
  obs::metrics_registry* metrics = nullptr;
  obs::tracer* tracer = nullptr;
  std::uint32_t trace_lane = 0;
};

/// Deterministic block assignment of `n` workers onto `n_peers` hosts:
/// worker w lives on peer w * n_peers / n. Shared by the driver and the
/// transport flag parsing so both sides agree without configuration.
std::vector<int> block_owner_map(std::size_t n, std::size_t n_peers);

class cluster_policy final : public core::online_policy {
 public:
  /// Connects to every peer up front (socket_link's connect_with_retry);
  /// throws net::transport_error when a peer never comes up.
  cluster_policy(std::size_t n_workers, cluster_options options);

  std::string_view name() const override {
    return options_.mode == cluster_mode::master_worker ? "DOLBIE-CLUSTER-MW"
                                                        : "DOLBIE-CLUSTER-FD";
  }
  std::size_t workers() const override { return n_; }
  const core::allocation& current() const override { return assembled_; }
  void observe(const core::round_feedback& feedback) override;
  void reset() override;

  /// Cumulative degradation accounting (nonzero only when daemons died or
  /// timed out mid-run).
  const fault_report& faults() const { return fault_report_; }
  const net::socket_link_stats& link_stats() const { return link_->stats(); }
  net::socket_link& link() { return *link_; }

 private:
  net::node_id master_id() const { return n_; }
  void observe_mw(const core::round_feedback& feedback, std::uint64_t round);
  void observe_fd(const core::round_feedback& feedback, std::uint64_t round);
  void finish_round(std::uint64_t round, const degraded_outcome& outcome,
                    const char* category);

  std::size_t n_;
  cluster_options options_;
  net::fault_plan no_faults_;  // disabled: the wire is the only fault source
  std::unique_ptr<net::socket_link> link_;

  std::vector<double> worker_x_;
  double alpha_ = 0.0;             // MW master step size
  std::vector<double> alpha_bar_;  // FD per-worker step bounds
  core::allocation assembled_;

  round_scratch scratch_;
  member_flags flags_;
  fault_report fault_report_;
  std::uint64_t round_ = 0;
  engine_counters counters_;
  net::reliable_stats mirrored_;
};

}  // namespace dolbie::dist
