// DOLBIE over a real cluster: one more owner of the engine shell's round
// core (dist/engine.h), playing its rounds over a `net::socket_link`.
//
// Deployment model: this process — the driver — runs the protocol logic
// for every node, exactly as the simulation engines do; remote `dolbied`
// worker daemons host the message channels, so every protocol message
// crosses TCP under the ownership rule documented in socket_delivery.h.
// The round core is the one the in-memory engines hold, and it runs the
// same round machines (dist/mw_round.h, dist/fd_round.h) with the fault
// plan disabled: a healthy cluster reproduces the in-memory engines'
// iterates bit for bit (the invariant the tests pin), and a dead or slow
// daemon surfaces as a nullopt receive that the degraded-round machinery
// — built for lossy simulation — absorbs unchanged: holds, straggler
// failover, abort. All the cluster adds is the socket link; it has no
// round logic of its own.
#pragma once

#include <memory>
#include <variant>
#include <vector>

#include "core/policy.h"
#include "dist/engine.h"
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
  /// Validates the options like the in-memory engines do (the initial
  /// partition must lie on the simplex), then connects to every peer up
  /// front (socket_link's connect_with_retry); throws net::transport_error
  /// when a peer never comes up.
  cluster_policy(std::size_t n_workers, cluster_options options);

  std::string_view name() const override {
    return options_.mode == cluster_mode::master_worker ? "DOLBIE-CLUSTER-MW"
                                                        : "DOLBIE-CLUSTER-FD";
  }
  std::size_t workers() const override;
  const core::allocation& current() const override;
  void observe(const core::round_feedback& feedback) override;
  void reset() override;

  /// Cumulative degradation accounting (nonzero only when daemons died or
  /// timed out mid-run).
  const fault_report& faults() const;
  const net::socket_link_stats& link_stats() const { return link_->stats(); }
  net::socket_link& link() { return *link_; }

 private:
  cluster_options options_;
  std::variant<round_core<mw_realization>, round_core<fd_realization>> core_;
  std::unique_ptr<net::socket_link> link_;
};

}  // namespace dolbie::dist
