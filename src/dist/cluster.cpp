#include "dist/cluster.h"

#include "common/error.h"

namespace dolbie::dist {
namespace {

using cluster_core =
    std::variant<round_core<mw_realization>, round_core<fd_realization>>;

// The cluster's metrics are cluster.rounds / cluster.alpha /
// cluster.straggler for either realization, plus the shared dist.*/net.*
// fault counters: a dead daemon degrades rounds without any fault plan.
cluster_core make_core(std::size_t n, const cluster_options& c) {
  protocol_options o;
  o.initial_partition = c.initial_partition;
  o.initial_step = c.initial_step;
  o.tracer = c.tracer;
  o.metrics = c.metrics;
  o.trace_lane = c.trace_lane;
  if (c.mode == cluster_mode::master_worker) {
    return cluster_core(std::in_place_index<0>, n, std::move(o), "cluster",
                        "cluster.alpha", true);
  }
  return cluster_core(std::in_place_index<1>, n, std::move(o), "cluster",
                      "cluster.alpha", true);
}

// No reliable_link underneath — TCP retransmits below the delivery seam —
// so the degraded-round tail mirrors zero transport stats.
const net::reliable_stats kNoRetransmits;

}  // namespace

std::vector<int> block_owner_map(std::size_t n, std::size_t n_peers) {
  std::vector<int> owner(n, -1);
  if (n_peers == 0) return owner;
  for (std::size_t w = 0; w < n; ++w) {
    owner[w] = static_cast<int>(w * n_peers / n);
  }
  return owner;
}

cluster_policy::cluster_policy(std::size_t n_workers, cluster_options options)
    : options_(std::move(options)), core_(make_core(n_workers, options_)) {
  // MW adds the master as node n; FD is workers only. Workers map onto
  // peers in contiguous blocks; the master is always local to the driver.
  const bool mw = options_.mode == cluster_mode::master_worker;
  const std::size_t n_nodes = mw ? n_workers + 1 : n_workers;
  std::vector<int> owner = block_owner_map(n_workers, options_.peers.size());
  owner.resize(n_nodes, -1);
  link_ = std::make_unique<net::socket_link>(n_nodes, std::move(owner),
                                             options_.peers, options_.link,
                                             options_.metrics);
  // Purge what an earlier driver left on the channel hosts (a daemon's
  // workers outlive each client run), sequence numbers included.
  link_->reset();
}

std::size_t cluster_policy::workers() const {
  return std::visit([](const auto& c) { return c.workers(); }, core_);
}

const core::allocation& cluster_policy::current() const {
  return std::visit(
      [](const auto& c) -> const core::allocation& { return c.allocation(); },
      core_);
}

const fault_report& cluster_policy::faults() const {
  return std::visit(
      [](const auto& c) -> const fault_report& { return c.faults(); }, core_);
}

void cluster_policy::reset() {
  std::visit([](auto& c) { c.reset(); }, core_);
  link_->reset();
}

void cluster_policy::observe(const core::round_feedback& feedback) {
  DOLBIE_REQUIRE(feedback.costs != nullptr, "feedback carries no costs");
  std::visit(
      [&](auto& c) {
        null_timing timing;
        c.play(
            *feedback.costs, feedback.local_costs, timing, &kNoRetransmits,
            [&](std::uint64_t, auto&& machine) { return machine(*link_); },
            [](obs::span&) {});
      },
      core_);
}

}  // namespace dolbie::dist
