#include "dist/cluster.h"

#include <algorithm>

#include "common/error.h"
#include "common/simplex.h"
#include "core/step_size.h"
#include "dist/fd_round.h"
#include "dist/mw_round.h"
#include "obs/trace.h"

namespace dolbie::dist {

std::vector<int> block_owner_map(std::size_t n, std::size_t n_peers) {
  std::vector<int> owner(n, -1);
  if (n_peers == 0) return owner;
  for (std::size_t w = 0; w < n; ++w) {
    owner[w] = static_cast<int>(w * n_peers / n);
  }
  return owner;
}

cluster_policy::cluster_policy(std::size_t n_workers, cluster_options options)
    : n_(n_workers), options_(std::move(options)) {
  DOLBIE_REQUIRE(n_ >= 1, "cluster needs at least one worker");
  if (options_.initial_partition.empty()) {
    options_.initial_partition.assign(n_, 1.0 / static_cast<double>(n_));
  }
  DOLBIE_REQUIRE(options_.initial_partition.size() == n_,
                 "initial partition size "
                     << options_.initial_partition.size()
                     << " != worker count " << n_);
  const bool mw = options_.mode == cluster_mode::master_worker;
  // MW adds the master as node n; FD is workers only. Workers map onto
  // peers in contiguous blocks; the master is always local to the driver.
  const std::size_t n_nodes = mw ? n_ + 1 : n_;
  std::vector<int> owner = block_owner_map(n_, options_.peers.size());
  owner.resize(n_nodes, -1);
  link_ = std::make_unique<net::socket_link>(
      n_nodes, std::move(owner), options_.peers, options_.link,
      options_.metrics);
  flags_.setup(n_, /*all_pairs=*/!mw);
  scratch_.tentative.assign(n_, 0.0);
  counters_.bind(options_.metrics, "cluster", "cluster.alpha",
                 /*faulty=*/true);
  reset();
}

void cluster_policy::reset() {
  worker_x_ = options_.initial_partition;
  assembled_ = options_.initial_partition;
  const double alpha1 =
      options_.initial_step >= 0.0
          ? options_.initial_step
          : core::initial_step_size(options_.initial_partition);
  alpha_ = alpha1;
  alpha_bar_.assign(n_, alpha1);
  link_->reset();
  std::fill(flags_.removed.begin(), flags_.removed.end(), 0);
  fault_report_ = {};
  mirrored_ = {};
  round_ = 0;
}

void cluster_policy::observe(const core::round_feedback& feedback) {
  DOLBIE_REQUIRE(feedback.costs != nullptr, "feedback carries no costs");
  DOLBIE_REQUIRE(feedback.local_costs.size() == n_, "feedback size mismatch");
  const std::uint64_t round = round_++;
  if (n_ == 1) return;
  if (options_.mode == cluster_mode::master_worker) {
    observe_mw(feedback, round);
  } else {
    observe_fd(feedback, round);
  }
}

void cluster_policy::observe_mw(const core::round_feedback& feedback,
                                std::uint64_t round) {
  obs::tracer* tr = options_.tracer;
  const std::uint32_t lane = options_.trace_lane;
  obs::span round_span(tr, lane, round, "round", "mw");

  null_timing timing;
  mw_degraded_round<net::socket_delivery, null_timing> flow{
      n_,
      master_id(),
      *feedback.costs,
      feedback.local_costs,
      no_faults_,
      net::socket_delivery{*link_},
      timing,
      tr,
      lane,
      counters_.failover,
      fault_report_,
      worker_x_,
      alpha_,
      scratch_,
      flags_};
  const degraded_outcome outcome = flow.run(round);

  finish_round(round, outcome, "mw");
  round_span.arg("straggler", static_cast<std::uint64_t>(outcome.straggler));
  round_span.arg("alpha_next", alpha_);
  counters_.round_complete(alpha_, static_cast<double>(outcome.straggler));
}

void cluster_policy::observe_fd(const core::round_feedback& feedback,
                                std::uint64_t round) {
  obs::tracer* tr = options_.tracer;
  const std::uint32_t lane = options_.trace_lane;
  obs::span round_span(tr, lane, round, "round", "fd");

  null_timing timing;
  fd_degraded_round<net::socket_delivery, null_timing> flow{
      n_,
      *feedback.costs,
      feedback.local_costs,
      no_faults_,
      net::socket_delivery{*link_},
      timing,
      tr,
      lane,
      counters_.failover,
      fault_report_,
      worker_x_,
      alpha_bar_,
      scratch_,
      flags_};
  const degraded_outcome outcome = flow.run(round);

  worker_x_.swap(scratch_.next_x);
  finish_round(round, outcome, "fd");
  round_span.arg("straggler", static_cast<std::uint64_t>(outcome.straggler));
  round_span.arg("alpha_consensus", outcome.consensus_alpha);
  counters_.round_complete(outcome.consensus_alpha,
                           static_cast<double>(outcome.straggler));
}

void cluster_policy::finish_round(std::uint64_t round,
                                  const degraded_outcome& outcome,
                                  const char* category) {
  // No reliable_link underneath — TCP retransmits below the seam — so the
  // transport-stat mirror runs on zeros and only the degraded-round
  // classification and hold accounting are live.
  const net::reliable_stats none;
  finish_degraded_round(outcome, none, options_.tracer, options_.trace_lane,
                        category, round, counters_, fault_report_, mirrored_);
  DOLBIE_REQUIRE(on_simplex(worker_x_),
                 "cluster round " << round
                                  << " left the allocation off the simplex");
  assembled_ = worker_x_;
}

}  // namespace dolbie::dist
