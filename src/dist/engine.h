// The one engine shell of the flat DOLBIE realizations.
//
// `engine<Realization, Timing>` owns everything a flat engine keeps
// across rounds — the network and, under a fault plan, the reliable link
// over it; the allocation and the realization's step state; membership
// flags, round scratch, the fault report and the metrics bindings — and
// plays each round through the realization's round machine
// (dist/mw_round.h or dist/fd_round.h):
//
//   * disabled fault plan: the machine runs over `net::direct_delivery`,
//     every message must arrive (a degraded round is an invariant_error),
//     and the network's traffic counters restart every round;
//   * enabled fault plan: the machine runs over `net::reliable_delivery`,
//     rounds may degrade, and the counters are cumulative.
//
// `Timing` is the machines' timing model: `null_timing` for the
// phase-synchronous engines (master_worker.h, fully_distributed.h), a
// deadline model of dist/round_timing.h for the asynchronous ones
// (async_master_worker.h, async_fully_distributed.h). The four public
// engines are thin wrappers over the four instantiations; a realization
// plays the identical transitions under either timing, so sync and async
// engines produce bit-identical iterates under any fault plan.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/policy.h"
#include "core/types.h"
#include "cost/cost_function.h"
#include "dist/protocol.h"
#include "net/network.h"
#include "net/reliable.h"

namespace dolbie::dist {

/// Alg. 1's cross-round state: the master's step size. Node N is the
/// master; workers are nodes 0..N-1.
struct mw_realization {
  static constexpr bool hub = true;
  static constexpr std::string_view category = "mw";
  static constexpr std::string_view alpha_gauge = "mw.alpha";
  double alpha = 0.0;
};

/// Alg. 2's cross-round state: every worker's local step bound.
struct fd_realization {
  static constexpr bool hub = false;
  static constexpr std::string_view category = "fd";
  static constexpr std::string_view alpha_gauge = "fd.alpha_consensus";
  std::vector<double> alpha_bar;
};

template <class Realization, class Timing>
class engine {
 public:
  engine(std::size_t n_workers, protocol_options options = {},
         const Timing& timing = Timing{});

  std::size_t workers() const { return n_; }
  const core::allocation& allocation() const { return x_; }
  const Realization& realization() const { return r_; }

  /// One round against the revealed costs and the local costs l_{i,t}
  /// played at allocation(); returns what the round resolved to.
  degraded_outcome play(const cost::cost_view& costs,
                        std::span<const double> locals);
  /// The harness entry: validate the feedback, then play.
  void play(const core::round_feedback& feedback);

  /// Traffic of the most recent round (for the comm-complexity bench).
  const net::traffic_totals& last_round_traffic() const {
    return last_traffic_;
  }

  /// Cumulative fault/degradation accounting (all zero without faults).
  const fault_report& faults() const { return report_; }

  /// The timing model as the last round left it.
  const Timing& timing() const { return timing_; }

  /// The underlying transport, exposed so fault-injection tests can
  /// schedule deterministic drops (network::inject_drop) on specific
  /// links. Production callers have no business poking it.
  net::network& transport() { return net_; }

  void reset();

  /// Serialize the complete cross-round state (step state, round index,
  /// iterate, channels, membership, reliable-link sequencing, fault-roll
  /// cursors) into versioned snapshot bytes; restore rebuilds it so the
  /// continuation is bit-identical to the uninterrupted run. Restore
  /// throws invariant_error on corrupt or mismatched bytes, leaving the
  /// engine reset.
  std::vector<std::uint8_t> snapshot() const;
  void restore(const std::vector<std::uint8_t>& bytes);

 private:
  std::size_t n_;
  protocol_options options_;
  net::network net_;
  bool faulty_ = false;
  std::unique_ptr<net::reliable_link> rel_;  // engaged iff faulty_
  Timing timing_;

  core::allocation x_;
  Realization r_;
  std::uint64_t round_ = 0;
  net::traffic_totals last_traffic_;

  round_scratch scratch_;
  member_flags flags_;
  fault_report report_;
  engine_counters counters_;
  net::reliable_stats mirrored_;  // last stats already mirrored to metrics
};

/// The phase-synchronous engines' harness face: an online_policy over the
/// shell with the timing hooks compiled away.
template <class Realization>
class sync_engine : public core::online_policy,
                    public engine<Realization, null_timing> {
  using shell = engine<Realization, null_timing>;

 public:
  using shell::shell;

  std::size_t workers() const override { return shell::workers(); }
  const core::allocation& current() const override {
    return shell::allocation();
  }
  void observe(const core::round_feedback& feedback) override {
    shell::play(feedback);
  }
  void reset() override { shell::reset(); }
};

}  // namespace dolbie::dist
