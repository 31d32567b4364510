// The one engine shell of the flat DOLBIE realizations, in two parts.
//
// `round_core<Realization>` is the transport-independent part: the
// allocation and the realization's step state, the round index,
// membership flags, round scratch, the fault report and the metrics
// bindings — and the one `play` that runs a round through the
// realization's round machine (dist/mw_round.h or dist/fd_round.h) over
// whatever delivery its owner hands it, then runs the shared round tail
// (degraded-round accounting, simplex check, round-span args).
//
// `engine<Realization, Timing>` is the in-memory wire around a core: the
// network and, under a fault plan, the reliable link over it, traffic
// accounting, snapshot and restore:
//
//   * disabled fault plan: the machine runs over `net::direct_delivery`,
//     every message must arrive (a degraded round is an invariant_error),
//     and the network's traffic counters restart every round;
//   * enabled fault plan: the machine runs over the `net::reliable_link`
//     itself, rounds may degrade, and the counters are cumulative.
//
// The TCP cluster (dist/cluster.h) is the core's other owner: it plays
// the same rounds over a `net::socket_link`.
//
// `Timing` is the machines' timing model: `null_timing` for the
// phase-synchronous engines (master_worker.h, fully_distributed.h), a
// deadline model of dist/round_timing.h for the asynchronous ones
// (async_master_worker.h, async_fully_distributed.h). The four public
// engines are thin wrappers over the four instantiations; a realization
// plays the identical transitions under either timing, so sync and async
// engines produce bit-identical iterates under any fault plan.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "common/simplex.h"
#include "core/policy.h"
#include "core/step_size.h"
#include "core/types.h"
#include "cost/cost_function.h"
#include "dist/fd_round.h"
#include "dist/mw_round.h"
#include "dist/protocol.h"
#include "net/network.h"
#include "net/reliable.h"
#include "obs/trace.h"

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
class engine;

template <class Realization>
class round_core {
 public:
  /// Validates `options` (normalize_options) and binds the metrics:
  /// `prefix`, `alpha_gauge` and `fault_counters` as engine_counters::bind
  /// takes them.
  round_core(std::size_t n_workers, protocol_options options,
             std::string_view prefix, std::string_view alpha_gauge,
             bool fault_counters)
      : n_(n_workers), options_(std::move(options)) {
    normalize_options(options_, n_);
    flags_.setup(n_, /*all_pairs=*/!Realization::hub);
    scratch_.tentative.assign(n_, 0.0);
    counters_.bind(options_.metrics, prefix, alpha_gauge, fault_counters);
    reset();
  }

  std::size_t workers() const { return n_; }
  const protocol_options& options() const { return options_; }
  const core::allocation& allocation() const { return x_; }
  const Realization& realization() const { return r_; }
  const fault_report& faults() const { return report_; }

  /// Back to x_1 and alpha_1 at round 0, with nothing degraded.
  void reset() {
    x_ = options_.initial_partition;
    const double alpha1 = options_.initial_step >= 0.0
                              ? options_.initial_step
                              : core::initial_step_size(x_);
    if constexpr (Realization::hub) {
      r_.alpha = alpha1;
    } else {
      r_.alpha_bar.assign(n_, alpha1);
    }
    round_ = 0;
    std::fill(flags_.removed.begin(), flags_.removed.end(), 0);
    report_ = {};
    mirrored_ = {};
  }

  /// One round against the revealed costs and the local costs l_{i,t}
  /// played at allocation(); returns what the round resolved to.
  ///
  /// `deliver(round, machine)` hands `machine` the owner's delivery (a
  /// `Wire&` with the net/transport.h surface) and returns its outcome.
  /// `stats` is the transport's retransmit record a degraded round
  /// mirrors; null means every message must arrive, and a degraded round
  /// is an invariant_error. `annotate(span)` appends the owner's own
  /// round-span args.
  template <class Timing, class Deliver, class Annotate>
  degraded_outcome play(const cost::cost_view& costs,
                        std::span<const double> locals, Timing& timing,
                        const net::reliable_stats* stats, Deliver&& deliver,
                        Annotate&& annotate) {
    DOLBIE_REQUIRE(costs.size() == n_ && locals.size() == n_,
                   "round size mismatch for " << n_ << " workers");
    const std::uint64_t round = round_++;
    if (n_ == 1) {  // a single worker carries everything, no messages
      timing.round_begin(locals, flags_.removed);
      return {};
    }
    obs::tracer* tr = options_.tracer;
    const std::uint32_t lane = options_.trace_lane;
    obs::span round_span(tr, lane, round, "round", Realization::category);

    const degraded_outcome out =
        deliver(round, [&]<class Wire>(Wire& wire) {
          if constexpr (Realization::hub) {
            mw_degraded_round<Wire, Timing> flow{n_,
                                                 static_cast<net::node_id>(n_),
                                                 costs,
                                                 locals,
                                                 options_.faults,
                                                 wire,
                                                 timing,
                                                 tr,
                                                 lane,
                                                 counters_.failover,
                                                 report_,
                                                 x_,
                                                 r_.alpha,
                                                 scratch_,
                                                 flags_};
            return flow.run(round);
          } else {
            fd_degraded_round<Wire, Timing> flow{n_,
                                                 costs,
                                                 locals,
                                                 options_.faults,
                                                 wire,
                                                 timing,
                                                 tr,
                                                 lane,
                                                 counters_.failover,
                                                 report_,
                                                 x_,
                                                 r_.alpha_bar,
                                                 scratch_,
                                                 flags_};
            const degraded_outcome o = flow.run(round);
            x_.swap(scratch_.next_x);
            return o;
          }
        });

    if (stats != nullptr) {
      finish_degraded_round(out, *stats, tr, lane, Realization::category,
                            round, counters_, report_, mirrored_);
    } else {
      DOLBIE_REQUIRE(out.holds == 0 && out.failovers == 0 && !out.aborted,
                     "round " << round << " degraded without a fault plan");
    }
    DOLBIE_REQUIRE(on_simplex(x_),
                   "round " << round << " left the allocation off the simplex");

    double alpha = out.consensus_alpha;
    if constexpr (Realization::hub) alpha = r_.alpha;
    round_span.arg("straggler", static_cast<std::uint64_t>(out.straggler));
    round_span.arg(Realization::hub ? "alpha_next" : "alpha_consensus",
                   alpha);
    annotate(round_span);
    counters_.round_complete(alpha, static_cast<double>(out.straggler));
    return out;
  }

 private:
  template <class R, class T>
  friend class engine;  // snapshot() / restore() interleave core and wire

  std::size_t n_;
  protocol_options options_;
  core::allocation x_;
  Realization r_;
  std::uint64_t round_ = 0;
  round_scratch scratch_;
  member_flags flags_;
  fault_report report_;
  engine_counters counters_;
  net::reliable_stats mirrored_;  // last stats already mirrored to metrics
};

template <class Realization, class Timing>
class engine {
 public:
  engine(std::size_t n_workers, protocol_options options = {},
         const Timing& timing = Timing{});

  std::size_t workers() const { return core_.workers(); }
  const core::allocation& allocation() const { return core_.allocation(); }
  const Realization& realization() const { return core_.realization(); }

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
  const fault_report& faults() const { return core_.faults(); }

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
  round_core<Realization> core_;
  net::network net_;
  std::unique_ptr<net::reliable_link> rel_;  // engaged iff a fault plan is
  Timing timing_;
  net::traffic_totals last_traffic_;
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
