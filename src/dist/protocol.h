// Shared options, payload conventions and round-state structs for the two
// DOLBIE protocol realizations (the unified protocol core: dist/mw_round.h
// and dist/fd_round.h hold the per-realization round state machines; the
// round core of dist/engine.h, which every flat engine holds, and the
// hierarchical layer instantiate them).
//
// Payload layouts (scalars, in order):
//   local_cost    : { l_{i,t} }
//   round_info    : { l_t, alpha_t, 1{i != s_t} }
//   decision      : { x_{i,t+1} }            (MW)
//                   { x_{i,t+1}, x_{i,t} }   (FD: the straggler derives
//                                             the holders' mass, never a
//                                             single holder's share)
//   assignment    : { x_{s_t,t+1} }
//   cost_and_step : { l_{i,t}, alpha-bar_{i,t} }
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/types.h"
#include "net/fault_plan.h"
#include "net/message.h"

namespace dolbie {
class snapshot_reader;
class snapshot_writer;
}  // namespace dolbie

namespace dolbie::obs {
class counter;
class gauge;
class metrics_registry;
class tracer;
}  // namespace dolbie::obs

namespace dolbie::net {
class reliable_link;
struct reliable_stats;
}  // namespace dolbie::net

namespace dolbie::dist {

/// Common configuration of both protocol realizations; mirrors
/// core::dolbie_options so the three implementations start identically.
struct protocol_options {
  /// Initial partition x_1; empty means uniform.
  core::allocation initial_partition;
  /// Initial step size alpha_1; negative selects the paper's safe
  /// initialization m/(N-2+m).
  double initial_step = -1.0;

  /// Observability (all optional; null leaves the realization on the
  /// zero-cost disabled path). When tracing, a realization records its
  /// per-phase spans and events on `trace_lane` — one lane per policy
  /// instance; a lane must only ever be driven by one thread at a time.
  obs::tracer* tracer = nullptr;
  obs::metrics_registry* metrics = nullptr;
  std::uint32_t trace_lane = 0;

  /// Deterministic fault schedule (net/fault_plan.h). Default-constructed
  /// (disabled), messages travel the raw network and every one of them
  /// must arrive: a round that degrades is an invariant_error. With any
  /// fault configured, messages travel through the reliable delivery
  /// layer and rounds may complete in degraded mode.
  net::fault_plan faults;
  /// Retransmissions allowed per message before the receiver declares it
  /// lost and the round degrades (see net/reliable.h).
  std::size_t retry_budget = 5;
};

/// Validate `options` against the worker count and default the initial
/// partition to uniform. Shared by all four engine constructors.
void normalize_options(protocol_options& options, std::size_t n_workers);

/// Cumulative fault/degradation accounting, exposed by every engine
/// (sync and async, both realizations). Mirrored into
/// `protocol_options::metrics` (when attached) as the counters
/// dist.degraded_rounds, dist.straggler_failovers, net.retransmits and
/// net.timeouts.
struct fault_report {
  /// Rounds that completed with at least one worker holding x_{i,t}
  /// (zero step), a straggler failover, or a full abort.
  std::size_t degraded_rounds = 0;
  /// Deterministic re-elections after the elected straggler crashed or
  /// missed its deadline.
  std::size_t straggler_failovers = 0;
  /// Workers retired permanently through the churn path (core/churn.h).
  std::size_t removed_workers = 0;
  /// Worker-rounds that defaulted to x_{i,t} (zero-length Eq. 5 step).
  std::size_t zero_step_holds = 0;
  /// Rounds where no progress was possible and every worker held.
  std::size_t aborted_rounds = 0;
  /// Transport totals, copied from the reliable layer.
  std::size_t retransmits = 0;
  std::size_t timeouts = 0;
  std::size_t duplicates_discarded = 0;
};

/// Decoded round_info payload (Alg. 1, master -> worker, phase 2).
struct round_info {
  double l_t = 0.0;
  double alpha = 0.0;
  bool non_straggler = false;
};

inline net::message make_round_info(net::node_id master, net::node_id to,
                                    double l_t, double alpha,
                                    bool non_straggler) {
  return {master, to, net::message_kind::round_info,
          {l_t, alpha, non_straggler ? 1.0 : 0.0}};
}

inline round_info decode_round_info(const net::message& m) {
  return {m.payload[0], m.payload[1], m.payload[2] != 0.0};
}

/// What the first stage of a split round (`stage_gather` in mw_round.h /
/// fd_round.h) learned: how many workers took part, the max cost among
/// them (the group's l_t contribution, bit-equal to the elected
/// straggler's cost) and the group's step contribution
/// (MW: the master's alpha after retirement caps; FD: the min local
/// bound over H_t).
struct stage_result {
  std::size_t participants = 0;
  double max_cost = 0.0;
  double min_alpha = 1.0;
};

/// Timing model that compiles to nothing: one hook per protocol event of
/// either round machine, all empty. The synchronous engines, the
/// hierarchical layer and the cluster instantiate it; the asynchronous
/// engines price the same events with the deadline models of
/// dist/round_timing.h.
struct null_timing {
  void round_begin(std::span<const double>, const std::vector<std::uint8_t>&) {}
  void on_send() {}
  void phase1_done() {}
  void decision_sent(core::worker_id) {}
  void decision_delivered(core::worker_id, std::size_t) {}
  void decision_lost(core::worker_id) {}
  void decisions_done() {}
  // Alg. 1 only (mw_round.h).
  void phase1_silent(core::worker_id) {}
  void phase1_delivered(core::worker_id, std::size_t) {}
  void phase1_lost(core::worker_id) {}
  void info_sent(core::worker_id) {}
  void info_abandoned(core::worker_id) {}
  void info_delivered(core::worker_id, std::size_t) {}
  void straggler_ready(core::worker_id) {}
  void info_lost(core::worker_id) {}
  void assignment_delivered(std::size_t) {}
  void assignment_lost() {}
  // Alg. 2 only (fd_round.h).
  void broadcast_sent(core::worker_id, core::worker_id) {}
  void broadcast_delivered(core::worker_id, core::worker_id, std::size_t) {}
  void broadcast_lost(core::worker_id, core::worker_id) {}
  void failover() {}
};

/// Per-round value scratch shared by the engines. Held as members so the
/// round loops reuse storage instead of allocating (the PR 3 guarantee):
/// every vector reaches worker-count capacity after the first round and
/// is only ever .assign()ed or copy-assigned afterwards.
struct round_scratch {
  std::vector<double> next_x;     ///< x_{t+1} under construction (FD)
  std::vector<double> start_x;    ///< rollback / abort snapshot (MW)
  std::vector<double> tentative;  ///< tentative Eq. 5 decisions
  std::vector<double> inbox_l;    ///< reassembled cost inbox (l_j view)
  std::vector<double> inbox_a;    ///< reassembled step inbox (FD only)
  std::vector<double> xp;         ///< batched Eq. 4 output (batch path only)
};

/// Membership / delivery flags of the degraded round flows. `delivered`
/// is the n*n broadcast bitmap and is only sized for the FD realization.
struct member_flags {
  std::vector<std::uint8_t> removed;    ///< permanent membership
  std::vector<std::uint8_t> live;       ///< per-round liveness
  std::vector<std::uint8_t> heard;      ///< MW phase-1 inbox bitmap
  std::vector<std::uint8_t> decided;    ///< MW decision committed
  std::vector<std::uint8_t> in_h;       ///< FD participant set H_t
  std::vector<std::uint8_t> delivered;  ///< FD n*n delivery bitmap

  void setup(std::size_t n, bool all_pairs) {
    removed.assign(n, 0);
    live.assign(n, 0);
    heard.assign(n, 0);
    decided.assign(n, 0);
    in_h.assign(n, 0);
    delivered.assign(all_pairs ? n * n : 0, 0);
  }
};

/// Shared churn retirement math (core/churn.h): count the heirs, release
/// the retiring worker's share over them and return the Eq. 7-safe step
/// cap — the engine-side analogue of dolbie_policy::remove_worker's alpha
/// re-cap. Returns false (and retires nothing) when the worker is the
/// last one standing. `flags.removed` and `flags.live` are updated in
/// place; how the cap is applied (master alpha vs. every surviving
/// alpha-bar) is the realization's business.
struct retirement {
  std::size_t heirs = 0;
  double cap = 1.0;
};
/// `target` is the group's conserved mass (1.0 for the flat engines, a
/// shard's slice under the hierarchy): the heirs renormalize onto it and
/// the Eq. 7 re-cap reads the surviving shares relative to it.
bool retire_worker_share(std::vector<double>& x, member_flags& flags,
                         core::worker_id id, retirement& out,
                         double target = 1.0);

/// What a degraded round resolved to; the engines feed it into the shared
/// accounting and their round-span args.
struct degraded_outcome {
  std::size_t holds = 0;      ///< worker-rounds defaulting to x_{i,t}
  std::size_t failovers = 0;  ///< straggler re-elections this round
  bool aborted = false;       ///< no progress; every worker held
  core::worker_id straggler = 0;   ///< the straggler that finally absorbed
  double consensus_alpha = 0.0;    ///< FD only: the round's min consensus
  /// MW only: the Eq. 7 step-size candidate derived from the realized
  /// straggler share. The flat round adopts it directly; the hierarchical
  /// layer min-reduces the candidates of every shard at the tree root.
  double alpha_candidate = 0.0;
};

/// The per-engine metrics bindings (null when no registry is attached).
/// `bind` resolves the counters once at construction; `round_complete`
/// bumps the per-round figures on the hot path.
struct engine_counters {
  obs::counter* rounds = nullptr;
  obs::gauge* alpha = nullptr;
  obs::gauge* straggler = nullptr;
  obs::counter* degraded = nullptr;
  obs::counter* failover = nullptr;
  obs::counter* retransmits = nullptr;
  obs::counter* timeouts = nullptr;

  /// Resolve the bindings: `prefix` names the per-realization counters
  /// ("mw" -> mw.rounds/mw.alpha/mw.straggler; `alpha_gauge` overrides
  /// the alpha gauge name, e.g. fd.alpha_consensus). Empty `prefix` skips
  /// the per-realization triple (the async engines mirror only the shared
  /// dist.*/net.* fault counters). With `faulty` the shared fault counters
  /// are resolved too.
  void bind(obs::metrics_registry* metrics, std::string_view prefix,
            std::string_view alpha_gauge, bool faulty);

  /// rounds +1, alpha/straggler gauges set. No-op when unbound.
  void round_complete(double alpha_value, double straggler_id);
};

/// Shared tail of every degraded round (every engine): degraded-round
/// classification (trace instant + dist.* counters), zero-step-hold
/// accumulation, and the delta-mirror of the reliable layer's stats into
/// the net.* counters and the cumulative fault_report. `category` is the
/// trace category: the realization's ("mw"/"fd"), or "shard" for the
/// hierarchical engine's aggregated round.
void finish_degraded_round(const degraded_outcome& outcome,
                           const net::reliable_stats& stats,
                           obs::tracer* tracer, std::uint32_t lane,
                           std::string_view category, std::uint64_t round,
                           engine_counters& counters, fault_report& report,
                           net::reliable_stats& mirrored);

/// Checkpoint building blocks shared by every engine's snapshot()/restore()
/// (common/snapshot.h): the cumulative fault report and the engine-side
/// mirror of the reliable layer's stats, as fixed runs of u64 fields.
void snapshot_report(snapshot_writer& w, const fault_report& report);
void restore_report(snapshot_reader& r, fault_report& report);
void snapshot_reliable_stats(snapshot_writer& w,
                             const net::reliable_stats& stats);
void restore_reliable_stats(snapshot_reader& r, net::reliable_stats& stats);

}  // namespace dolbie::dist
