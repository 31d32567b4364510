// Fully-distributed (Alg. 2) round state machine of the unified protocol
// core — the peer-to-peer sibling of dist/mw_round.h, same seams: a
// delivery held by reference (net/transport.h) and a timing model. The
// engine shell's round core (dist/engine.h) drives it over
// `direct_delivery` when the fault plan is disabled, over the
// `reliable_link` when it is not, and over the cluster's `socket_link`;
// the synchronous engines instantiate `null_timing`, the asynchronous
// engine a deadline model (dist/round_timing.h) priced from
// `Delivery::last_receive_attempts()`.
//
// The round's participant set H_t is the set of live workers whose
// broadcast reached every polling receiver within the retry budget;
// everyone agrees on H_t (a membership-oracle shortcut — simulating the
// real agreement subprotocol round-trip would add wire phases without
// changing the allocation arithmetic). Election and the consensus step
// minimize over H_t only: min over a subset >= min over all workers, so
// the consensus alpha stays inside every Eq. 7 cap and feasibility is
// untouched. Workers outside H_t hold x_{i,t}.
//
// Absorption: the straggler takes remainder = target - claimed, where
// claimed is the index-order sum of the decisions it received — the
// arithmetic of mw_round.h and core::dolbie_policy, so a fault-free round
// is bit-identical to both. Holders never upload their shares (the
// privacy property), so decisions carry {x_{i,t+1}, x_{i,t}}: when some
// group member held, the straggler adds the holders' total mass
// target - x_s - sum(x_{i,t}) without learning any single share.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/step_size.h"
#include "core/types.h"
#include "cost/batch.h"
#include "cost/cost_function.h"
#include "dist/mw_round.h"  // decide_next_share
#include "dist/protocol.h"
#include "net/fault_plan.h"
#include "net/message.h"
#include "obs/trace.h"

namespace dolbie::dist {

/// One Alg. 2 round. Reads the played allocation `x`, builds x_{t+1} in
/// `scratch.next_x` (the caller swaps after the round commits);
/// `alpha_bar` is each worker's local step bound, tightened at the
/// straggler and re-capped on churn.
///
/// Split into two stages around the consensus values, mirroring
/// mw_round.h: `stage_gather` runs membership + the all-pairs phase 1 and
/// H_t resolution; `stage_commit(l_t, alpha_t)` elects, moves and absorbs
/// against supplied consensus values. `run()` composes them with the local
/// max/min — byte-for-byte the flat round.
template <class Delivery, class Timing>
struct fd_degraded_round {
  std::size_t n;
  const cost::cost_view& costs;
  std::span<const double> locals;
  const net::fault_plan& plan;
  Delivery& wire;
  Timing& timing;
  obs::tracer* tr;
  std::uint32_t lane;
  obs::counter* failover_counter;
  fault_report& report;
  std::vector<double>& x;          ///< x_t; mutated only by retirement
  std::vector<double>& alpha_bar;  ///< per-worker local step bounds
  round_scratch& scratch;
  member_flags& flags;
  /// Total workload this worker group conserves (renormalization target);
  /// 1.0 for the flat protocol, a shard's slice under the hierarchy.
  double target = 1.0;
  /// Worker count for the Eq. 7 tightening; 0 = use `n` (see mw_round.h).
  std::size_t cap_workers = 0;
  /// Optional SoA evaluator bound over `costs`; when set, the movers'
  /// Eq. 4 solves run as one batched pass (bit-identical kernels, see
  /// mw_round.h / cost/batch.h). Null keeps the scalar path verbatim.
  const cost::batch_evaluator* batch = nullptr;

  void retire(core::worker_id id, std::uint64_t round) {
    retirement r;
    if (!retire_worker_share(x, flags, id, r, target)) return;
    // Every survivor re-caps its local step against the shrunk worker
    // set; the min consensus then propagates the tightest cap.
    for (core::worker_id j = 0; j < n; ++j) {
      if (flags.removed[j] == 0) {
        alpha_bar[j] = std::min(alpha_bar[j], r.cap);
      }
    }
    ++report.removed_workers;
    // Reclaim the retired worker's link buffers (accounting-neutral).
    wire.retire_node(id);
    if (tr != nullptr) {
      tr->instant(lane, round, "worker_removed", "fd",
                  {obs::arg_int("worker", id),
                   obs::arg_int("survivors", r.heirs),
                   obs::arg_num("alpha_cap", r.cap)});
    }
  }

  /// Stage 1 of the split round: membership, the all-pairs broadcast and
  /// H_t resolution. On an empty H_t the abort is recorded in `out` and
  /// next_x already holds x.
  stage_result stage_gather(std::uint64_t round, degraded_outcome& out) {
    for (core::worker_id i = 0; i < n; ++i) {
      if (flags.removed[i] == 0 && plan.permanently_down(i, round)) {
        retire(i, round);
      }
    }
    timing.round_begin(locals, flags.removed);

    for (core::worker_id i = 0; i < n; ++i) {
      flags.live[i] = (flags.removed[i] == 0 && !plan.down(i, round)) ? 1 : 0;
      if (flags.live[i] == 0 && flags.removed[i] == 0) {
        ++out.holds;  // temporarily down
      }
    }

    wire.begin_round(round);
    scratch.next_x = x;

    // --- Phase 1: live workers (including mid-round crashers, whose
    //     transport completes) broadcast (l_i, alpha-bar_i). ---
    {
      obs::span sp(tr, lane, round, "phase1.broadcast", "fd");
      for (net::node_id i = 0; i < n; ++i) {
        if (flags.live[i] == 0) continue;
        for (net::node_id j = 0; j < n; ++j) {
          if (j == i || flags.live[j] == 0) continue;
          wire.send({i, j, net::message_kind::cost_and_step,
                     {locals[i], alpha_bar[i]}});
          timing.on_send();
          timing.broadcast_sent(i, j);
        }
      }
    }

    // Delivery resolution: every polling receiver (live, still computing)
    // drains its inbox; a sender enters H_t only if all of them heard it.
    scratch.inbox_l.assign(n, 0.0);
    scratch.inbox_a.assign(n, 0.0);
    std::fill(flags.delivered.begin(), flags.delivered.end(), 0);
    for (net::node_id j = 0; j < n; ++j) {
      if (flags.live[j] == 0 || plan.crashed_during(j, round)) continue;
      for (net::node_id i = 0; i < n; ++i) {
        if (i == j || flags.live[i] == 0) continue;
        auto m = wire.receive(j, i);
        if (m.has_value()) {
          flags.delivered[j * n + i] = 1;
          scratch.inbox_l[i] = m->payload[0];  // consistent across receivers
          scratch.inbox_a[i] = m->payload[1];
          timing.broadcast_delivered(j, i, wire.last_receive_attempts());
        } else {
          timing.broadcast_lost(j, i);
        }
      }
    }
    std::size_t h_count = 0;
    for (net::node_id i = 0; i < n; ++i) {
      flags.in_h[i] = flags.live[i];
      if (flags.live[i] == 0) continue;
      for (net::node_id j = 0; j < n; ++j) {
        if (j == i || flags.live[j] == 0 || plan.crashed_during(j, round)) {
          continue;
        }
        if (flags.delivered[j * n + i] == 0) {
          flags.in_h[i] = 0;
          break;
        }
      }
      if (flags.in_h[i] != 0) {
        ++h_count;
        scratch.inbox_l[i] = locals[i];
        scratch.inbox_a[i] = alpha_bar[i];
      }
    }
    for (core::worker_id i = 0; i < n; ++i) {
      if (flags.live[i] != 0 && flags.in_h[i] == 0 &&
          !plan.crashed_during(i, round)) {
        ++out.holds;  // excluded from the round: broadcast lost past budget
      }
      if (flags.live[i] != 0 && plan.crashed_during(i, round)) {
        ++out.holds;  // sent its broadcast, then stopped computing
      }
    }
    timing.phase1_done();

    stage_result res;
    res.participants = h_count;
    if (h_count == 0) {
      out.aborted = true;
      scratch.next_x = x;  // every worker holds
      return res;
    }
    // Max cost / min step over H_t: the exact scan the election runs, so
    // both values are bit-identical to the elected straggler's cost and
    // the flat consensus step.
    core::worker_id top = n;
    double min_a = 1.0;
    for (core::worker_id i = 0; i < n; ++i) {
      if (flags.in_h[i] == 0) continue;
      if (top == n || scratch.inbox_l[i] > scratch.inbox_l[top]) top = i;
      min_a = std::min(min_a, scratch.inbox_a[i]);
    }
    res.max_cost = scratch.inbox_l[top];
    res.min_alpha = min_a;
    return res;
  }

  /// Stage 2: election, the movers' Eq. 5 steps and the straggler's
  /// absorption, all against the supplied consensus pair (the
  /// shard's own max/min on the flat path, the tree consensus under the
  /// hierarchical layer).
  void stage_commit(std::uint64_t round, double l_t, double alpha_t,
                    degraded_outcome& out) {
    // --- Election over H_t: straggler by max cost (lowest-index
    //     tie-breaking, as in the sequential reference). ---
    core::worker_id s = n;
    for (core::worker_id i = 0; i < n; ++i) {
      if (flags.in_h[i] == 0) continue;
      if (s == n || scratch.inbox_l[i] > scratch.inbox_l[s]) s = i;
    }
    out.straggler = s;
    out.consensus_alpha = alpha_t;
    if (tr != nullptr) {
      tr->instant(lane, round, "straggler_elected", "fd",
                  {obs::arg_int("worker", s),
                   obs::arg_num("cost", scratch.inbox_l[s]),
                   obs::arg_num("alpha_consensus", alpha_t)});
    }

    // --- Phase 2: movers (in H_t, still computing, not the straggler)
    //     update locally and upload {x_new, x_old} to the straggler. ---
    {
      obs::span sp(tr, lane, round, "phase2.decision_uploads", "fd");
      if (batch != nullptr) {
        scratch.xp.resize(n);
        batch->max_acceptable(x, l_t, s, scratch.xp);
      }
      for (net::node_id i = 0; i < n; ++i) {
        if (flags.in_h[i] == 0 || i == s || plan.crashed_during(i, round)) {
          continue;
        }
        scratch.tentative[i] =
            batch == nullptr
                ? decide_next_share(*costs[i], x[i], l_t, alpha_t)
                : x[i] + alpha_t * (scratch.xp[i] - x[i]);
        wire.send({i, s, net::message_kind::decision,
                   {scratch.tentative[i], x[i]}});
        timing.on_send();
        timing.decision_sent(i);
      }
    }

    // A straggler that crashed mid-round cannot absorb: re-elect the
    // next-highest cost in H_t that is still computing, and movers
    // re-upload there. The new straggler discards its own tentative move
    // (its share is derived, not decided).
    core::worker_id s_final = s;
    if (plan.crashed_during(s, round)) {
      core::worker_id s2 = n;
      for (core::worker_id i = 0; i < n; ++i) {
        if (flags.in_h[i] == 0 || i == s || plan.crashed_during(i, round)) {
          continue;
        }
        if (s2 == n || scratch.inbox_l[i] > scratch.inbox_l[s2]) s2 = i;
      }
      if (s2 == n) {
        out.aborted = true;
        scratch.next_x = x;  // every worker holds
        return;
      }
      ++out.failovers;
      ++report.straggler_failovers;
      if (failover_counter != nullptr) failover_counter->add(1);
      if (tr != nullptr) {
        tr->instant(lane, round, "straggler_failover", "fd",
                    {obs::arg_int("from", s), obs::arg_int("to", s2),
                     obs::arg_num("cost", scratch.inbox_l[s2])});
      }
      timing.failover();
      obs::span sp(tr, lane, round, "phase2.failover_resend", "fd");
      for (net::node_id i = 0; i < n; ++i) {
        if (flags.in_h[i] == 0 || i == s || i == s2 ||
            plan.crashed_during(i, round)) {
          continue;
        }
        wire.send({i, s2, net::message_kind::decision,
                   {scratch.tentative[i], x[i]}});
        timing.on_send();
        timing.decision_sent(i);
      }
      s_final = s2;
      out.straggler = s2;
    }

    // --- Post-phase: the straggler absorbs the remainder (Eq. 6). A mover
    //     whose decision never arrived rolls back to x_{i,t}. ---
    double claimed = 0.0;
    double old_sum = 0.0;
    bool held = false;
    for (net::node_id i = 0; i < n; ++i) {
      if (i == s_final || flags.removed[i] != 0) continue;
      if (flags.in_h[i] == 0 || i == s || plan.crashed_during(i, round)) {
        held = true;
        continue;
      }
      auto m = wire.receive(s_final, i);
      if (m.has_value()) {
        scratch.next_x[i] = scratch.tentative[i];
        claimed += m->payload[0];
        old_sum += m->payload[1];
        timing.decision_delivered(i, wire.last_receive_attempts());
      } else {
        held = true;
        ++out.holds;  // decision lost past budget: the mover rolls back
        timing.decision_lost(i);
      }
    }
    timing.decisions_done();
    // The holders' total mass: what the group's target leaves after the
    // straggler's and the movers' current shares.
    if (held) claimed += target - x[s_final] - old_sum;
    const double raw = target - claimed;
    scratch.next_x[s_final] = std::max(0.0, raw);
    if (raw < 0.0) {
      // The remainder went negative (floating-point drift, or alpha ran
      // ahead of the binding Eq. 7 cap while its source went unheard):
      // rescale onto the group's mass like the sequential reference.
      // (scale == total exactly when target == 1.0, so the flat division
      // is untouched bit for bit.)
      double total = 0.0;
      for (double v : scratch.next_x) total += v;
      const double scale = total / target;
      for (double& v : scratch.next_x) v /= scale;
      if (tr != nullptr) {
        tr->instant(lane, round, "renormalized", "fd",
                    {obs::arg_num("total", total)});
      }
    }
    const double alpha_before = alpha_bar[s_final];
    const std::size_t ncap = cap_workers == 0 ? n : cap_workers;
    alpha_bar[s_final] =
        core::next_step_size(alpha_bar[s_final], ncap,
                             scratch.next_x[s_final]);
    if (tr != nullptr && alpha_bar[s_final] != alpha_before) {
      tr->instant(lane, round, "alpha_tightened", "fd",
                  {obs::arg_int("worker", s_final),
                   obs::arg_num("alpha_bar", alpha_bar[s_final])});
    }
  }

  degraded_outcome run(std::uint64_t round) {
    degraded_outcome out;
    const stage_result up = stage_gather(round, out);
    if (out.aborted) return out;
    stage_commit(round, up.max_cost, up.min_alpha, out);
    return out;
  }
};

}  // namespace dolbie::dist
