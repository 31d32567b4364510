// Master-worker (Alg. 1) round state machine of the unified protocol core.
//
// `mw_degraded_round` is the one Alg. 1 round every engine runs — written
// once as pure transitions over a delivery policy (net/transport.h) and a
// timing model. The engine shell (dist/engine.h) drives it over
// `direct_delivery` when the fault plan is disabled and over
// `reliable_delivery` (bounded retransmit, degraded completion, straggler
// failover, churn retirement) when it is not; the synchronous engine
// instantiates `null_timing` (every hook compiles away), the asynchronous
// engine a deadline-arithmetic model (dist/round_timing.h) that prices
// each delivery in virtual time from `Delivery::last_receive_attempts()`.
//
// Degraded-round semantics (reachable only under a fault plan, or over a
// real cluster's sockets):
//
//   * a worker the master does not hear from (down, crashed mid-round, or
//     lost past the retry budget) takes a zero-length Eq. 5 step — it
//     holds x_{i,t}, and the straggler's Eq. 6 remainder accounts for it
//     at its current share, which the master legitimately tracks;
//   * a worker's decision commits only when the master confirms receipt
//     (the pull-model ack); unconfirmed decisions roll back to x_{i,t};
//   * the round itself commits when the straggler adopts its assignment.
//     If the elected straggler is unreachable, the master re-elects the
//     next-highest heard cost deterministically; if no candidate is
//     reachable the whole round aborts (every worker holds).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/churn.h"
#include "core/max_acceptable.h"
#include "core/step_size.h"
#include "core/types.h"
#include "cost/batch.h"
#include "cost/cost_function.h"
#include "dist/protocol.h"
#include "net/fault_plan.h"
#include "net/message.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dolbie::dist {

/// The Eq. 4/5 update every realization shares: solve for the maximum
/// acceptable workload x'_{i,t} at the revealed global cost and move an
/// alpha-fraction towards it. Kept as one inline kernel so all call sites
/// use the identical floating-point evaluation order.
inline double decide_next_share(const cost::cost_function& cost, double x,
                                double global_cost, double alpha) {
  const double xp = core::max_acceptable_workload(cost, x, global_cost);
  return x + alpha * (xp - x);
}

/// One Alg. 1 round over `Delivery` (a net/transport.h policy) and
/// `Timing` (null_timing, or the async deadline model). Thin reference
/// aggregate: constructing one per round is allocation-free.
///
/// The round is split into two stages around the global-cost consensus so
/// the hierarchical layer (src/shard) can interpose a reduction-tree
/// round between them: `stage_gather` runs membership + phase 1 (cost
/// uploads), `stage_commit(l_t, alpha_t)` runs phases 2-4 against a
/// supplied global cost and step. `run()` composes them with the local
/// max and the master's own step and adopts the Eq. 7 step-size
/// candidate — byte-for-byte the flat round.
template <class Delivery, class Timing>
struct mw_degraded_round {
  std::size_t n;
  net::node_id master;
  const cost::cost_view& costs;
  std::span<const double> locals;
  const net::fault_plan& plan;
  Delivery wire;
  Timing& timing;
  obs::tracer* tr;
  std::uint32_t lane;
  obs::counter* failover_counter;
  fault_report& report;
  std::vector<double>& x;      ///< the allocation, updated in place
  double& alpha;               ///< the master's step size
  round_scratch& scratch;
  member_flags& flags;
  /// Total workload this worker group conserves (Eq. 6 remainder base and
  /// renormalization target). 1.0 for the flat protocol — the paper's
  /// simplex; a shard's slice of it under the hierarchical layer.
  double target = 1.0;
  /// Worker count for the Eq. 7 step-size candidate; 0 = use `n`. The
  /// hierarchical layer passes the global N: feasible_step_cap decreases
  /// in the worker count, so the global cap is safe within every shard.
  std::size_t cap_workers = 0;
  /// Optional SoA evaluator bound over `costs`. When set, phase 3 computes
  /// every Eq. 4 solve through one batched pass (cost/batch.h — kernels
  /// bit-identical to the scalar path by construction) instead of one
  /// virtual inverse_max per worker. Null keeps the scalar path verbatim
  /// (the flat engines' instantiation).
  const cost::batch_evaluator* batch = nullptr;

  void retire(core::worker_id id, std::uint64_t round) {
    retirement r;
    if (!retire_worker_share(x, flags, id, r, target)) return;
    alpha = std::min(alpha, r.cap);
    ++report.removed_workers;
    // The retired worker's links never carry traffic again; reclaim their
    // buffers (accounting-neutral — see network::retire_node).
    wire.retire_node(id);
    if (tr != nullptr) {
      tr->instant(lane, round, "worker_removed", "mw",
                  {obs::arg_int("worker", id),
                   obs::arg_int("survivors", r.heirs),
                   obs::arg_num("alpha", alpha)});
    }
  }

  /// Stage 1 of the split round: membership (churn retirement, liveness)
  /// and the phase-1 cost uploads. On a wholly silent round the abort is
  /// recorded in `out` and the allocation is already restored.
  stage_result stage_gather(std::uint64_t round, degraded_outcome& out) {
    // Membership: permanent crashes retire through the shared churn math
    // before the round starts.
    for (core::worker_id i = 0; i < n; ++i) {
      if (flags.removed[i] == 0 && plan.permanently_down(i, round)) {
        retire(i, round);
      }
    }
    timing.round_begin(locals, flags.removed);

    scratch.start_x = x;
    for (core::worker_id i = 0; i < n; ++i) {
      flags.live[i] = (flags.removed[i] == 0 && !plan.down(i, round)) ? 1 : 0;
      if (flags.live[i] == 0 && flags.removed[i] == 0) {
        ++out.holds;  // temporarily down
        timing.phase1_silent(i);
      }
    }

    wire.begin_round(round);

    // --- Phase 1: live workers (including mid-round crashers, whose
    //     transport completes) upload their local costs. ---
    scratch.inbox_l.assign(n, 0.0);
    stage_result res;
    res.min_alpha = alpha;  // retirement caps already folded in
    {
      obs::span sp(tr, lane, round, "phase1.cost_uploads", "mw");
      for (net::node_id i = 0; i < n; ++i) {
        if (flags.live[i] == 0) continue;
        wire.send({i, master, net::message_kind::local_cost, {locals[i]}});
        timing.on_send();
      }
      std::fill(flags.heard.begin(), flags.heard.end(), 0);
      for (net::node_id i = 0; i < n; ++i) {
        if (flags.live[i] == 0) continue;
        auto m = wire.receive(master, i);
        if (m.has_value()) {
          flags.heard[i] = 1;
          ++res.participants;
          scratch.inbox_l[i] = m->payload[0];
          timing.phase1_delivered(i, wire.last_receive_attempts());
        } else {
          ++out.holds;  // unheard past budget: excluded from the round
          timing.phase1_lost(i);
        }
      }
    }
    timing.phase1_done();

    if (res.participants == 0) {
      // Nobody reached the master: the round aborts, every worker holds.
      out.aborted = true;
      x = scratch.start_x;
      return res;
    }
    // Max heard cost: the same ascending-index strict-greater scan the
    // phase-2 election runs, so the value is bit-identical to the elected
    // straggler's cost.
    core::worker_id top = n;
    for (core::worker_id i = 0; i < n; ++i) {
      if (flags.heard[i] != 0 &&
          (top == n || scratch.inbox_l[i] > scratch.inbox_l[top])) {
        top = i;
      }
    }
    res.max_cost = scratch.inbox_l[top];
    return res;
  }

  /// Stage 2: phases 2-4 against the supplied global cost and step (the
  /// group's own on the flat path, the tree consensus under the
  /// hierarchical layer). Leaves the Eq. 7 candidate in
  /// `out.alpha_candidate` — the caller decides whether to adopt it (flat)
  /// or min-reduce it (tree).
  void stage_commit(std::uint64_t round, double l_t, double alpha_t,
                    degraded_outcome& out) {
    alpha = alpha_t;
    // --- Phase 2: elect over the heard set, broadcast round info. ---
    core::worker_id s = n;
    for (core::worker_id i = 0; i < n; ++i) {
      if (flags.heard[i] != 0 &&
          (s == n || scratch.inbox_l[i] > scratch.inbox_l[s])) {
        s = i;
      }
    }
    out.straggler = s;
    if (tr != nullptr) {
      tr->instant(lane, round, "straggler_elected", "mw",
                  {obs::arg_int("worker", s), obs::arg_num("cost", l_t)});
    }
    {
      obs::span sp(tr, lane, round, "phase2.round_info_downloads", "mw");
      for (net::node_id i = 0; i < n; ++i) {
        if (flags.heard[i] == 0) continue;
        wire.send(make_round_info(master, i, l_t, alpha, i != s));
        timing.on_send();
        timing.info_sent(i);
      }
    }

    // --- Phase 3: reachable non-stragglers compute tentative decisions
    //     and upload them. A worker that crashed mid-round or missed its
    //     round info holds x_{i,t}. ---
    {
      obs::span sp(tr, lane, round, "phase3.decision_uploads", "mw");
      std::fill(flags.decided.begin(), flags.decided.end(), 0);
      if (batch != nullptr) {
        // Every round info decoded below carries exactly (l_t, alpha) —
        // payload doubles round-trip the wire bit-exactly — so the blend
        // can use this one precomputed Eq. 4 vector for all workers.
        scratch.xp.resize(n);
        batch->max_acceptable(x, l_t, out.straggler, scratch.xp);
      }
      for (net::node_id i = 0; i < n; ++i) {
        if (flags.heard[i] == 0) continue;
        if (plan.crashed_during(i, round)) {
          if (i != s) ++out.holds;  // died after its phase-1 upload
          timing.info_abandoned(i);
          continue;
        }
        // Every reachable worker consumes its round info — the straggler
        // included, or the stale message would alias the assignment it
        // pulls from the same link in phase 4.
        auto m = wire.receive(i, master);
        const std::size_t k_info = wire.last_receive_attempts();
        if (i == s) {  // the straggler waits for its assignment
          if (m.has_value()) {
            timing.info_delivered(i, k_info);
            timing.straggler_ready(i);
          } else {
            timing.info_lost(i);
          }
          continue;
        }
        if (!m.has_value()) {
          ++out.holds;  // round info lost past budget: zero step
          timing.info_lost(i);
          continue;
        }
        timing.info_delivered(i, k_info);
        const round_info info = decode_round_info(*m);
        scratch.tentative[i] =
            batch == nullptr
                ? decide_next_share(*costs[i], x[i], info.l_t, info.alpha)
                : x[i] + info.alpha * (scratch.xp[i] - x[i]);
        wire.send(
            {i, master, net::message_kind::decision, {scratch.tentative[i]}});
        timing.on_send();
        timing.decision_sent(i);
        flags.decided[i] = 1;
      }
    }

    // --- Phase 4: commit confirmed decisions, assign the remainder with
    //     deterministic straggler failover. ---
    {
      obs::span sp(tr, lane, round, "phase4.assignment_download", "mw");
      for (net::node_id i = 0; i < n; ++i) {
        if (flags.decided[i] == 0) continue;
        auto m = wire.receive(master, i);
        if (m.has_value()) {
          x[i] = m->payload[0];
          timing.decision_delivered(i, wire.last_receive_attempts());
        } else {
          flags.decided[i] = 0;  // never acked: the worker rolls back
          ++out.holds;
          timing.decision_lost(i);
        }
      }
      timing.decisions_done();

      bool clamped = false;
      const auto try_assign = [&](core::worker_id cand) -> bool {
        // The straggler's share is derived, not decided: revert any move
        // the candidate committed as a non-straggler before re-deriving.
        const double saved = x[cand];
        x[cand] = scratch.start_x[cand];
        double claimed = 0.0;
        for (core::worker_id j = 0; j < n; ++j) {
          if (j != cand) claimed += x[j];
        }
        const double raw = target - claimed;
        const double next = std::max(0.0, raw);
        wire.send({master, cand, net::message_kind::assignment, {next}});
        timing.on_send();
        auto m = wire.receive(cand, master);
        if (!m.has_value()) {
          x[cand] = saved;  // unreachable: keep its committed move
          timing.assignment_lost();
          return false;
        }
        timing.assignment_delivered(wire.last_receive_attempts());
        x[cand] = m->payload[0];
        clamped = raw < 0.0;
        return true;
      };

      bool assigned = false;
      if (!plan.crashed_during(s, round)) assigned = try_assign(s);
      if (!assigned) {
        // Failover chain: next-highest heard cost among workers that are
        // still running, lowest index on ties; reuse flags.heard to mark
        // exhausted candidates.
        core::worker_id prev = s;
        for (;;) {
          core::worker_id cand = n;
          for (core::worker_id i = 0; i < n; ++i) {
            if (i == s || flags.heard[i] == 0 ||
                plan.crashed_during(i, round)) {
              continue;
            }
            if (cand == n || scratch.inbox_l[i] > scratch.inbox_l[cand]) {
              cand = i;
            }
          }
          if (cand == n) break;
          flags.heard[cand] = 0;  // consumed as a candidate
          ++out.failovers;
          ++report.straggler_failovers;
          if (failover_counter != nullptr) failover_counter->add(1);
          if (tr != nullptr) {
            tr->instant(lane, round, "straggler_failover", "mw",
                        {obs::arg_int("from", prev), obs::arg_int("to", cand),
                         obs::arg_num("cost", scratch.inbox_l[cand])});
          }
          if (try_assign(cand)) {
            assigned = true;
            out.straggler = cand;
            break;
          }
          prev = cand;
        }
      }
      if (!assigned) {
        out.aborted = true;
        x = scratch.start_x;
      } else {
        if (clamped) {
          // The remainder went negative: alpha ran ahead of the binding
          // Eq. 7 cap (its source went unheard in a degraded round).
          // Rescale onto the group's mass like the sequential reference.
          // (scale == total exactly when target == 1.0, so the flat
          // division is untouched bit for bit.)
          double total = 0.0;
          for (double v : x) total += v;
          const double scale = total / target;
          for (double& v : x) v /= scale;
          if (tr != nullptr) {
            tr->instant(lane, round, "renormalized", "mw",
                        {obs::arg_num("total", total)});
          }
        }
        // Conservative re-cap from the realized straggler share (Eq. 7
        // with the full worker count — a superset bound stays safe).
        const std::size_t ncap = cap_workers == 0 ? n : cap_workers;
        out.alpha_candidate = core::next_step_size(alpha, ncap,
                                                   x[out.straggler]);
      }
    }
  }

  degraded_outcome run(std::uint64_t round) {
    degraded_outcome out;
    const stage_result up = stage_gather(round, out);
    if (out.aborted) return out;
    stage_commit(round, up.max_cost, up.min_alpha, out);
    if (!out.aborted) alpha = out.alpha_candidate;
    return out;
  }
};

}  // namespace dolbie::dist
