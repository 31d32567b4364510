#include "shard/hierarchical_engine.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

#include "common/error.h"
#include "common/rng.h"
#include "common/snapshot.h"
#include "common/simplex.h"
#include "common/thread_pool.h"
#include "core/step_size.h"
#include "cost/batch.h"
#include "dist/fd_round.h"
#include "dist/mw_round.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dolbie::shard {
namespace {

// MW shards run the master-worker star with the leaf aggregator co-located
// as the master (hub id m); FD shards need the all-pairs broadcast.
net::network make_shard_net(std::size_t m, shard_protocol mode) {
  if (mode == shard_protocol::master_worker) {
    return net::network(m + 1, static_cast<net::node_id>(m));
  }
  return net::network(m);
}

// The worker fault schedule, re-keyed into one shard: crash windows keep
// their rounds but are renamed to shard-local slots; link-fault rolls get
// a decorrelated per-shard seed (shard 0 keeps the base seed, which is
// what makes the K = 1 configuration transcript-identical to the flat
// engines — slot ids equal global ids there).
net::fault_plan shard_faults(const net::fault_plan& base,
                             const shard_plan& plan, std::size_t k) {
  net::fault_plan local;
  local.seed = k == 0 ? base.seed
                      : rng::stream_seed(base.seed,
                                         static_cast<std::uint64_t>(k));
  local.drop_rate = base.drop_rate;
  local.duplicate_rate = base.duplicate_rate;
  local.reorder_rate = base.reorder_rate;
  local.force = base.force;
  for (const net::crash_window& w : base.crashes) {
    if (plan.shard_of[w.node] != k) continue;
    local.crashes.push_back({static_cast<net::node_id>(plan.slot_of[w.node]),
                             w.crash_round, w.recover_round});
  }
  return local;
}

}  // namespace

/// Everything one shard owns: its slice of the allocation, its network
/// (plus the reliable layer when its fault plan is live) and the round
/// machines' state. Heap-held — net::network is not movable. The whole
/// struct is thread-confined: exactly one Stage A/B job touches it per
/// round, so nothing here needs synchronization.
struct hierarchical_engine::shard_rt {
  std::size_t m;                ///< member count
  double mass = 0.0;            ///< this shard's slice of the simplex
  net::fault_plan faults;       ///< shard-local schedule (slot ids)
  bool faulty = false;
  net::network net;
  std::unique_ptr<net::reliable_link> rel;
  std::uint32_t lane = 0;       ///< this shard's private trace lane

  std::vector<double> x;          ///< shard-local allocation slice
  std::vector<double> alpha_bar;  ///< FD per-worker step bounds
  double alpha_view = 0.0;        ///< MW per-round copy of the global step
  /// MW: Eq. 7 caps discovered while cut off from the root (churn
  /// retirement in an unreached round), re-announced once the path heals.
  double carry_cap = std::numeric_limits<double>::infinity();
  dist::round_scratch scratch;
  dist::member_flags flags;
  cost::cost_view costs;        ///< per-round gathered views
  std::vector<double> locals;
  /// Cumulative counters this shard's round machines mutate
  /// (removed_workers, straggler_failovers); the engine sums them into the
  /// public report post-barrier, so jobs never share a report.
  dist::fault_report rep;
  /// SoA Eq. 4 evaluator, rebound over `costs` every round. Rebinding is
  /// O(m) coefficient copies — caching by pointer identity is unsound
  /// because environments free each round's cost functions afterwards, so
  /// a recycled address can alias a *different* function next round.
  cost::batch_evaluator batch;

  shard_rt(std::size_t members, shard_protocol mode, net::fault_plan local,
           std::size_t retry_budget, obs::tracer* tracer,
           std::uint32_t lane_id)
      : m(members),
        faults(std::move(local)),
        faulty(faults.enabled()),
        net(make_shard_net(members, mode)),
        lane(lane_id) {
    net.attach_tracer(tracer, lane);
    if (faulty) {
      net.attach_faults(faults);
      rel = std::make_unique<net::reliable_link>(
          net, net::reliable_options{retry_budget});
      rel->attach_tracer(tracer, lane);
    }
    flags.setup(m, /*all_pairs=*/mode == shard_protocol::fully_distributed);
    scratch.tentative.assign(m, 0.0);
    scratch.xp.assign(m, 0.0);
    costs.assign(m, nullptr);
    locals.assign(m, 0.0);
  }
};

namespace {

// The stage-split round machines, instantiated per shard exactly as the
// flat engine shell instantiates them, plus the shard's persistent batch
// evaluator so Eq. 4 runs on the SoA path. The one dispatch of the shard
// layer: `f` receives the shard's MW or FD machine (per `mw`) over the
// delivery its fault plan selects — reliable when faulty, else direct.
template <class F>
void with_round(hierarchical_engine::shard_rt& sh, bool mw, obs::tracer* tr,
                obs::counter* failover, std::size_t cap_workers, F&& f) {
  dist::null_timing timing;
  const std::uint32_t lane = sh.lane;
  dist::fault_report& report = sh.rep;
  net::with_delivery(sh.net, sh.rel.get(), [&]<class Wire>(Wire& wire) {
    if (mw) {
      dist::mw_degraded_round<Wire, dist::null_timing> flow{
          sh.m,    static_cast<net::node_id>(sh.m),
          sh.costs, sh.locals,
          sh.faults, wire,
          timing,  tr,
          lane,    failover,
          report,  sh.x,
          sh.alpha_view, sh.scratch,
          sh.flags, sh.mass,
          cap_workers, &sh.batch};
      f(flow);
    } else {
      dist::fd_degraded_round<Wire, dist::null_timing> flow{
          sh.m,    sh.costs,
          sh.locals, sh.faults,
          wire,    timing,
          tr,      lane,
          failover, report,
          sh.x,    sh.alpha_bar,
          sh.scratch, sh.flags,
          sh.mass, cap_workers,
          &sh.batch};
      f(flow);
    }
  });
}

}  // namespace

hierarchical_engine::hierarchical_engine(std::size_t n_workers,
                                         hierarchical_options options)
    : n_(n_workers),
      options_(std::move(options)),
      plan_(make_shard_plan(n_workers, options_.plan)),
      tree_(plan_, options_.protocol.tracer, options_.protocol.trace_lane) {
  dist::normalize_options(options_.protocol, n_);
  net::validate_crash_schedule(options_.aggregator_crashes,
                               plan_.aggregators());
  agg_plan_.crashes = options_.aggregator_crashes;
  faulty_ = options_.protocol.faults.enabled() ||
            !options_.aggregator_crashes.empty();
  // Engage repair only when something can actually die permanently, so
  // zero-fault rounds stay on the exact pre-repair code path.
  repair_active_ = options_.self_heal && (!options_.aggregator_crashes.empty() ||
                                          options_.outage_threshold > 0);
  revive_round_.assign(plan_.aggregators(), 0);
  outage_streak_.assign(plan_.aggregators(), 0);

  const std::size_t n_shards = plan_.shards();
  shards_.reserve(n_shards);
  for (std::size_t k = 0; k < n_shards; ++k) {
    // Shard k records on trace_lane + k: one writer per lane within every
    // barrier window, and the (round, lane, seq) merge keeps the combined
    // trace byte-identical at any pool width. K = 1 keeps everything on
    // trace_lane — the PR 7 layout.
    shards_.push_back(std::make_unique<shard_rt>(
        plan_.members[k].size(), options_.mode,
        shard_faults(options_.protocol.faults, plan_, k),
        options_.protocol.retry_budget, options_.protocol.tracer,
        options_.protocol.trace_lane + static_cast<std::uint32_t>(k)));
  }

  // The intra-round pool: only worth owning when there is both work to
  // split (more than one shard) and width to split it over. Serial and
  // pooled execution are bit-identical, so this is purely a perf choice.
  const std::size_t width =
      options_.threads != 0 ? options_.threads : default_thread_count();
  if (n_shards > 1 && width > 1) {
    pool_ = std::make_unique<thread_pool>(width);
    tree_.set_pool(pool_.get());
  }

  counters_.bind(options_.protocol.metrics, "hier", "hier.alpha", faulty_);
  if (options_.protocol.metrics != nullptr) {
    options_.protocol.metrics->gauge_named("shard.level_depth")
        .set(static_cast<double>(plan_.depth));
    options_.protocol.metrics->gauge_named("shard.fanin")
        .set(static_cast<double>(plan_.fanin));
    repairs_counter_ =
        &options_.protocol.metrics->counter_named("shard.tree_repairs");
  }

  leaf_max_.assign(n_shards, 0.0);
  leaf_min_.assign(n_shards, 0.0);
  contribute_.assign(n_shards, 0);
  pass3_.assign(n_shards, 0);
  reached_.assign(n_shards, 0);
  agg_live_.assign(plan_.aggregators(), 1);
  outcomes_.assign(n_shards, {});
  ran_.assign(n_shards, 0);
  participants_.assign(n_shards, 0);
  reset();
}

hierarchical_engine::~hierarchical_engine() = default;

std::string_view hierarchical_engine::name() const {
  return options_.mode == shard_protocol::master_worker ? "DOLBIE-HIER-MW"
                                                        : "DOLBIE-HIER-FD";
}

void hierarchical_engine::reset() {
  const core::allocation& part = options_.protocol.initial_partition;
  const double alpha1 = options_.protocol.initial_step >= 0.0
                            ? options_.protocol.initial_step
                            : core::initial_step_size(part);
  alpha_ = alpha1;

  // Shard masses are algebraic, not merely numeric: shard 0 takes the
  // complement of the others, so the masses sum to exactly 1.0 — and a
  // single shard's mass is exactly 1.0, the flat engines' target.
  double others = 0.0;
  for (std::size_t k = plan_.shards(); k-- > 0;) {
    shard_rt& sh = *shards_[k];
    sh.x.resize(sh.m);
    double own = 0.0;
    for (std::size_t slot = 0; slot < sh.m; ++slot) {
      sh.x[slot] = part[plan_.members[k][slot]];
      own += sh.x[slot];
    }
    if (k > 0) {
      sh.mass = own;
      others += own;
    } else {
      sh.mass = 1.0 - others;
    }
    sh.alpha_bar.assign(sh.m, alpha1);
    sh.alpha_view = alpha1;
    sh.carry_cap = std::numeric_limits<double>::infinity();
    sh.flags.setup(sh.m, /*all_pairs=*/options_.mode ==
                             shard_protocol::fully_distributed);
    sh.rep = {};
    if (sh.rel != nullptr) sh.rel->reset();
    // Fault rolls key on per-link attempt counters that deliberately
    // survive reset_traffic (they are configuration, not accounting);
    // re-attaching the plan rewinds them so a replay reproduces the
    // exact fault transcript.
    if (sh.faulty) sh.net.attach_faults(sh.faults);
    sh.net.reset_traffic();
  }
  tree_.reset();
  std::fill(revive_round_.begin(), revive_round_.end(), std::uint64_t{0});
  std::fill(outage_streak_.begin(), outage_streak_.end(), std::uint64_t{0});
  repairs_.clear();
  assembled_ = part;
  round_ = 0;
  report_ = {};
  mirrored_ = {};
  last_traffic_ = {};
  traffic_mark_ = {};
}

void hierarchical_engine::observe(const core::round_feedback& feedback) {
  DOLBIE_REQUIRE(feedback.costs != nullptr, "feedback carries no costs");
  DOLBIE_REQUIRE(feedback.local_costs.size() == n_, "feedback size mismatch");
  const std::uint64_t round = round_++;
  if (n_ == 1) return;

  const bool mw = options_.mode == shard_protocol::master_worker;
  const std::size_t n_shards = plan_.shards();
  obs::tracer* tr = options_.protocol.tracer;
  const std::uint32_t lane = options_.protocol.trace_lane;
  traffic_mark_ = cumulative_traffic();
  obs::span round_span(tr, lane, round, "round", "shard");

  // Self-healing first: a node diagnosed permanently dead (kNever window
  // open, or outage streak past the threshold) is repaired before this
  // round's liveness is read, so the repaired topology carries the round.
  if (repair_active_) heal(round, tr, lane);

  // Round-granular aggregator liveness: a node that dies mid-round is
  // absent for the whole round (its shard holds; no partial summaries).
  // Under repair, windows older than a promotion's takeover round no
  // longer name the node (the replacement host is a different machine),
  // and excised nodes are simply gone.
  for (std::size_t a = 0; a < plan_.aggregators(); ++a) {
    if (repair_active_) {
      agg_live_[a] =
          (!tree_.retired(a) &&
           !agg_plan_.down(static_cast<net::node_id>(a), round,
                           revive_round_[a]) &&
           !agg_plan_.crashed_during(static_cast<net::node_id>(a), round,
                                     revive_round_[a]))
              ? 1
              : 0;
    } else {
      agg_live_[a] = (!agg_plan_.down(static_cast<net::node_id>(a), round) &&
                      !agg_plan_.crashed_during(static_cast<net::node_id>(a),
                                                round))
                         ? 1
                         : 0;
    }
  }
  if (repair_active_) {
    for (std::size_t a = 0; a < plan_.aggregators(); ++a) {
      if (tree_.retired(a) || agg_live_[a] != 0) {
        outage_streak_[a] = 0;
      } else {
        ++outage_streak_[a];
      }
    }
  }

  // Fan a per-shard stage over the pool (serial when there is none). Each
  // job touches only its own shard_rt and the k-indexed staging slots —
  // zero shared mutable state — and all work is keyed by shard id alone,
  // so the round is bit-identical at any pool width.
  const auto over_shards = [&](const std::function<void(std::size_t)>& job) {
    if (pool_ != nullptr) {
      pool_->parallel_for(n_shards, job);
    } else {
      for (std::size_t k = 0; k < n_shards; ++k) job(k);
    }
  };

  // --- Stage A: every shard with a live leaf aggregator runs the first
  //     stage of its round machine (membership + cost exchange) and
  //     produces its summary. ---
  over_shards([&](std::size_t k) {
    shard_rt& sh = *shards_[k];
    outcomes_[k] = {};
    ran_[k] = 0;
    contribute_[k] = 0;
    participants_[k] = 0;
    sh.net.set_round(round);
    if (mw) sh.alpha_view = alpha_;
    if (agg_live_[k] == 0) {
      // The shard is headless this round: every standing member holds.
      // Recorded in the shard's outcome slot; the post-barrier accounting
      // folds it into the round's totals.
      for (std::size_t slot = 0; slot < sh.m; ++slot) {
        if (sh.flags.removed[slot] == 0) ++outcomes_[k].holds;
      }
      return;
    }
    for (std::size_t slot = 0; slot < sh.m; ++slot) {
      const core::worker_id g = plan_.members[k][slot];
      sh.costs[slot] = (*feedback.costs)[g];
      sh.locals[slot] = feedback.local_costs[g];
    }
    sh.batch.rebind(sh.costs);
    ran_[k] = 1;
    dist::stage_result up;
    with_round(sh, mw, tr, counters_.failover, n_, [&](auto& flow) {
      up = flow.stage_gather(round, outcomes_[k]);
    });
    participants_[k] = up.participants;
    if (!outcomes_[k].aborted) {
      contribute_[k] = 1;
      leaf_max_[k] = up.max_cost;
      leaf_min_[k] = up.min_alpha;
    }
  });

  // --- Tree up: fold (max cost, min step) to the root... ---
  const reduce_result up =
      tree_.reduce(round, leaf_max_, leaf_min_, contribute_, agg_live_);

  // --- ...and down: the consensus pair reaches every shard whose path to
  //     the root is all-live. No contributor at the root (dead root, or
  //     every contributing subtree cut off) aborts the round globally. ---
  if (up.contributors > 0) {
    tree_.broadcast(round, up.max_value, up.min_value, agg_live_, reached_);
  } else {
    std::fill(reached_.begin(), reached_.end(), 0);
  }

  // --- Stage B: shards that contributed and heard back commit against
  //     the global consensus; everyone else holds. ---
  over_shards([&](std::size_t k) {
    shard_rt& sh = *shards_[k];
    if (ran_[k] == 0 || contribute_[k] == 0 || reached_[k] == 0) return;
    with_round(sh, mw, tr, counters_.failover, n_, [&](auto& flow) {
      flow.stage_commit(round, up.max_value, up.min_value, outcomes_[k]);
    });
    if (!mw && !outcomes_[k].aborted) {
      sh.x.swap(sh.scratch.next_x);
      // Same zero-share corner as the MW candidate: a clamped absorber
      // tightens its local bound to an exact zero, which would freeze the
      // whole tree's consensus permanently. Restore the round's consensus
      // step — renormalization already absorbed the overrun.
      for (double& bound : sh.alpha_bar) {
        if (bound <= 0.0) bound = up.min_value;
      }
    }
  });

  // --- Post-barrier fold (serial, shard-id order — the exact order the
  //     serial walk used): hold/failover sums, the Eq. 7 carry caps and
  //     the global straggler election. ---
  std::size_t total_holds = 0;
  std::size_t total_failovers = 0;
  bool any_committed = false;
  core::worker_id straggler_global = 0;
  bool straggler_known = false;
  double straggler_cost = 0.0;
  for (std::size_t k = 0; k < n_shards; ++k) {
    shard_rt& sh = *shards_[k];
    const bool committed =
        ran_[k] != 0 && contribute_[k] != 0 && reached_[k] != 0;
    if (!committed) {
      if (ran_[k] != 0) total_holds += participants_[k];
      // A shard cut off from the root cannot announce an Eq. 7 cap it
      // discovered through churn this round; carry it until it can.
      if (mw && ran_[k] != 0 && reached_[k] == 0) {
        sh.carry_cap = std::min(sh.carry_cap, sh.alpha_view);
      }
      total_holds += outcomes_[k].holds;
      total_failovers += outcomes_[k].failovers;
      continue;
    }
    total_holds += outcomes_[k].holds;
    total_failovers += outcomes_[k].failovers;
    if (!outcomes_[k].aborted) {
      any_committed = true;
      // The global straggler (for the gauge / round span): the committed
      // shard owning the global max — same strict-greater, lowest-first
      // chain as the flat election.
      if (!straggler_known || leaf_max_[k] > straggler_cost) {
        straggler_known = true;
        straggler_cost = leaf_max_[k];
        straggler_global = plan_.members[k][outcomes_[k].straggler];
      }
    }
  }

  // --- MW pass C: fold the Eq. 7 candidates (committed shards) and the
  //     current views (aborted-but-reached shards — they still carry any
  //     churn re-cap) back to the root; the min is alpha_{t+1}. ---
  if (mw && up.contributors > 0) {
    // Eq. 7 is driven by the global straggler's post-move share alone, so
    // only the committed shard owning the global max folds in its
    // alpha_candidate. Every other reached shard contributes its current
    // view (consensus plus any churn re-cap): their local absorbers are
    // clamped against the global l_t and would otherwise zero the step.
    std::size_t owner = n_shards;
    for (std::size_t k = 0; k < n_shards; ++k) {
      if (ran_[k] != 0 && contribute_[k] != 0 && reached_[k] != 0 &&
          !outcomes_[k].aborted && leaf_max_[k] == up.max_value) {
        owner = k;
        break;
      }
    }
    for (std::size_t k = 0; k < n_shards; ++k) {
      shard_rt& sh = *shards_[k];
      pass3_[k] = 0;
      if (ran_[k] == 0 || reached_[k] == 0) continue;
      double cand =
          k == owner ? outcomes_[k].alpha_candidate : sh.alpha_view;
      // A shard's absorber can clamp to an exact zero share (the climb
      // toward the global l_t overran the shard's fixed mass and the
      // renormalization safety net took over). Eq. 7 is mute at s = 0 —
      // hold the consensus step instead of freezing the system forever.
      if (cand <= 0.0) cand = sh.alpha_view;
      cand = std::min(cand, sh.carry_cap);
      sh.carry_cap = std::numeric_limits<double>::infinity();
      leaf_min_[k] = cand;
      leaf_max_[k] = cand;  // unused by the min fold
      pass3_[k] = 1;
    }
    const reduce_result caps =
        tree_.reduce(round, leaf_max_, leaf_min_, pass3_, agg_live_);
    if (caps.contributors > 0) alpha_ = caps.min_value;
  } else if (!mw && any_committed) {
    alpha_ = up.min_value;  // display: the round's consensus step
  }

  // --- Accounting: the shared degraded-round tail over every shard's
  //     totals. The round machines counted removals/failovers into their
  //     shard's own report (thread-confined); the public totals are the
  //     order-free sums of those cumulative per-shard counters. ---
  report_.removed_workers = 0;
  report_.straggler_failovers = 0;
  net::reliable_stats agg;
  for (const auto& shp : shards_) {
    report_.removed_workers += shp->rep.removed_workers;
    report_.straggler_failovers += shp->rep.straggler_failovers;
    if (shp->rel == nullptr) continue;
    const net::reliable_stats& s = shp->rel->stats();
    agg.retransmits += s.retransmits;
    agg.timeouts += s.timeouts;
    agg.deadlines_expired += s.deadlines_expired;
    agg.duplicates_discarded += s.duplicates_discarded;
    agg.stale_purged += s.stale_purged;
  }
  dist::finish_degraded_round({total_holds, total_failovers, !any_committed},
                              agg, tr, lane, "shard", round, counters_,
                              report_, mirrored_);

  assemble();
  DOLBIE_REQUIRE(on_simplex(assembled_),
                 "hierarchical round " << round
                                       << " left the allocation off the "
                                          "simplex");
  const net::traffic_totals totals = cumulative_traffic();
  last_traffic_ = {totals.messages_sent - traffic_mark_.messages_sent,
                   totals.bytes_sent - traffic_mark_.bytes_sent};
  round_span.arg("straggler",
                 straggler_known
                     ? static_cast<std::uint64_t>(straggler_global)
                     : static_cast<std::uint64_t>(n_));
  round_span.arg("alpha_next", alpha_);
  round_span.arg("messages",
                 static_cast<std::uint64_t>(last_traffic_.messages_sent));
  counters_.round_complete(
      alpha_, straggler_known ? static_cast<double>(straggler_global) : -1.0);
}

void hierarchical_engine::heal(std::uint64_t round, obs::tracer* tr,
                               std::uint32_t lane) {
  // Ascending id order: children are examined before their ancestors, so a
  // cascade (a node excised onto a parent that is itself dead) resolves in
  // one deterministic pass — the parent's own repair sees the children it
  // just absorbed.
  for (std::size_t a = 0; a < plan_.aggregators(); ++a) {
    if (tree_.retired(a)) continue;
    const bool perm = agg_plan_.permanently_down(static_cast<net::node_id>(a),
                                                 round, revive_round_[a]);
    const bool streak_dead = options_.outage_threshold > 0 &&
                             outage_streak_[a] >= options_.outage_threshold;
    if (!perm && !streak_dead) continue;
    repair_aggregator(a, round, tr, lane);
  }
}

void hierarchical_engine::repair_aggregator(std::size_t node,
                                            std::uint64_t round,
                                            obs::tracer* tr,
                                            std::uint32_t lane) {
  tree_repair rec;
  rec.round = round;
  rec.node = node;
  if (tree_.can_reparent(node)) {
    // Excise the dead internal node: its children fit into the
    // grandparent within the fan-in bound, so the subtree re-homes with
    // no replacement host needed.
    rec.act = tree_repair::action::reparented;
    rec.replacement = tree_.current_parent(node);
    tree_.reparent_children(node);
  } else {
    // Promote: the lowest-id live worker of the subtree takes over the
    // tree-node id (the same lowest-id tie-break the straggler election
    // uses). Crash windows opening before this round stop applying — the
    // id now names a different machine.
    rec.act = tree_repair::action::promoted;
    rec.replacement = lowest_live_worker_below(node);
    revive_round_[node] = round;
    outage_streak_[node] = 0;
  }
  repairs_.push_back(rec);
  if (repairs_counter_ != nullptr) repairs_counter_->add(1);
  if (tr != nullptr) {
    tr->instant(lane, round, "tree_repaired", "shard",
                {obs::arg_int("node", rec.node),
                 obs::arg_int("reparented",
                              rec.act == tree_repair::action::reparented ? 1
                                                                         : 0),
                 obs::arg_int("replacement", rec.replacement)});
  }
}

std::size_t hierarchical_engine::lowest_live_worker_below(
    std::size_t node) const {
  // Min-fold over the subtree's leaves in the current (repaired)
  // topology; within a shard the members are ascending, so the first
  // standing slot is that shard's lowest global id.
  std::vector<std::size_t> stack{node};
  std::size_t best = n_;  // sentinel: every member churned away
  while (!stack.empty()) {
    const std::size_t a = stack.back();
    stack.pop_back();
    if (a < plan_.shards()) {
      const shard_rt& sh = *shards_[a];
      for (std::size_t slot = 0; slot < sh.m; ++slot) {
        if (sh.flags.removed[slot] == 0) {
          best = std::min(best,
                          static_cast<std::size_t>(plan_.members[a][slot]));
          break;
        }
      }
      continue;
    }
    for (const std::size_t c : tree_.current_children(a)) stack.push_back(c);
  }
  return best;
}

std::vector<std::uint8_t> hierarchical_engine::snapshot() const {
  snapshot_writer w;
  write_snapshot_header(w, snapshot_kind::hierarchical, n_);
  w.f64(alpha_);
  w.u64(round_);
  dist::snapshot_report(w, report_);
  dist::snapshot_reliable_stats(w, mirrored_);
  w.u64(last_traffic_.messages_sent);
  w.u64(last_traffic_.bytes_sent);
  // Repair history first: restore replays the reparented entries against
  // a reset tree, so the network shapes agree before the tree's own bytes
  // are read.
  w.u64(repairs_.size());
  for (const tree_repair& rec : repairs_) {
    w.u64(rec.round);
    w.u64(rec.node);
    w.u8(static_cast<std::uint8_t>(rec.act));
    w.u64(rec.replacement);
  }
  for (const std::uint64_t v : revive_round_) w.u64(v);
  for (const std::uint64_t v : outage_streak_) w.u64(v);
  tree_.snapshot_to(w);
  for (const auto& shp : shards_) {
    const shard_rt& sh = *shp;
    w.u64(sh.m);
    w.f64(sh.mass);
    for (const double v : sh.x) w.f64(v);
    for (const double v : sh.alpha_bar) w.f64(v);
    w.f64(sh.alpha_view);
    w.f64_or_inf(sh.carry_cap);
    for (const std::uint8_t v : sh.flags.removed) w.u8(v);
    dist::snapshot_report(w, sh.rep);
    sh.net.snapshot_to(w);
    w.u8(sh.rel != nullptr ? 1 : 0);
    if (sh.rel != nullptr) sh.rel->snapshot_to(w);
  }
  return w.take();
}

void hierarchical_engine::restore(const std::vector<std::uint8_t>& bytes) {
  reset();
  try {
    snapshot_reader r(bytes);
    read_snapshot_header(r, snapshot_kind::hierarchical, n_);
    alpha_ = r.f64();
    round_ = r.u64();
    dist::restore_report(r, report_);
    dist::restore_reliable_stats(r, mirrored_);
    last_traffic_.messages_sent = static_cast<std::size_t>(r.u64());
    last_traffic_.bytes_sent = static_cast<std::size_t>(r.u64());
    const std::uint64_t n_repairs = r.u64();
    r.require_count(n_repairs, 25);
    repairs_.clear();
    repairs_.reserve(n_repairs);
    for (std::uint64_t i = 0; i < n_repairs; ++i) {
      tree_repair rec;
      rec.round = r.u64();
      rec.node = static_cast<std::size_t>(r.u64());
      const std::uint8_t act = r.u8();
      rec.replacement = static_cast<std::size_t>(r.u64());
      DOLBIE_REQUIRE(rec.node < plan_.aggregators() && act <= 1,
                     "snapshot repair log entry is malformed");
      rec.act = static_cast<tree_repair::action>(act);
      repairs_.push_back(rec);
    }
    for (const tree_repair& rec : repairs_) {
      if (rec.act == tree_repair::action::reparented) {
        tree_.reparent_children(rec.node);
      }
    }
    for (std::uint64_t& v : revive_round_) v = r.u64();
    for (std::uint64_t& v : outage_streak_) v = r.u64();
    tree_.restore_from(r);
    for (auto& shp : shards_) {
      shard_rt& sh = *shp;
      const std::uint64_t m = r.u64();
      DOLBIE_REQUIRE(m == sh.m, "snapshot shard has "
                                    << m << " members, this shard has "
                                    << sh.m);
      sh.mass = r.f64();
      for (double& v : sh.x) v = r.f64();
      for (double& v : sh.alpha_bar) v = r.f64();
      sh.alpha_view = r.f64();
      sh.carry_cap = r.f64_or_inf();
      for (std::uint8_t& v : sh.flags.removed) {
        v = r.u8();
        DOLBIE_REQUIRE(v <= 1, "snapshot membership flag is not 0/1");
      }
      dist::restore_report(r, sh.rep);
      sh.net.restore_from(r);
      const std::uint8_t has_rel = r.u8();
      DOLBIE_REQUIRE((has_rel != 0) == (sh.rel != nullptr),
                     "snapshot reliable-link flag does not match this "
                     "shard's fault configuration");
      if (sh.rel != nullptr) sh.rel->restore_from(r);
    }
    r.finish();
  } catch (...) {
    reset();
    throw;
  }
  assemble();
}

void hierarchical_engine::assemble() {
  // Shards partition the worker ids, so the slice writes are disjoint.
  const auto write_slice = [&](std::size_t k) {
    const shard_rt& sh = *shards_[k];
    for (std::size_t slot = 0; slot < sh.m; ++slot) {
      assembled_[plan_.members[k][slot]] = sh.x[slot];
    }
  };
  if (pool_ != nullptr) {
    pool_->parallel_for(plan_.shards(), write_slice);
  } else {
    for (std::size_t k = 0; k < plan_.shards(); ++k) write_slice(k);
  }
}

net::traffic_totals hierarchical_engine::cumulative_traffic() const {
  net::traffic_totals out = tree_.traffic();
  for (const auto& shp : shards_) {
    const net::traffic_totals t = shp->net.total_traffic();
    out.messages_sent += t.messages_sent;
    out.bytes_sent += t.bytes_sent;
  }
  return out;
}

net::traffic_totals hierarchical_engine::total_traffic() const {
  return cumulative_traffic();
}

std::uint64_t hierarchical_engine::worker_messages_sent(
    core::worker_id i) const {
  const shard_rt& sh = *shards_[plan_.shard_of[i]];
  return sh.net.peer_messages_sent(
      static_cast<net::node_id>(plan_.slot_of[i]));
}

std::uint64_t hierarchical_engine::aggregator_messages_sent(
    std::size_t a) const {
  std::uint64_t total = tree_.node_messages_sent(a);
  if (a < plan_.shards() && options_.mode == shard_protocol::master_worker) {
    const shard_rt& sh = *shards_[a];
    total += sh.net.peer_messages_sent(static_cast<net::node_id>(sh.m));
  }
  return total;
}

std::uint64_t hierarchical_engine::aggregator_bytes_sent(
    std::size_t a) const {
  std::uint64_t total = tree_.node_bytes_sent(a);
  if (a < plan_.shards() && options_.mode == shard_protocol::master_worker) {
    const shard_rt& sh = *shards_[a];
    total += sh.net.peer_bytes_sent(static_cast<net::node_id>(sh.m));
  }
  return total;
}

std::uint64_t hierarchical_engine::max_node_messages_sent() const {
  std::uint64_t peak = 0;
  for (core::worker_id i = 0; i < n_; ++i) {
    peak = std::max(peak, worker_messages_sent(i));
  }
  for (std::size_t a = 0; a < plan_.aggregators(); ++a) {
    peak = std::max(peak, aggregator_messages_sent(a));
  }
  return peak;
}

std::uint64_t hierarchical_engine::max_node_bytes_sent() const {
  std::uint64_t peak = 0;
  for (core::worker_id i = 0; i < n_; ++i) {
    const shard_rt& sh = *shards_[plan_.shard_of[i]];
    peak = std::max(peak, sh.net.peer_bytes_sent(static_cast<net::node_id>(
                              plan_.slot_of[i])));
  }
  for (std::size_t a = 0; a < plan_.aggregators(); ++a) {
    peak = std::max(peak, aggregator_bytes_sent(a));
  }
  return peak;
}

}  // namespace dolbie::shard
