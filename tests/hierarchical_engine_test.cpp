// Equivalence and degradation tests of the hierarchical shard engine.
//
// The load-bearing guarantee is bit-identity at K = 1: configured as a
// single shard, the hierarchy must reproduce the flat engines' allocations
// exactly — clean and faulty — because the shard's mass is exactly 1.0,
// slot ids equal global ids, the fault seed is the base seed, and the tree
// degenerates to a wireless single node. One deliberate exception: the
// flat FD *clean* path sums the straggler's remainder as 1 - sum(claimed)
// while the unified machine absorbs the delta-sum (algebraically equal,
// not FP-equal), so the clean-FD comparison pins the machine path on both
// sides via a sentinel never-firing crash window and checks the clean path
// to near-equality only.
//
// Multi-shard runs are checked for the structural invariants the design
// argues (DESIGN.md §10): simplex every round, per-shard mass
// conservation, step sizes in (0, 1], aggregator outages holding exactly
// the shards below the dead node, and full-transcript determinism.
#include "shard/hierarchical_engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "common/simplex.h"
#include "cost/affine.h"
#include "cost/cost_function.h"
#include "dist/fully_distributed.h"
#include "dist/master_worker.h"
#include "exp/chaos.h"
#include "exp/scenario.h"
#include "obs/export.h"
#include "obs/trace.h"

namespace dolbie {
namespace {

// A worker crash window that never fires: it flips a flat engine onto the
// fault-tolerant machine path (reliable link, unified round machine)
// without perturbing a single message.
const std::vector<net::crash_window> kSentinelCrash = {
    {0, 1000000, net::crash_window::kNever}};

shard::hierarchical_options hier_options(dist::protocol_options protocol,
                                         shard::shard_protocol mode,
                                         std::size_t shard_size = 0) {
  shard::hierarchical_options options;
  options.protocol = std::move(protocol);
  options.plan.shard_size = shard_size;
  options.mode = mode;
  return options;
}

dist::protocol_options faulty_protocol() {
  dist::protocol_options options;
  options.faults.seed = 1002;
  options.faults.drop_rate = 0.2;
  options.faults.crashes = {{1, 90, net::crash_window::kNever}};
  options.retry_budget = 3;
  return options;
}

// Drive two policies in lockstep against identically-seeded environments
// and require bit-identical allocations after every round.
template <class PolicyA, class PolicyB>
void expect_lockstep_identical(PolicyA& a, PolicyB& b, std::size_t n,
                               std::size_t rounds, std::uint64_t env_seed,
                               exp::synthetic_family family) {
  auto env_a = exp::make_synthetic_environment(n, family, env_seed);
  auto env_b = exp::make_synthetic_environment(n, family, env_seed);
  for (std::size_t t = 0; t < rounds; ++t) {
    const cost::cost_vector costs_a = env_a->next_round();
    const cost::cost_vector costs_b = env_b->next_round();
    const cost::cost_view view_a = cost::view_of(costs_a);
    const cost::cost_view view_b = cost::view_of(costs_b);
    const auto locals_a = cost::evaluate(view_a, a.current());
    const auto locals_b = cost::evaluate(view_b, b.current());
    ASSERT_EQ(locals_a, locals_b) << "diverged before round " << t;
    core::round_feedback fa;
    fa.costs = &view_a;
    fa.local_costs = locals_a;
    core::round_feedback fb;
    fb.costs = &view_b;
    fb.local_costs = locals_b;
    a.observe(fa);
    b.observe(fb);
    ASSERT_EQ(a.current(), b.current()) << "round " << t;
  }
}

TEST(HierarchicalEngine, SingleShardMwCleanIsBitIdenticalToFlat) {
  constexpr std::size_t kN = 8;
  shard::hierarchical_options hopts = hier_options(
      {}, shard::shard_protocol::master_worker, kN);
  shard::hierarchical_engine hier(kN, std::move(hopts));
  dist::master_worker_policy flat(kN, {});
  ASSERT_EQ(hier.plan().shards(), 1u);
  expect_lockstep_identical(hier, flat, kN, 120, 42,
                            exp::synthetic_family::mixed);
  EXPECT_EQ(hier.step_size(), flat.master_step_size());
  EXPECT_EQ(hier.report().degraded_rounds, 0u);
}

TEST(HierarchicalEngine, SingleShardMwFaultyIsBitIdenticalToFlat) {
  constexpr std::size_t kN = 8;
  const dist::protocol_options protocol = faulty_protocol();
  shard::hierarchical_engine hier(
      kN, hier_options(protocol, shard::shard_protocol::master_worker, kN));
  dist::master_worker_policy flat(kN, protocol);
  expect_lockstep_identical(hier, flat, kN, 150, 42,
                            exp::synthetic_family::mixed);
  EXPECT_EQ(hier.step_size(), flat.master_step_size());
  // The same degradation transcript, not just the same iterates.
  EXPECT_EQ(hier.report().degraded_rounds, flat.faults().degraded_rounds);
  EXPECT_EQ(hier.report().zero_step_holds, flat.faults().zero_step_holds);
  EXPECT_EQ(hier.report().removed_workers, flat.faults().removed_workers);
  EXPECT_EQ(hier.report().retransmits, flat.faults().retransmits);
  EXPECT_EQ(flat.faults().removed_workers, 1u);  // the crash actually hit
}

TEST(HierarchicalEngine, SingleShardFdFaultyIsBitIdenticalToFlat) {
  constexpr std::size_t kN = 8;
  const dist::protocol_options protocol = faulty_protocol();
  shard::hierarchical_engine hier(
      kN,
      hier_options(protocol, shard::shard_protocol::fully_distributed, kN));
  dist::fully_distributed_policy flat(kN, protocol);
  expect_lockstep_identical(hier, flat, kN, 150, 42,
                            exp::synthetic_family::mixed);
  EXPECT_EQ(hier.report().degraded_rounds, flat.faults().degraded_rounds);
  EXPECT_EQ(hier.report().removed_workers, flat.faults().removed_workers);
}

TEST(HierarchicalEngine, SingleShardFdMachinePathIsBitIdenticalToFlat) {
  // The sentinel crash never fires but pins both engines to the unified
  // machine path — the apples-to-apples clean comparison for FD.
  constexpr std::size_t kN = 8;
  dist::protocol_options protocol;
  protocol.faults.crashes = kSentinelCrash;
  shard::hierarchical_engine hier(
      kN,
      hier_options(protocol, shard::shard_protocol::fully_distributed, kN));
  dist::fully_distributed_policy flat(kN, protocol);
  expect_lockstep_identical(hier, flat, kN, 120, 42,
                            exp::synthetic_family::mixed);
  EXPECT_EQ(hier.report().degraded_rounds, 0u);
  EXPECT_EQ(flat.faults().degraded_rounds, 0u);
}

TEST(HierarchicalEngine, SingleShardFdCleanTracksFlatClean) {
  // Flat FD without a fault plan and the single shard play the same
  // round machine with the same absorption arithmetic, bit for bit.
  constexpr std::size_t kN = 8;
  shard::hierarchical_engine hier(
      kN, hier_options({}, shard::shard_protocol::fully_distributed, kN));
  dist::fully_distributed_policy flat(kN, {});
  auto env_a = exp::make_synthetic_environment(
      kN, exp::synthetic_family::mixed, 42);
  auto env_b = exp::make_synthetic_environment(
      kN, exp::synthetic_family::mixed, 42);
  for (std::size_t t = 0; t < 120; ++t) {
    const cost::cost_vector costs_a = env_a->next_round();
    const cost::cost_vector costs_b = env_b->next_round();
    const cost::cost_view view_a = cost::view_of(costs_a);
    const cost::cost_view view_b = cost::view_of(costs_b);
    const std::vector<double> locals_a = cost::evaluate(view_a, hier.current());
    const std::vector<double> locals_b = cost::evaluate(view_b, flat.current());
    core::round_feedback fa;
    fa.costs = &view_a;
    fa.local_costs = locals_a;
    core::round_feedback fb;
    fb.costs = &view_b;
    fb.local_costs = locals_b;
    hier.observe(fa);
    flat.observe(fb);
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hier.current()[i], flat.current()[i])
          << "round " << t << " worker " << i;
    }
  }
}

// Regression: environments free each round's cost functions after the
// round, so the allocator can hand the *same addresses* back for the next
// round's different functions. The per-shard batch evaluator must be
// rebound every round — a pointer-identity cache silently evaluated stale
// coefficients whenever addresses were recycled (history-dependent
// results in the chaos grid). Engine A sees fresh allocations every
// round; engine B sees identical parameters placement-reconstructed in
// fixed slots (same addresses, new contents — the worst case). They must
// stay bit-identical.
TEST(HierarchicalEngine, RecycledCostAddressesDoNotStaleTheBatch) {
  constexpr std::size_t kN = 8;
  for (const shard::shard_protocol mode :
       {shard::shard_protocol::master_worker,
        shard::shard_protocol::fully_distributed}) {
    shard::hierarchical_engine fresh(kN, hier_options({}, mode, 4));
    shard::hierarchical_engine recycled(kN, hier_options({}, mode, 4));
    std::vector<std::optional<cost::affine_cost>> slots(kN);
    for (std::size_t t = 0; t < 60; ++t) {
      cost::cost_vector costs_a;
      cost::cost_view view_b(kN);
      for (std::size_t i = 0; i < kN; ++i) {
        const double slope =
            0.5 + 0.1 * static_cast<double>((t * 7 + i * 3) % 11);
        const double intercept = 0.1 * static_cast<double>((t * 5 + i) % 7);
        costs_a.push_back(
            std::make_unique<cost::affine_cost>(slope, intercept));
        slots[i].emplace(slope, intercept);  // same address, new function
        view_b[i] = &*slots[i];
      }
      const cost::cost_view view_a = cost::view_of(costs_a);
      const std::vector<double> locals_a =
          cost::evaluate(view_a, fresh.current());
      const std::vector<double> locals_b =
          cost::evaluate(view_b, recycled.current());
      ASSERT_EQ(locals_a, locals_b) << "round " << t;
      core::round_feedback fa;
      fa.costs = &view_a;
      fa.local_costs = locals_a;
      core::round_feedback fb;
      fb.costs = &view_b;
      fb.local_costs = locals_b;
      fresh.observe(fa);
      recycled.observe(fb);
      ASSERT_EQ(fresh.current(), recycled.current()) << "round " << t;
      ASSERT_EQ(fresh.step_size(), recycled.step_size()) << "round " << t;
    }
  }
}

// Per-shard mass conservation: the round machines renormalize each shard
// against its own mass (the `target` seam), so the slice sums never drift.
void check_shard_masses(const shard::hierarchical_engine& hier,
                        const std::vector<double>& masses) {
  const shard::shard_plan& plan = hier.plan();
  for (std::size_t k = 0; k < plan.shards(); ++k) {
    double sum = 0.0;
    for (const core::worker_id i : plan.members[k]) sum += hier.current()[i];
    EXPECT_NEAR(sum, masses[k], 1e-9) << "shard " << k;
  }
}

std::vector<double> initial_masses(const shard::hierarchical_engine& hier) {
  std::vector<double> masses(hier.plan().shards(), 0.0);
  for (std::size_t k = 0; k < hier.plan().shards(); ++k) {
    for (const core::worker_id i : hier.plan().members[k]) {
      masses[k] += hier.current()[i];
    }
  }
  return masses;
}

void drive_with_invariants(shard::hierarchical_engine& hier, std::size_t n,
                           std::size_t rounds, std::uint64_t env_seed) {
  const std::vector<double> masses = initial_masses(hier);
  auto env = exp::make_synthetic_environment(
      n, exp::synthetic_family::mixed, env_seed);
  for (std::size_t t = 0; t < rounds; ++t) {
    const cost::cost_vector costs = env->next_round();
    const cost::cost_view view = cost::view_of(costs);
    const std::vector<double> locals = cost::evaluate(view, hier.current());
    core::round_feedback fb;
    fb.costs = &view;
    fb.local_costs = locals;
    hier.observe(fb);
    ASSERT_TRUE(on_simplex(hier.current())) << "round " << t;
    ASSERT_GT(hier.step_size(), 0.0);
    ASSERT_LE(hier.step_size(), 1.0);
    check_shard_masses(hier, masses);
  }
}

TEST(HierarchicalEngine, MultiShardKeepsInvariantsCleanAndFaulty) {
  constexpr std::size_t kN = 12;
  for (const shard::shard_protocol mode :
       {shard::shard_protocol::master_worker,
        shard::shard_protocol::fully_distributed}) {
    {
      shard::hierarchical_engine hier(kN, hier_options({}, mode, 4));
      ASSERT_EQ(hier.plan().shards(), 3u);
      drive_with_invariants(hier, kN, 150, 42);
      EXPECT_EQ(hier.report().degraded_rounds, 0u);
    }
    {
      shard::hierarchical_engine hier(
          kN, hier_options(faulty_protocol(), mode, 4));
      drive_with_invariants(hier, kN, 150, 42);
      EXPECT_EQ(hier.report().removed_workers, 1u);
      EXPECT_GT(hier.report().retransmits, 0u);
    }
  }
}

TEST(HierarchicalEngine, ShuffledMembershipKeepsInvariants) {
  constexpr std::size_t kN = 20;
  shard::hierarchical_options options =
      hier_options({}, shard::shard_protocol::master_worker, 5);
  options.plan.shuffle = true;
  options.plan.seed = 11;
  shard::hierarchical_engine hier(kN, std::move(options));
  ASSERT_EQ(hier.plan().shards(), 4u);
  drive_with_invariants(hier, kN, 100, 7);
}

TEST(HierarchicalEngine, LeafAggregatorOutageHoldsExactlyItsShard) {
  constexpr std::size_t kN = 12;
  shard::hierarchical_options options =
      hier_options({}, shard::shard_protocol::master_worker, 4);
  // Aggregators: leaves 0,1,2 front shards 0,1,2; node 3 is the root.
  options.aggregator_crashes = {{1, 10, 20}};
  shard::hierarchical_engine hier(kN, std::move(options));
  ASSERT_EQ(hier.plan().aggregators(), 4u);
  const std::vector<double> masses = initial_masses(hier);

  auto env = exp::make_synthetic_environment(
      kN, exp::synthetic_family::mixed, 42);
  core::allocation before_outage;
  double moved_elsewhere = 0.0;
  for (std::size_t t = 0; t < 40; ++t) {
    const cost::cost_vector costs = env->next_round();
    const cost::cost_view view = cost::view_of(costs);
    const std::vector<double> locals = cost::evaluate(view, hier.current());
    core::round_feedback fb;
    fb.costs = &view;
    fb.local_costs = locals;
    if (t == 10) before_outage = hier.current();
    hier.observe(fb);
    ASSERT_TRUE(on_simplex(hier.current())) << "round " << t;
    check_shard_masses(hier, masses);
    if (t >= 10 && t < 20) {
      // Shard 1 (workers 4..7) is headless: its slice must hold exactly.
      for (const core::worker_id i : hier.plan().members[1]) {
        ASSERT_EQ(hier.current()[i], before_outage[i])
            << "round " << t << " worker " << i;
      }
      for (const core::worker_id i : hier.plan().members[0]) {
        moved_elsewhere +=
            std::abs(hier.current()[i] - before_outage[i]);
      }
    }
  }
  // The healthy shards kept iterating through the outage...
  EXPECT_GT(moved_elsewhere, 0.0);
  // ...and every outage round was accounted as degraded (4 holds each).
  EXPECT_GE(hier.report().degraded_rounds, 10u);
  EXPECT_GE(hier.report().zero_step_holds, 40u);
  EXPECT_EQ(hier.report().aborted_rounds, 0u);
}

TEST(HierarchicalEngine, RootOutageFreezesEveryoneWithoutSelfHeal) {
  constexpr std::size_t kN = 12;
  shard::hierarchical_options options =
      hier_options({}, shard::shard_protocol::fully_distributed, 4);
  options.aggregator_crashes = {{3, 30, net::crash_window::kNever}};
  options.self_heal = false;
  shard::hierarchical_engine hier(kN, std::move(options));
  ASSERT_EQ(hier.plan().root, 3u);

  auto env = exp::make_synthetic_environment(
      kN, exp::synthetic_family::mixed, 42);
  core::allocation frozen;
  double alpha_frozen = 0.0;
  for (std::size_t t = 0; t < 60; ++t) {
    const cost::cost_vector costs = env->next_round();
    const cost::cost_view view = cost::view_of(costs);
    const std::vector<double> locals = cost::evaluate(view, hier.current());
    core::round_feedback fb;
    fb.costs = &view;
    fb.local_costs = locals;
    if (t == 30) {
      frozen = hier.current();
      alpha_frozen = hier.step_size();
    }
    hier.observe(fb);
    if (t >= 30) {
      ASSERT_EQ(hier.current(), frozen) << "round " << t;
      ASSERT_EQ(hier.step_size(), alpha_frozen) << "round " << t;
    }
  }
  // Rounds 30..59: no consensus exists, so every round aborts globally.
  EXPECT_EQ(hier.report().aborted_rounds, 30u);
  EXPECT_GE(hier.report().degraded_rounds, 30u);
  EXPECT_TRUE(hier.repairs().empty());
}

TEST(HierarchicalEngine, RootOutagePromotesAndResumes) {
  constexpr std::size_t kN = 12;
  shard::hierarchical_options options =
      hier_options({}, shard::shard_protocol::fully_distributed, 4);
  options.aggregator_crashes = {{3, 30, net::crash_window::kNever}};
  shard::hierarchical_engine hier(kN, std::move(options));
  ASSERT_EQ(hier.plan().root, 3u);

  auto env = exp::make_synthetic_environment(
      kN, exp::synthetic_family::mixed, 42);
  core::allocation at_crash;
  for (std::size_t t = 0; t < 60; ++t) {
    const cost::cost_vector costs = env->next_round();
    const cost::cost_view view = cost::view_of(costs);
    const std::vector<double> locals = cost::evaluate(view, hier.current());
    core::round_feedback fb;
    fb.costs = &view;
    fb.local_costs = locals;
    if (t == 30) at_crash = hier.current();
    hier.observe(fb);
    ASSERT_TRUE(on_simplex(hier.current())) << "round " << t;
  }
  // Round 30 crashes mid-round (aborts); the heal fires at round 31 —
  // worker 0, the lowest live id in the whole tree, takes over the root —
  // and every later round completes.
  EXPECT_EQ(hier.report().aborted_rounds, 1u);
  ASSERT_EQ(hier.repairs().size(), 1u);
  EXPECT_EQ(hier.repairs()[0].round, 31u);
  EXPECT_EQ(hier.repairs()[0].node, 3u);
  EXPECT_EQ(hier.repairs()[0].act, shard::tree_repair::action::promoted);
  EXPECT_EQ(hier.repairs()[0].replacement, 0u);
  EXPECT_FALSE(hier.tree().retired(3));
  EXPECT_NE(hier.current(), at_crash);
}

TEST(HierarchicalEngine, AggregatorCrashReparentsSubtreeWithinFanin) {
  // N = 10 at shard_size 2, fan-in 4: leaves 0..4, node 5 fronts leaves
  // {0..3}, node 6 fronts leaf {4}, root 7 holds {5, 6}. Killing 6 lets
  // the heal excise it — the root absorbs leaf 4 directly (2 children,
  // inside the fan-in bound) instead of promoting a replacement host.
  constexpr std::size_t kN = 10;
  shard::hierarchical_options options =
      hier_options({}, shard::shard_protocol::fully_distributed, 2);
  options.aggregator_crashes = {{6, 10, net::crash_window::kNever}};
  shard::hierarchical_engine hier(kN, std::move(options));
  ASSERT_EQ(hier.plan().root, 7u);
  ASSERT_EQ(hier.plan().children[6], (std::vector<std::size_t>{4}));

  auto env = exp::make_synthetic_environment(
      kN, exp::synthetic_family::mixed, 42);
  core::allocation at_repair;
  for (std::size_t t = 0; t < 60; ++t) {
    const cost::cost_vector costs = env->next_round();
    const cost::cost_view view = cost::view_of(costs);
    const std::vector<double> locals = cost::evaluate(view, hier.current());
    core::round_feedback fb;
    fb.costs = &view;
    fb.local_costs = locals;
    hier.observe(fb);
    if (t == 11) at_repair = hier.current();
    ASSERT_TRUE(on_simplex(hier.current())) << "round " << t;
  }
  ASSERT_EQ(hier.repairs().size(), 1u);
  EXPECT_EQ(hier.repairs()[0].round, 11u);
  EXPECT_EQ(hier.repairs()[0].node, 6u);
  EXPECT_EQ(hier.repairs()[0].act, shard::tree_repair::action::reparented);
  EXPECT_EQ(hier.repairs()[0].replacement, 7u);
  EXPECT_TRUE(hier.tree().retired(6));
  EXPECT_EQ(hier.tree().current_parent(4), 7u);
  // An interior death never aborts the whole round, and after the repair
  // the detached shard (workers 8, 9) keeps adapting instead of holding.
  EXPECT_EQ(hier.report().aborted_rounds, 0u);
  EXPECT_FALSE(hier.current()[8] == at_repair[8] &&
               hier.current()[9] == at_repair[9]);
}

TEST(HierarchicalEngine, OutageStreakThresholdTriggersRepair) {
  // The same topology, but the window recovers: with an outage threshold
  // the engine gives up on the flapping node once it has been dark for
  // `outage_threshold` consecutive rounds and repairs anyway.
  constexpr std::size_t kN = 10;
  shard::hierarchical_options options =
      hier_options({}, shard::shard_protocol::fully_distributed, 2);
  options.aggregator_crashes = {{6, 10, 50}};
  options.outage_threshold = 5;
  shard::hierarchical_engine hier(kN, std::move(options));

  auto env = exp::make_synthetic_environment(
      kN, exp::synthetic_family::mixed, 42);
  for (std::size_t t = 0; t < 30; ++t) {
    const cost::cost_vector costs = env->next_round();
    const cost::cost_view view = cost::view_of(costs);
    const std::vector<double> locals = cost::evaluate(view, hier.current());
    core::round_feedback fb;
    fb.costs = &view;
    fb.local_costs = locals;
    hier.observe(fb);
  }
  ASSERT_EQ(hier.repairs().size(), 1u);
  EXPECT_EQ(hier.repairs()[0].node, 6u);
  // The mid-round crash at round 10 starts the streak; rounds 11..14 grow
  // it to 5, so the heal fires entering round 15.
  EXPECT_EQ(hier.repairs()[0].round, 15u);
  EXPECT_TRUE(hier.tree().retired(6));
}

TEST(HierarchicalEngine, FaultyMultiShardRunsAreDeterministic) {
  constexpr std::size_t kN = 12;
  const auto run_once = [] {
    shard::hierarchical_options options = hier_options(
        faulty_protocol(), shard::shard_protocol::master_worker, 4);
    options.aggregator_crashes = {{1, 40, 70}};
    shard::hierarchical_engine hier(kN, std::move(options));
    auto env = exp::make_synthetic_environment(
        kN, exp::synthetic_family::mixed, 5);
    std::vector<double> iterates;
    for (std::size_t t = 0; t < 120; ++t) {
      const cost::cost_vector costs = env->next_round();
      const cost::cost_view view = cost::view_of(costs);
      const std::vector<double> locals = cost::evaluate(view, hier.current());
      core::round_feedback fb;
      fb.costs = &view;
      fb.local_costs = locals;
      hier.observe(fb);
      for (const double x : hier.current()) iterates.push_back(x);
    }
    return std::make_pair(iterates, hier.report());
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.first, b.first);
  EXPECT_EQ(a.second.degraded_rounds, b.second.degraded_rounds);
  EXPECT_EQ(a.second.zero_step_holds, b.second.zero_step_holds);
  EXPECT_EQ(a.second.retransmits, b.second.retransmits);
  EXPECT_GT(a.second.retransmits, 0u);
}

TEST(HierarchicalEngine, ResetReplaysTheExactTranscript) {
  constexpr std::size_t kN = 12;
  shard::hierarchical_engine hier(kN, hier_options(
      faulty_protocol(), shard::shard_protocol::fully_distributed, 4));
  const auto run_pass = [&hier] {
    auto env = exp::make_synthetic_environment(
        kN, exp::synthetic_family::mixed, 5);
    std::vector<double> iterates;
    for (std::size_t t = 0; t < 80; ++t) {
      const cost::cost_vector costs = env->next_round();
      const cost::cost_view view = cost::view_of(costs);
      const std::vector<double> locals = cost::evaluate(view, hier.current());
      core::round_feedback fb;
      fb.costs = &view;
      fb.local_costs = locals;
      hier.observe(fb);
      for (const double x : hier.current()) iterates.push_back(x);
    }
    return iterates;
  };
  const auto first = run_pass();
  hier.reset();
  const auto second = run_pass();
  EXPECT_EQ(first, second);
}

// The same replay contract through the self-healing path: a permanent
// aggregator crash (tree repair at round 11) plus a permanent worker crash
// (churn retirement at round 90) must leave reset() able to rewind the
// repaired topology, the revive bookkeeping and the membership back to
// round zero — the second pass replays the first byte for byte, repairs
// included.
TEST(HierarchicalEngine, ResetReplaysTheRepairedTranscript) {
  constexpr std::size_t kN = 10;
  shard::hierarchical_options options =
      hier_options(faulty_protocol(), shard::shard_protocol::fully_distributed,
                   2);
  options.aggregator_crashes = {{6, 10, net::crash_window::kNever}};
  shard::hierarchical_engine hier(kN, std::move(options));
  const auto run_pass = [&hier] {
    auto env = exp::make_synthetic_environment(
        kN, exp::synthetic_family::mixed, 5);
    std::vector<double> iterates;
    for (std::size_t t = 0; t < 120; ++t) {
      const cost::cost_vector costs = env->next_round();
      const cost::cost_view view = cost::view_of(costs);
      const std::vector<double> locals = cost::evaluate(view, hier.current());
      core::round_feedback fb;
      fb.costs = &view;
      fb.local_costs = locals;
      hier.observe(fb);
      for (const double x : hier.current()) iterates.push_back(x);
    }
    return std::make_pair(iterates, hier.report());
  };
  const auto first = run_pass();
  ASSERT_EQ(hier.repairs().size(), 1u);
  ASSERT_EQ(first.second.removed_workers, 1u);  // churn actually fired
  const auto first_repairs = hier.repairs();
  hier.reset();
  EXPECT_TRUE(hier.repairs().empty());
  EXPECT_FALSE(hier.tree().retired(6));
  const auto second = run_pass();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second.removed_workers, second.second.removed_workers);
  EXPECT_EQ(first.second.degraded_rounds, second.second.degraded_rounds);
  EXPECT_EQ(first.second.aborted_rounds, second.second.aborted_rounds);
  ASSERT_EQ(hier.repairs().size(), first_repairs.size());
  EXPECT_EQ(hier.repairs()[0].round, first_repairs[0].round);
  EXPECT_EQ(hier.repairs()[0].node, first_repairs[0].node);
  EXPECT_EQ(hier.repairs()[0].replacement, first_repairs[0].replacement);
}

// The tentpole contract of intra-round parallelism (DESIGN.md §11): a
// multi-shard faulty run — message drops, a worker churn retirement, and
// an aggregator crash window — is bit-identical at every pool width.
// `threads = 1` forces the serial path (no pool is even constructed);
// wider pools fan Stage A/B over the shards and the tree levels over
// their parents. Iterates, step sizes, the full fault report, traffic,
// and the merged trace bytes must all match the serial run exactly.
struct parallel_run {
  std::vector<double> iterates;
  std::vector<double> alphas;
  dist::fault_report report;
  std::uint64_t messages = 0;
  std::uint64_t max_node_messages = 0;
  std::string trace;
};

parallel_run run_parallel_case(shard::shard_protocol mode,
                               std::size_t threads) {
  constexpr std::size_t kN = 24;
  obs::tracer tracer({.clock = obs::clock_kind::logical});
  shard::hierarchical_options options =
      hier_options(faulty_protocol(), mode, 6);
  options.protocol.tracer = &tracer;
  options.aggregator_crashes = {{1, 30, 60}};
  options.threads = threads;
  shard::hierarchical_engine hier(kN, std::move(options));
  auto env =
      exp::make_synthetic_environment(kN, exp::synthetic_family::mixed, 7);
  parallel_run out;
  for (std::size_t t = 0; t < 120; ++t) {
    const cost::cost_vector costs = env->next_round();
    const cost::cost_view view = cost::view_of(costs);
    const std::vector<double> locals = cost::evaluate(view, hier.current());
    core::round_feedback fb;
    fb.costs = &view;
    fb.local_costs = locals;
    hier.observe(fb);
    for (const double x : hier.current()) out.iterates.push_back(x);
    out.alphas.push_back(hier.step_size());
  }
  out.report = hier.report();
  out.messages = hier.total_traffic().messages_sent;
  out.max_node_messages = hier.max_node_messages_sent();
  std::ostringstream os;
  obs::export_jsonl(os, tracer.merged());
  out.trace = os.str();
  return out;
}

void expect_parallel_matches_serial(shard::shard_protocol mode) {
  const parallel_run serial = run_parallel_case(mode, 1);
  // The schedule must actually degrade the run, or the test proves less
  // than it claims.
  EXPECT_GT(serial.report.degraded_rounds, 0u);
  EXPECT_GT(serial.report.zero_step_holds, 0u);
  EXPECT_EQ(serial.report.removed_workers, 1u);
  EXPECT_GT(serial.report.retransmits, 0u);
  EXPECT_NE(serial.trace.find("tree.reduce.level1"), std::string::npos);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const parallel_run wide = run_parallel_case(mode, threads);
    ASSERT_EQ(wide.iterates, serial.iterates) << "threads=" << threads;
    EXPECT_EQ(wide.alphas, serial.alphas) << "threads=" << threads;
    EXPECT_EQ(wide.report.degraded_rounds, serial.report.degraded_rounds);
    EXPECT_EQ(wide.report.straggler_failovers,
              serial.report.straggler_failovers);
    EXPECT_EQ(wide.report.removed_workers, serial.report.removed_workers);
    EXPECT_EQ(wide.report.zero_step_holds, serial.report.zero_step_holds);
    EXPECT_EQ(wide.report.aborted_rounds, serial.report.aborted_rounds);
    EXPECT_EQ(wide.report.retransmits, serial.report.retransmits);
    EXPECT_EQ(wide.report.timeouts, serial.report.timeouts);
    EXPECT_EQ(wide.report.duplicates_discarded,
              serial.report.duplicates_discarded);
    EXPECT_EQ(wide.messages, serial.messages) << "threads=" << threads;
    EXPECT_EQ(wide.max_node_messages, serial.max_node_messages);
    EXPECT_EQ(wide.trace, serial.trace) << "threads=" << threads;
  }
}

TEST(HierarchicalEngine, ParallelMwIsBitIdenticalToSerial) {
  expect_parallel_matches_serial(shard::shard_protocol::master_worker);
}

TEST(HierarchicalEngine, ParallelFdIsBitIdenticalToSerial) {
  expect_parallel_matches_serial(shard::shard_protocol::fully_distributed);
}

// The chaos grid gains the hierarchical rows on request (appended last,
// historical row positions untouched). This test is re-registered under
// DOLBIE_THREADS 1/2/8: the grid runs through parallel_map, so it also
// witnesses thread-count determinism of the shard layer.
TEST(HierarchicalEngine, ChaosGridIncludesHierarchicalRowsOnRequest) {
  exp::chaos_options options;
  options.workers = 12;
  options.rounds = 40;
  options.drop_rates = {0.2};
  options.retry_budget = 3;
  options.include_hierarchical = true;
  options.shard_size = 4;
  options.aggregator_crashes = {{1, 10, 20}};
  const std::vector<exp::chaos_row> rows = exp::run_chaos_grid(options);
  ASSERT_EQ(rows.size(), 8u);  // {MW, FD, MW-hier, FD-hier} x {0.0, 0.2}
  bool saw_hier_mw = false;
  bool saw_hier_fd = false;
  for (const exp::chaos_row& row : rows) {
    EXPECT_TRUE(row.simplex_ok) << row.engine << " " << row.drop_rate;
    EXPECT_TRUE(std::isfinite(row.cumulative_cost)) << row.engine;
    saw_hier_mw = saw_hier_mw || row.engine == "MW-hier";
    saw_hier_fd = saw_hier_fd || row.engine == "FD-hier";
    if (row.engine == "MW-hier" || row.engine == "FD-hier") {
      // The aggregator outage degrades even the zero-drop baseline.
      EXPECT_GT(row.report.degraded_rounds, 0u) << row.engine;
    }
  }
  EXPECT_TRUE(saw_hier_mw);
  EXPECT_TRUE(saw_hier_fd);
}

}  // namespace
}  // namespace dolbie
