// The two protocol realizations must (a) produce bit-identical iterates to
// the sequential reference and (b) exchange exactly the message counts
// Section IV-C claims: 3N per round (master-worker, O(N)) and N^2 - 1 per
// round (fully-distributed, O(N^2)).
#include "dist/runner.h"

#include <gtest/gtest.h>

#include "common/simplex.h"
#include "cost/affine.h"
#include "dist/async_fully_distributed.h"
#include "dist/async_master_worker.h"
#include "dist/fully_distributed.h"
#include "dist/master_worker.h"
#include "exp/scenario.h"

namespace dolbie::dist {
namespace {

/// (N, family, seed, initial step); a negative step selects the paper's
/// safe initialization, 0.5 runs alpha ahead of the Eq. 7 cap so the
/// straggler's remainder goes negative and must be renormalized exactly
/// as the sequential reference does.
using param =
    std::tuple<std::size_t, exp::synthetic_family, std::uint64_t, double>;

std::string param_name(const ::testing::TestParamInfo<param>& info) {
  const std::size_t n = std::get<0>(info.param);
  const exp::synthetic_family family = std::get<1>(info.param);
  const std::uint64_t seed = std::get<2>(info.param);
  const double step = std::get<3>(info.param);
  return "N" + std::to_string(n) + "_" +
         (family == exp::synthetic_family::affine ? "affine" : "mixed") +
         "_seed" + std::to_string(seed) +
         (step < 0.0 ? "" : "_step" + std::to_string(int(step * 100)));
}

class ProtocolEquivalence : public ::testing::TestWithParam<param> {};

TEST_P(ProtocolEquivalence, BitIdenticalToSequentialReference) {
  const auto [n, family, seed, step] = GetParam();
  auto env = exp::make_synthetic_environment(n, family, seed);
  protocol_options options;
  options.initial_step = step;
  const equivalence_report report = run_equivalence(
      n, 60, [&] { return env->next_round(); }, options);
  EXPECT_EQ(report.max_divergence_master_worker, 0.0);
  EXPECT_EQ(report.max_divergence_fully_distributed, 0.0);
}

TEST_P(ProtocolEquivalence, MessageCountsMatchSectionIVC) {
  const auto [n, family, seed, step] = GetParam();
  if (n < 2) GTEST_SKIP() << "single worker exchanges no messages";
  auto env = exp::make_synthetic_environment(n, family, seed);
  protocol_options options;
  options.initial_step = step;
  const equivalence_report report = run_equivalence(
      n, 10, [&] { return env->next_round(); }, options);
  // Master-worker: N local costs + N infos + (N-1) decisions + 1 assignment.
  EXPECT_EQ(report.master_worker_traffic.messages_sent, 3 * n);
  // Fully-distributed: N(N-1) broadcasts + (N-1) decisions to the straggler.
  EXPECT_EQ(report.fully_distributed_traffic.messages_sent, n * n - 1);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ProtocolEquivalence,
    ::testing::Combine(::testing::Values<std::size_t>(2, 3, 7, 16, 30),
                       ::testing::Values(exp::synthetic_family::affine,
                                         exp::synthetic_family::mixed),
                       ::testing::Values<std::uint64_t>(1, 99),
                       ::testing::Values(-1.0, 0.5)),
    param_name);

TEST(MasterWorkerPolicy, CustomInitialConditionsPropagate) {
  protocol_options o;
  o.initial_partition = {0.6, 0.3, 0.1};
  o.initial_step = 0.01;
  master_worker_policy p(3, o);
  EXPECT_DOUBLE_EQ(p.current()[0], 0.6);
  EXPECT_DOUBLE_EQ(p.master_step_size(), 0.01);
}

TEST(MasterWorkerPolicy, SingleWorkerNoMessages) {
  master_worker_policy p(1);
  cost::cost_vector costs;
  costs.push_back(std::make_unique<cost::affine_cost>(2.0, 0.0));
  const cost::cost_view view = cost::view_of(costs);
  core::round_feedback fb;
  fb.costs = &view;
  const std::vector<double> locals{2.0};
  fb.local_costs = locals;
  p.observe(fb);
  EXPECT_DOUBLE_EQ(p.current()[0], 1.0);
  EXPECT_EQ(p.last_round_traffic().messages_sent, 0u);
}

TEST(FullyDistributedPolicy, LocalStepSizesOnlyTightenAtStragglers) {
  fully_distributed_policy p(3);
  const double alpha1 = p.local_step_sizes()[0];
  cost::cost_vector costs;
  costs.push_back(std::make_unique<cost::affine_cost>(1.0, 0.0));
  costs.push_back(std::make_unique<cost::affine_cost>(2.0, 0.0));
  costs.push_back(std::make_unique<cost::affine_cost>(9.0, 0.0));
  const cost::cost_view view = cost::view_of(costs);
  const auto locals = cost::evaluate(view, p.current());
  core::round_feedback fb;
  fb.costs = &view;
  fb.local_costs = locals;
  p.observe(fb);
  // Straggler is worker 2; only its local step size may have changed.
  EXPECT_DOUBLE_EQ(p.local_step_sizes()[0], alpha1);
  EXPECT_DOUBLE_EQ(p.local_step_sizes()[1], alpha1);
  EXPECT_LE(p.local_step_sizes()[2], alpha1);
}

TEST(FullyDistributedPolicy, ResetRestoresState) {
  fully_distributed_policy p(4);
  auto env = exp::make_synthetic_environment(
      4, exp::synthetic_family::affine, 5);
  for (int t = 0; t < 5; ++t) {
    const cost::cost_vector costs = env->next_round();
    const cost::cost_view view = cost::view_of(costs);
    const auto locals = cost::evaluate(view, p.current());
    core::round_feedback fb;
    fb.costs = &view;
    fb.local_costs = locals;
    p.observe(fb);
  }
  p.reset();
  for (double v : p.current()) EXPECT_DOUBLE_EQ(v, 0.25);
  for (double a : p.local_step_sizes()) {
    EXPECT_DOUBLE_EQ(a, p.local_step_sizes()[0]);
  }
  EXPECT_TRUE(on_simplex(p.current()));
}

// --- Sync vs. async bit-identity (the unified-protocol-core contract) ---
//
// The synchronous and event-driven engines instantiate the same round
// state machines (dist/mw_round.h, dist/fd_round.h); under a zero-delay
// link the asynchronous clock collapses and the two execution models must
// produce bit-identical iterates and step sizes — on the clean path *and*
// under a seeded lossy fault plan, where both engines must also consume
// the identical fault-roll stream (same retransmits, same degraded
// rounds, same holds).

async_options zero_delay_options(const protocol_options& protocol) {
  async_options o;
  o.protocol = protocol;
  o.link.base_latency = 0.0;
  o.link.bytes_per_second = 1e18;  // serialization time ~0
  return o;
}

protocol_options lossy_plan() {
  protocol_options o;
  o.faults.seed = 2026;
  o.faults.drop_rate = 0.2;
  return o;
}

void expect_same_fault_report(const fault_report& a, const fault_report& b) {
  EXPECT_EQ(a.degraded_rounds, b.degraded_rounds);
  EXPECT_EQ(a.straggler_failovers, b.straggler_failovers);
  EXPECT_EQ(a.removed_workers, b.removed_workers);
  EXPECT_EQ(a.zero_step_holds, b.zero_step_holds);
  EXPECT_EQ(a.aborted_rounds, b.aborted_rounds);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.timeouts, b.timeouts);
}

class SyncAsyncBitIdentity : public ::testing::TestWithParam<bool> {};

TEST_P(SyncAsyncBitIdentity, MasterWorkerMatchesAcrossExecutionModels) {
  const bool faulty = GetParam();
  constexpr std::size_t kWorkers = 12;
  const protocol_options protocol = faulty ? lossy_plan() : protocol_options{};
  master_worker_policy sync(kWorkers, protocol);
  async_master_worker async(kWorkers, zero_delay_options(protocol));
  auto env = exp::make_synthetic_environment(
      kWorkers, exp::synthetic_family::mixed, 7);
  for (int t = 0; t < 40; ++t) {
    const cost::cost_vector costs = env->next_round();
    const cost::cost_view view = cost::view_of(costs);
    const auto locals = cost::evaluate(view, sync.current());
    core::round_feedback fb;
    fb.costs = &view;
    fb.local_costs = locals;
    sync.observe(fb);
    const async_round_result r = async.run_round(view);
    for (std::size_t i = 0; i < kWorkers; ++i) {
      ASSERT_EQ(r.next_allocation[i], sync.current()[i])
          << "round " << t << " worker " << i;
    }
    ASSERT_EQ(async.step_size(), sync.master_step_size()) << "round " << t;
  }
  if (faulty) {
    EXPECT_GT(async.faults().retransmits, 0u);  // the plan actually bit
  }
  expect_same_fault_report(async.faults(), sync.faults());
}

TEST_P(SyncAsyncBitIdentity, FullyDistributedMatchesAcrossExecutionModels) {
  const bool faulty = GetParam();
  constexpr std::size_t kWorkers = 9;
  const protocol_options protocol = faulty ? lossy_plan() : protocol_options{};
  fully_distributed_policy sync(kWorkers, protocol);
  async_fully_distributed async(kWorkers, zero_delay_options(protocol));
  auto env = exp::make_synthetic_environment(
      kWorkers, exp::synthetic_family::mixed, 7);
  for (int t = 0; t < 40; ++t) {
    const cost::cost_vector costs = env->next_round();
    const cost::cost_view view = cost::view_of(costs);
    const auto locals = cost::evaluate(view, sync.current());
    core::round_feedback fb;
    fb.costs = &view;
    fb.local_costs = locals;
    sync.observe(fb);
    const async_round_result r = async.run_round(view);
    for (std::size_t i = 0; i < kWorkers; ++i) {
      ASSERT_EQ(r.next_allocation[i], sync.current()[i])
          << "round " << t << " worker " << i;
      ASSERT_EQ(async.local_step_sizes()[i], sync.local_step_sizes()[i])
          << "round " << t << " worker " << i;
    }
  }
  if (faulty) {
    EXPECT_GT(async.faults().retransmits, 0u);
  }
  expect_same_fault_report(async.faults(), sync.faults());
}

INSTANTIATE_TEST_SUITE_P(CleanAndLossy, SyncAsyncBitIdentity,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? std::string("lossy_drop20")
                                             : std::string("clean");
                         });

TEST(ProtocolTraffic, BytesScaleWithMessages) {
  auto env = exp::make_synthetic_environment(
      8, exp::synthetic_family::affine, 2);
  const equivalence_report report =
      run_equivalence(8, 5, [&] { return env->next_round(); });
  // Every message carries 1-3 scalars: bytes within [20, 36] each.
  const auto& mw = report.master_worker_traffic;
  EXPECT_GE(mw.bytes_sent, mw.messages_sent * 20);
  EXPECT_LE(mw.bytes_sent, mw.messages_sent * 36);
  const auto& fd = report.fully_distributed_traffic;
  EXPECT_GE(fd.bytes_sent, fd.messages_sent * 20);
  EXPECT_LE(fd.bytes_sent, fd.messages_sent * 36);
}

}  // namespace
}  // namespace dolbie::dist
