// Fault injection against the protocol realizations. With the reliable
// delivery layer engaged (a forced fault plan), an injected drop is no
// longer fatal: a loss within the retry budget is recovered transparently
// (the round's iterate is bit-identical to the clean run), and a loss past
// the budget degrades the round — the unheard worker holds x_{i,t} and the
// allocation stays on the simplex. Malformed *feedback* (a harness-side
// contract violation, not a network fault) must still fail loudly.
#include <memory>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/simplex.h"
#include "cost/affine.h"
#include "dist/fully_distributed.h"
#include "dist/master_worker.h"
#include "exp/scenario.h"
#include "net/network.h"

namespace dolbie::dist {
namespace {

TEST(NetworkFaults, InjectedDropsVanishButAreAccounted) {
  net::network net(3);
  net.inject_drop(0, 1, 2);
  net.send({0, 1, net::message_kind::local_cost, {1.0}});
  net.send({0, 1, net::message_kind::local_cost, {2.0}});
  net.send({0, 1, net::message_kind::local_cost, {3.0}});
  EXPECT_EQ(net.dropped(), 2u);
  // Only the third message survives...
  const auto m = net.receive(1, 0);
  ASSERT_TRUE(m.has_value());
  EXPECT_DOUBLE_EQ(m->payload[0], 3.0);
  EXPECT_FALSE(net.receive(1, 0).has_value());
  // ...but the sender paid for all three.
  EXPECT_EQ(net.total_traffic().messages_sent, 3u);
}

TEST(NetworkFaults, DropInjectionValidatesEndpoints) {
  net::network net(2);
  EXPECT_THROW(net.inject_drop(0, 5), invariant_error);
  EXPECT_THROW(net.inject_drop(9, 0), invariant_error);
}

// Drive identical rounds on two copies of a policy, both on the forced
// reliable path (no scheduled faults): `faulty` gets drops injected per
// test, `reference` stays loss-free. Recovery within the retry budget
// means the retransmissions are transparent — `faulty` stays bit-identical
// to `reference`.
template <typename Policy>
struct pair_under_test {
  static protocol_options forced() {
    protocol_options o;
    o.faults.force = true;  // reliable path, no scheduled faults
    o.retry_budget = kBudget;
    return o;
  }

  pair_under_test() : faulty(kN, forced()), reference(kN, forced()) {}

  void observe_both() {
    const cost::cost_vector costs = env->next_round();
    const cost::cost_view view = cost::view_of(costs);
    // Identical current() is an invariant of these tests while drops stay
    // within budget; evaluate at the reference iterate for both.
    const auto locals = cost::evaluate(view, reference.current());
    core::round_feedback fb;
    fb.costs = &view;
    fb.local_costs = locals;
    faulty.observe(fb);
    reference.observe(fb);
  }

  static constexpr std::size_t kN = 5;
  static constexpr std::size_t kBudget = 3;
  std::unique_ptr<exp::environment> env =
      exp::make_synthetic_environment(kN, exp::synthetic_family::affine, 11);
  Policy faulty;
  Policy reference;
};

TEST(ProtocolFaults, MasterWorkerRecoversWithinRetryBudget) {
  pair_under_test<master_worker_policy> pair;
  // Lose worker 0's phase-1 upload twice (original + one retransmit): the
  // budget of 3 absorbs it.
  pair.faulty.transport().inject_drop(0, pair.kN, 2);
  for (int t = 0; t < 5; ++t) pair.observe_both();
  EXPECT_EQ(pair.faulty.current(), pair.reference.current());
  EXPECT_DOUBLE_EQ(pair.faulty.master_step_size(),
                   pair.reference.master_step_size());
  const fault_report& report = pair.faulty.faults();
  EXPECT_EQ(report.retransmits, 2u);
  EXPECT_EQ(report.degraded_rounds, 0u);
  EXPECT_EQ(report.zero_step_holds, 0u);
}

TEST(ProtocolFaults, MasterWorkerDegradesPastTheBudget) {
  pair_under_test<master_worker_policy> pair;
  // budget + 1 drops: worker 0's local cost never reaches the master in
  // round 0 — the worker holds x_{0,t} and the round completes degraded.
  pair.faulty.transport().inject_drop(0, pair.kN, pair.kBudget + 1);
  pair.observe_both();
  const fault_report& report = pair.faulty.faults();
  EXPECT_EQ(report.degraded_rounds, 1u);
  EXPECT_EQ(report.zero_step_holds, 1u);
  EXPECT_EQ(report.retransmits, pair.kBudget);
  EXPECT_TRUE(on_simplex(pair.faulty.current()));
  // The unheard worker held its share; the clean run moved it.
  EXPECT_EQ(pair.faulty.current()[0], 1.0 / pair.kN);
  // Later rounds are loss-free and the engine keeps making progress.
  for (int t = 0; t < 4; ++t) pair.observe_both();
  EXPECT_EQ(pair.faulty.faults().degraded_rounds, 1u);
  EXPECT_TRUE(on_simplex(pair.faulty.current()));
}

TEST(ProtocolFaults, FullyDistributedRecoversWithinRetryBudget) {
  pair_under_test<fully_distributed_policy> pair;
  // Lose one broadcast leg (worker 1 -> worker 3) twice.
  pair.faulty.transport().inject_drop(1, 3, 2);
  for (int t = 0; t < 5; ++t) pair.observe_both();
  EXPECT_EQ(pair.faulty.current(), pair.reference.current());
  EXPECT_EQ(pair.faulty.local_step_sizes(),
            pair.reference.local_step_sizes());
  const fault_report& report = pair.faulty.faults();
  EXPECT_EQ(report.retransmits, 2u);
  EXPECT_EQ(report.degraded_rounds, 0u);
}

TEST(ProtocolFaults, FullyDistributedDegradesPastTheBudget) {
  pair_under_test<fully_distributed_policy> pair;
  // Worker 1's broadcast to worker 3 is lost past the budget: worker 1
  // leaves H_t for round 0 and holds its share.
  pair.faulty.transport().inject_drop(1, 3, pair.kBudget + 1);
  pair.observe_both();
  const fault_report& report = pair.faulty.faults();
  EXPECT_EQ(report.degraded_rounds, 1u);
  EXPECT_GE(report.zero_step_holds, 1u);
  EXPECT_TRUE(on_simplex(pair.faulty.current()));
  EXPECT_EQ(pair.faulty.current()[1], 1.0 / pair.kN);
}

// Malformed feedback is a harness bug, not a network fault: it must stay a
// loud invariant_error on both realizations, clean or faulty.

cost::cost_vector three_affine() {
  cost::cost_vector costs;
  costs.push_back(std::make_unique<cost::affine_cost>(1.0, 0.0));
  costs.push_back(std::make_unique<cost::affine_cost>(2.0, 0.0));
  costs.push_back(std::make_unique<cost::affine_cost>(3.0, 0.0));
  return costs;
}

TEST(ProtocolFaults, MasterWorkerRejectsMalformedFeedback) {
  master_worker_policy p(3);
  core::round_feedback fb;  // null costs
  const std::vector<double> locals{1.0, 2.0, 3.0};
  fb.local_costs = locals;
  EXPECT_THROW(p.observe(fb), invariant_error);

  const cost::cost_vector costs = three_affine();
  const cost::cost_view view = cost::view_of(costs);
  fb.costs = &view;
  const std::vector<double> wrong{1.0};
  fb.local_costs = wrong;
  EXPECT_THROW(p.observe(fb), invariant_error);
}

TEST(ProtocolFaults, FullyDistributedRejectsMalformedFeedback) {
  fully_distributed_policy p(3);
  core::round_feedback fb;
  const std::vector<double> locals{1.0, 2.0, 3.0};
  fb.local_costs = locals;
  EXPECT_THROW(p.observe(fb), invariant_error);
}

// Without a fault plan the engines run over the raw network, where every
// message must arrive: a lost one is a bug, never a degraded round.
TEST(ProtocolFaults, LossWithoutAFaultPlanIsAnInvariantError) {
  const cost::cost_vector costs = three_affine();
  const cost::cost_view view = cost::view_of(costs);
  master_worker_policy mw(3);
  mw.transport().inject_drop(0, 3);  // worker 0's cost upload
  const auto mw_locals = cost::evaluate(view, mw.current());
  EXPECT_THROW(mw.observe({&view, mw_locals}), invariant_error);

  fully_distributed_policy fd(3);
  fd.transport().inject_drop(1, 2);  // one broadcast leg
  const auto fd_locals = cost::evaluate(view, fd.current());
  EXPECT_THROW(fd.observe({&view, fd_locals}), invariant_error);
}

TEST(ProtocolFaults, StateUnchangedAfterRejectedRound) {
  master_worker_policy p(3);
  const core::allocation before = p.current();
  core::round_feedback fb;
  const std::vector<double> locals{1.0, 2.0, 3.0};
  fb.local_costs = locals;
  EXPECT_THROW(p.observe(fb), invariant_error);
  EXPECT_EQ(p.current(), before);  // fail-fast left no partial update
}

}  // namespace
}  // namespace dolbie::dist
