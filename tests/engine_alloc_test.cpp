// Allocation pinning for the four protocol engines: after warm-up every
// round — clean or degraded — runs out of reused member scratch
// (dist/protocol.h round_scratch + member_flags), channel buffers and
// reliable-link buffers at their working size, and messages whose payload
// is inline (net/message.h), so a steady-state round allocates nothing.
// Every global new in this binary bumps a counter (the bench/hot_path
// harness), making allocs/round an exact count; the bounds below are the
// measured steady state (N=8, mixed family, seed 7), so any per-round
// allocation that comes back (a message payload, a counter registered by
// name, a scratch vector rebuilt per round) trips them. The asynchronous
// engines' one allocation per round is the x_{t+1} copy their
// async_round_result owns, not protocol work.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "cost/cost_function.h"
#include "dist/async_fully_distributed.h"
#include "dist/async_master_worker.h"
#include "dist/fully_distributed.h"
#include "dist/master_worker.h"
#include "exp/scenario.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dolbie::dist {
namespace {

constexpr std::size_t kWorkers = 8;
constexpr int kRounds = 30;
constexpr int kWarmup = 20;  // steady state: all scratch at capacity
/// async_round_result::next_allocation, copied out of the engine.
constexpr std::uint64_t kAsyncResultAllocs = 1;

std::uint64_t allocs_now() {
  return g_allocs.load(std::memory_order_relaxed);
}

/// The shared cost stream, generated up front so the engines are measured
/// alone (cost-function construction is not on the round hot path).
struct cost_stream {
  std::vector<cost::cost_vector> rounds;
  std::vector<cost::cost_view> views;

  cost_stream() {
    auto env = exp::make_synthetic_environment(
        kWorkers, exp::synthetic_family::mixed, 7);
    rounds.reserve(kRounds);
    for (int t = 0; t < kRounds; ++t) rounds.push_back(env->next_round());
    views.reserve(kRounds);
    for (auto& r : rounds) views.push_back(cost::view_of(r));
  }
};

protocol_options lossy_plan() {
  protocol_options o;
  o.faults.seed = 7;
  o.faults.drop_rate = 0.2;
  return o;
}

/// Allocations of each observe() call, harness feedback excluded.
template <typename Policy>
std::vector<std::uint64_t> per_round_allocs_sync(Policy& p,
                                                 const cost_stream& s) {
  std::vector<std::uint64_t> deltas;
  deltas.reserve(kRounds);
  for (int t = 0; t < kRounds; ++t) {
    const auto locals = cost::evaluate(s.views[t], p.current());
    core::round_feedback fb;
    fb.costs = &s.views[t];
    fb.local_costs = locals;
    const std::uint64_t before = allocs_now();
    p.observe(fb);
    deltas.push_back(allocs_now() - before);
  }
  return deltas;
}

template <typename Engine>
std::vector<std::uint64_t> per_round_allocs_async(Engine& e,
                                                  const cost_stream& s) {
  std::vector<std::uint64_t> deltas;
  deltas.reserve(kRounds);
  for (int t = 0; t < kRounds; ++t) {
    const std::uint64_t before = allocs_now();
    e.run_round(s.views[t]);
    deltas.push_back(allocs_now() - before);
  }
  return deltas;
}

void expect_steady_state_bounded(const std::vector<std::uint64_t>& deltas,
                                 std::uint64_t bound) {
  for (int t = kWarmup; t < kRounds; ++t) {
    EXPECT_LE(deltas[t], bound) << "round " << t;
  }
}

TEST(EngineAllocations, SyncMasterWorkerSteadyStateIsBounded) {
  const cost_stream s;
  master_worker_policy clean(kWorkers);
  expect_steady_state_bounded(per_round_allocs_sync(clean, s), 0);
  master_worker_policy faulty(kWorkers, lossy_plan());
  expect_steady_state_bounded(per_round_allocs_sync(faulty, s), 0);
}

TEST(EngineAllocations, SyncFullyDistributedSteadyStateIsBounded) {
  const cost_stream s;
  fully_distributed_policy clean(kWorkers);
  expect_steady_state_bounded(per_round_allocs_sync(clean, s), 0);
  fully_distributed_policy faulty(kWorkers, lossy_plan());
  expect_steady_state_bounded(per_round_allocs_sync(faulty, s), 0);
}

TEST(EngineAllocations, AsyncMasterWorkerSteadyStateIsBounded) {
  const cost_stream s;
  async_master_worker clean(kWorkers);
  expect_steady_state_bounded(per_round_allocs_async(clean, s),
                              kAsyncResultAllocs);
  async_options o;
  o.protocol = lossy_plan();
  async_master_worker faulty(kWorkers, o);
  expect_steady_state_bounded(per_round_allocs_async(faulty, s),
                              kAsyncResultAllocs);
}

TEST(EngineAllocations, AsyncFullyDistributedSteadyStateIsBounded) {
  const cost_stream s;
  async_fully_distributed clean(kWorkers);
  expect_steady_state_bounded(per_round_allocs_async(clean, s),
                              kAsyncResultAllocs);
  async_options o;
  o.protocol = lossy_plan();
  async_fully_distributed faulty(kWorkers, o);
  expect_steady_state_bounded(per_round_allocs_async(faulty, s),
                              kAsyncResultAllocs);
}

// The degraded path must also be allocation-*deterministic*: two engines
// fed the identical stream and fault plan allocate identically round by
// round (a divergence means hidden state — a container growing across
// rounds or an order-dependent code path).
TEST(EngineAllocations, DegradedRoundsAllocateDeterministically) {
  const cost_stream s;
  {
    master_worker_policy a(kWorkers, lossy_plan());
    master_worker_policy b(kWorkers, lossy_plan());
    EXPECT_EQ(per_round_allocs_sync(a, s), per_round_allocs_sync(b, s));
  }
  {
    fully_distributed_policy a(kWorkers, lossy_plan());
    fully_distributed_policy b(kWorkers, lossy_plan());
    EXPECT_EQ(per_round_allocs_sync(a, s), per_round_allocs_sync(b, s));
  }
  async_options o;
  o.protocol = lossy_plan();
  {
    async_master_worker a(kWorkers, o);
    async_master_worker b(kWorkers, o);
    EXPECT_EQ(per_round_allocs_async(a, s), per_round_allocs_async(b, s));
  }
  {
    async_fully_distributed a(kWorkers, o);
    async_fully_distributed b(kWorkers, o);
    EXPECT_EQ(per_round_allocs_async(a, s), per_round_allocs_async(b, s));
  }
}

}  // namespace
}  // namespace dolbie::dist
