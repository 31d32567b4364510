// Asynchronous execution of Algorithm 1, priced in virtual time.
//
// The phase-synchronous realization in master_worker.h verifies *what* is
// exchanged; this one verifies *when*: each worker finishes its round-t
// computation at its own local-cost time, messages travel with link
// delays, the master reacts to arrivals, and the round ends when the last
// worker holds its round-(t+1) workload. The produced allocation is
// bit-identical to the synchronous engine — asynchrony changes timing,
// never the iterate — and the reported durations decompose the round into
// compute (the straggler barrier) and protocol overhead.
//
// Timeline of one round:
//
//   t = 0                each worker starts computing its share
//   t = l_i              worker i finishes, uploads local_cost(l_i)
//   master: on the last upload, serializes N round_info downloads
//   worker i: on round_info, computes x'_i and x_{i,t+1} (taking
//             compute_delay seconds), then uploads decision (non-straggler)
//             or waits for its assignment (straggler)
//   master: on the last decision, sends the straggler its assignment and
//           tightens alpha by Eq. (7)
//   round ends at max_i (time worker i holds x_{i,t+1})
//
// The engine is the shell of dist/engine.h playing the dist/mw_round.h
// state machine — the synchronous engine's transitions over the same
// network, reliable link and fault-roll stream — with the
// deadline-arithmetic timing model of dist/round_timing.h pricing every
// delivery in virtual time from the number of transmissions it took.
#pragma once

#include <vector>

#include "common/error.h"
#include "cost/cost_function.h"
#include "dist/engine.h"
#include "dist/round_timing.h"

namespace dolbie::dist {

/// Result of one asynchronously simulated round.
struct async_round_result {
  core::allocation next_allocation;  ///< x_{t+1}, all workers
  double round_duration = 0.0;       ///< start -> last worker ready
  double compute_duration = 0.0;     ///< the straggler barrier max_i l_i
  double protocol_duration = 0.0;    ///< round_duration - compute_duration
  std::size_t messages = 0;          ///< protocol messages exchanged
  // Fault-path accounting (all zero without faults).
  std::size_t retransmits = 0;       ///< retransmissions this round
  std::size_t zero_step_holds = 0;   ///< workers that held x_{i,t}
  std::size_t straggler_failovers = 0;
  bool degraded = false;             ///< any hold, failover or abort
  bool aborted = false;              ///< no progress was possible
};

/// The asynchronous engines' face: one round per run_round(), priced by
/// the deadline model `Timing`.
template <class Realization, class Timing>
class async_engine : public engine<Realization, Timing> {
  using shell = engine<Realization, Timing>;

 public:
  async_engine(std::size_t n_workers, const async_options& options)
      : shell(n_workers, options.protocol, Timing(options)) {}

  /// Simulate one full round under the given revealed cost functions.
  async_round_result run_round(const cost::cost_view& costs) {
    DOLBIE_REQUIRE(costs.size() == shell::workers(),
                   "cost/worker count mismatch");
    // Locals are evaluated at the pre-retirement allocation — the same
    // feedback the synchronous harness computes at current() before
    // observe() — so sync-vs-async bit-identity covers churn rounds too.
    cost::evaluate_into(costs, shell::allocation(), locals_);
    const std::size_t retransmits = shell::faults().retransmits;
    const degraded_outcome out = shell::play(costs, locals_);
    const Timing& timing = shell::timing();
    async_round_result r;
    r.next_allocation = shell::allocation();
    r.compute_duration = timing.compute_duration;
    r.round_duration = timing.round_duration();
    r.protocol_duration = r.round_duration - r.compute_duration;
    r.messages = timing.messages;
    r.retransmits = shell::faults().retransmits - retransmits;
    r.zero_step_holds = out.holds;
    r.straggler_failovers = out.failovers;
    r.aborted = out.aborted;
    r.degraded = out.holds > 0 || out.failovers > 0 || out.aborted;
    return r;
  }

 private:
  std::vector<double> locals_;  // the round's l_i, reused across rounds
};

/// Asynchronous Algorithm-1 engine. Stateful across rounds (x_t, alpha_t),
/// mirroring core::dolbie_policy with the worst-case Eq. (7) schedule.
class async_master_worker final
    : public async_engine<mw_realization, mw_deadline_timing> {
 public:
  async_master_worker(std::size_t n_workers, const async_options& options = {})
      : async_engine(n_workers, options) {}

  double step_size() const { return realization().alpha; }
};

}  // namespace dolbie::dist
