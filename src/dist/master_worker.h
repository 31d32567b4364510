// DOLBIE, master-worker realization (Algorithm 1) as communicating state
// machines over the simulated network.
//
// The master occupies node id N; workers are nodes 0..N-1. Per round:
//
//   phase 1  workers send local_cost(l_i) to the master           N msgs
//   phase 2  master computes l_t, s_t; sends round_info to all    N msgs
//   phase 3  non-stragglers compute x' and x_{t+1} locally and
//            send decision(x_{i,t+1}) to the master             N-1 msgs
//   phase 4  master sets x_s = 1 - sum, sends assignment to s_t;  1 msg
//            updates alpha_{t+1} by Eq. (7)
//
// Total 3N messages per round — the O(N) of Section IV-C. Worker i's logic
// touches only its own cost function, its own x_i and its inbox; the
// allocation visible through current() is assembled by the harness, which
// plays the role of the physical work dispatcher.
//
// The round is the dist/mw_round.h state machine played by the engine
// shell (dist/engine.h) with its timing hooks compiled away. Its iterates
// are bit-identical to core::dolbie_policy (asserted by
// tests/dist_equivalence_test). With `protocol_options::faults` enabled it
// runs over net::reliable_link: a phase message missing past the retry
// budget degrades the round instead of failing it, a crashed or
// unreachable straggler is re-elected deterministically, and permanent
// crashes retire the worker through the shared churn math of
// core/churn.h. See DESIGN.md §8-9.
#pragma once

#include "dist/engine.h"

namespace dolbie::dist {

class master_worker_policy final : public sync_engine<mw_realization> {
 public:
  using sync_engine::sync_engine;

  std::string_view name() const override { return "DOLBIE-MW"; }

  /// Step size the master will apply to the next round.
  double master_step_size() const { return realization().alpha; }
};

}  // namespace dolbie::dist
