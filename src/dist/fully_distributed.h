// DOLBIE, fully-distributed realization (Algorithm 2) as peer state
// machines over the simulated network — no master, no single point of
// failure, decisions shared only with the straggler.
//
// Per round — two wire phases (round_timing.h), then local absorption:
//   phase 1  every worker broadcasts cost_and_step(l_i, alpha-bar_i)
//            to every other worker                         N(N-1) msgs
//   phase 2  every worker independently computes l_t, the consensus step
//            alpha_t = min_j alpha-bar_j and the straggler s_t (worker-list
//            tie-breaking) from the broadcast data; non-stragglers update
//            x_i locally and send decision(x_{i,t+1}, x_{i,t}) to the
//            straggler only, keeping alpha-bar_i                N-1 msgs
//   (local)  the straggler absorbs the remainder and tightens its local
//            step size by Eq. (8) — no messages
//
// Total N^2 - 1 messages per round — the O(N^2) of Section IV-C. A
// non-straggler never learns the other workers' decisions, matching the
// paper's privacy argument; the straggler learns the movers' current
// shares but only the total of the holders' (dist/fd_round.h).
//
// The round is the dist/fd_round.h state machine played by the engine
// shell (dist/engine.h) with its timing hooks compiled away. Its iterates
// are bit-identical to core::dolbie_policy (asserted by
// tests/dist_equivalence_test). With `protocol_options::faults` enabled it
// runs over net::reliable_link — degraded completion via the participant
// set H_t, deterministic straggler failover and churn retirement. See
// DESIGN.md §8-9.
#pragma once

#include "dist/engine.h"

namespace dolbie::dist {

class fully_distributed_policy final : public sync_engine<fd_realization> {
 public:
  using sync_engine::sync_engine;

  std::string_view name() const override { return "DOLBIE-FD"; }

  /// Local step sizes alpha-bar_{i,t+1} (for tests of the consensus rule).
  const std::vector<double>& local_step_sizes() const {
    return realization().alpha_bar;
  }
};

}  // namespace dolbie::dist
