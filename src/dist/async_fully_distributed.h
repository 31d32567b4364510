// Asynchronous execution of Algorithm 2, priced in virtual time.
//
// Counterpart of async_master_worker for the fully-distributed protocol:
// every worker finishes its round-t computation at its own local-cost
// time, broadcasts (l_i, alpha-bar_i) to all peers (its NIC serializes the
// N-1 sends), updates once the broadcast barrier closes, and sends its
// decision to the straggler; the round ends when the straggler has
// absorbed the remainder and every worker holds its next share.
//
// Two phases instead of four: less latency exposure, more total bytes —
// the same trade-off round_timing.h models analytically, here priced
// event by event. The engine is the shell of dist/engine.h playing the
// dist/fd_round.h state machine under the deadline model
// `fd_deadline_timing`; its iterates are bit-identical to the synchronous
// engine under any fault plan.
#pragma once

#include "dist/async_master_worker.h"  // async_engine, async_round_result

namespace dolbie::dist {

/// Asynchronous Algorithm-2 engine. Stateful across rounds (x_t,
/// alpha-bar_t), mirroring fully_distributed_policy.
class async_fully_distributed final
    : public async_engine<fd_realization, fd_deadline_timing> {
 public:
  async_fully_distributed(std::size_t n_workers,
                          const async_options& options = {})
      : async_engine(n_workers, options) {}

  const std::vector<double>& local_step_sizes() const {
    return realization().alpha_bar;
  }
};

}  // namespace dolbie::dist
