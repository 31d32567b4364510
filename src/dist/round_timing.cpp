#include "dist/round_timing.h"

#include "common/error.h"

namespace dolbie::dist {

round_timing estimate_round_timing(std::size_t n_workers,
                                   const net::link_delay_model& link,
                                   std::size_t payload_bytes) {
  DOLBIE_REQUIRE(n_workers >= 1, "need at least one worker");
  round_timing out;
  if (n_workers == 1) return out;  // no communication at all
  const std::size_t n = n_workers;

  // Master-worker: four sequential hub phases.
  out.master_worker_seconds =
      link.serialized_time(n, payload_bytes) +        // cost uploads
      link.serialized_time(n, payload_bytes) +        // round-info downloads
      link.serialized_time(n - 1, payload_bytes) +    // decision uploads
      link.message_time(payload_bytes);               // assignment
  out.master_worker_messages = 3 * n;

  // Fully-distributed: the broadcast phase is limited by each NIC pushing
  // (and pulling) N-1 messages; the decision phase by the straggler's
  // incast of N-1 messages.
  out.fully_distributed_seconds =
      link.serialized_time(n - 1, payload_bytes) +    // broadcast (per NIC)
      link.serialized_time(n - 1, payload_bytes);     // straggler incast
  out.fully_distributed_messages = n * n - 1;
  return out;
}

deadline_clock::deadline_clock(const async_options& o)
    : msg_time(o.link.message_time(o.payload_bytes)),
      serialize(static_cast<double>(o.payload_bytes) /
                o.link.bytes_per_second),
      timeout(o.retransmit_timeout < 0.0 ? 4.0 * msg_time
                                         : o.retransmit_timeout),
      // How long a receiver waits before declaring an expected message
      // lost.
      patience(static_cast<double>(o.protocol.retry_budget + 1) * timeout +
               msg_time),
      compute_delay(o.compute_delay) {
  DOLBIE_REQUIRE(compute_delay >= 0.0, "compute delay must be >= 0");
}

}  // namespace dolbie::dist
