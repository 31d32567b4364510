// Wall-clock estimate of one protocol round under each DOLBIE realization,
// combining the Section IV-C message counts with a link delay model.
//
// Master-worker (Algorithm 1) — four sequential phases through the master:
//   1. N local-cost uploads         (incast at the master)
//   2. N round-info downloads       (outcast from the master)
//   3. N-1 decision uploads         (incast at the master)
//   4. 1 assignment download
//
// Fully-distributed (Algorithm 2) — two phases, no hub:
//   1. all-to-all broadcast: every NIC pushes and pulls N-1 messages
//   2. N-1 decision uploads         (incast at the straggler)
//
// So MW pays more phases (latency-bound regime) while FD pays O(N^2) total
// bytes (bandwidth-bound regime at large N) — the bench/protocol_timing
// binary sweeps the crossover.
//
// The same phases, priced event by event, are the asynchronous engines'
// timing models (`mw_deadline_timing`, `fd_deadline_timing`): the round
// machines of dist/mw_round.h and dist/fd_round.h call one hook per
// protocol event, and the models advance a virtual clock from it.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/types.h"
#include "dist/protocol.h"
#include "net/delay_model.h"

namespace dolbie::dist {

/// Wall-clock deadline for the socket transport's real-timer mode. The
/// simulated timing models price rounds in *virtual* time (a poll-miss is
/// the retransmission timer); when the same round machines drive a real
/// cluster, receive loops instead spin until a `wall_deadline` expires.
/// `unbounded()` (the default) never expires — the deterministic
/// single-pull mode — so the virtual-time semantics are the zero-timeout
/// special case of the real-timer mode, not a separate code path.
class wall_deadline {
 public:
  using clock = std::chrono::steady_clock;

  /// Never expires — receive degenerates to one deterministic pull.
  static wall_deadline unbounded() { return wall_deadline(); }

  /// Expires `timeout` from now (zero or negative: already expired).
  static wall_deadline after(std::chrono::milliseconds timeout) {
    wall_deadline d;
    d.bounded_ = true;
    d.at_ = clock::now() + timeout;
    return d;
  }

  bool bounded() const { return bounded_; }
  bool expired() const { return bounded_ && clock::now() >= at_; }

  /// Time left before expiry, clamped at zero; unbounded deadlines report
  /// the maximum representable wait.
  std::chrono::milliseconds remaining() const {
    if (!bounded_) return std::chrono::milliseconds::max();
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        at_ - clock::now());
    return left.count() > 0 ? left : std::chrono::milliseconds(0);
  }

 private:
  bool bounded_ = false;
  clock::time_point at_{};
};

struct round_timing {
  double master_worker_seconds = 0.0;
  double fully_distributed_seconds = 0.0;
  std::size_t master_worker_messages = 0;
  std::size_t fully_distributed_messages = 0;
};

/// Estimate one round's communication wall-clock for both realizations.
/// `payload_bytes` is the encoded size of one scalar-carrying message
/// (net/codec: 20-byte header + 8 per scalar; protocol messages carry at
/// most 3 scalars — we use the 2-scalar average of 36 bytes by default).
round_timing estimate_round_timing(std::size_t n_workers,
                                   const net::link_delay_model& link,
                                   std::size_t payload_bytes = 36);

/// Configuration of the asynchronous engines (dist/async_master_worker.h,
/// dist/async_fully_distributed.h).
struct async_options {
  protocol_options protocol;
  net::link_delay_model link;
  /// Local decision-computation time per worker (Eq. 4 inverse + update).
  double compute_delay = 2e-6;
  /// Encoded bytes per protocol message (net/codec: 20 + 8 * scalars; the
  /// widest protocol payload is 2 scalars once the reliability header is
  /// included).
  std::size_t payload_bytes = 36;
  /// Retransmission timer for the fault-tolerant path (seconds). Negative
  /// selects 4x the one-message link time. Unused when
  /// protocol.faults is disabled.
  double retransmit_timeout = -1.0;
};

/// Deadline arithmetic shared by both realizations' timing models. Round
/// deadlines impose a barrier structure on the asynchronous execution — a
/// receiver cannot act before its per-phase deadline while a message might
/// still be in flight — so virtual time advances phase by phase: a
/// delivery that took k transmissions lands at
/// (k - 1) * timeout + msg_time after its departure, and a message lost
/// past the retry budget costs the receiver its full patience window.
/// Without faults every delivery takes one transmission and the clock is
/// the event schedule of the round.
struct deadline_clock {
  double msg_time = 0.0;
  double serialize = 0.0;
  double timeout = 0.0;
  double patience = 0.0;
  double compute_delay = 0.0;

  std::span<const double> locals;  ///< the round's l_i
  double compute_duration = 0.0;   ///< the straggler barrier max_i l_i
  double clock = 0.0;              ///< virtual time of the round so far
  double phase1_end = 0.0;         ///< closes the first wire phase
  double phase_end = 0.0;          ///< closes the decision phase
  std::vector<double> sent_at;     ///< decision departure times
  std::size_t messages = 0;        ///< protocol messages sent this round

  explicit deadline_clock(const async_options& o);

  /// Start a round: the compute barrier over the standing workers.
  void begin(std::span<const double> l,
             const std::vector<std::uint8_t>& removed) {
    locals = l;
    compute_duration = 0.0;
    for (std::size_t i = 0; i < l.size(); ++i) {
      if (removed[i] == 0) compute_duration = std::max(compute_duration, l[i]);
    }
    clock = 0.0;
    phase1_end = compute_duration;
    sent_at.assign(l.size(), 0.0);
    messages = 0;
  }
  double arrival(double depart, std::size_t k) const {
    return depart + static_cast<double>(k - 1) * timeout + msg_time;
  }
  double round_duration() const { return std::max(clock, compute_duration); }

  void on_send() { ++messages; }
  void phase1_done() {
    clock = phase1_end;
    phase_end = clock;
  }
  void decision_delivered(core::worker_id i, std::size_t k) {
    phase_end = std::max(phase_end, arrival(sent_at[i], k));
  }
  void decision_lost(core::worker_id i) {
    phase_end = std::max(phase_end, sent_at[i] + patience);
  }
  void decisions_done() { clock = phase_end; }
};

/// Alg. 1 over the deadline clock: cost uploads close phase 1, the
/// master's NIC serializes the round_info downloads back-to-back, the
/// decisions close phase 3, and the assignment ends the round.
struct mw_deadline_timing : deadline_clock {
  using deadline_clock::deadline_clock;
  std::vector<double> depart;   ///< round_info departure times
  std::vector<double> info_at;  ///< round_info arrival times
  std::size_t slot = 0;         ///< master-NIC serialization slot

  void round_begin(std::span<const double> l,
                   const std::vector<std::uint8_t>& removed) {
    begin(l, removed);
    depart.assign(l.size(), 0.0);
    info_at.assign(l.size(), 0.0);
    slot = 0;
  }
  // The master waits out a full deadline for a silent worker.
  void phase1_silent(core::worker_id) {
    phase1_end = std::max(phase1_end, patience);
  }
  void phase1_delivered(core::worker_id i, std::size_t k) {
    phase1_end = std::max(phase1_end, arrival(locals[i], k));
  }
  void phase1_lost(core::worker_id i) {
    phase1_end = std::max(phase1_end, locals[i] + patience);
  }
  void info_sent(core::worker_id i) {
    depart[i] = clock + static_cast<double>(slot++) * serialize;
  }
  void info_abandoned(core::worker_id i) {
    phase_end = std::max(phase_end, depart[i] + patience);
  }
  void info_delivered(core::worker_id i, std::size_t k) {
    info_at[i] = arrival(depart[i], k);
  }
  void straggler_ready(core::worker_id i) {
    phase_end = std::max(phase_end, info_at[i]);
  }
  void info_lost(core::worker_id i) { info_abandoned(i); }
  void decision_sent(core::worker_id i) {
    sent_at[i] = info_at[i] + compute_delay;
  }
  void assignment_delivered(std::size_t k) {
    clock += static_cast<double>(k - 1) * timeout + msg_time;
  }
  void assignment_lost() { clock += patience; }
};

/// Alg. 2 over the deadline clock: every worker's NIC serializes its
/// broadcasts from l_i, the broadcast barrier (every polling receiver's
/// inbox deadline) closes phase 1, the movers' decision uploads close
/// phase 2, and a failover costs the movers one full patience window on
/// the dead straggler.
struct fd_deadline_timing : deadline_clock {
  using deadline_clock::deadline_clock;
  std::vector<double> depart;         ///< n*n broadcast departure times
  std::vector<std::size_t> position;  ///< per-sender NIC serialization slot

  void round_begin(std::span<const double> l,
                   const std::vector<std::uint8_t>& removed) {
    begin(l, removed);
    depart.assign(l.size() * l.size(), 0.0);
    position.assign(l.size(), 0);
  }
  void broadcast_sent(core::worker_id i, core::worker_id j) {
    depart[i * locals.size() + j] =
        locals[i] + static_cast<double>(position[i]++) * serialize;
  }
  void broadcast_delivered(core::worker_id j, core::worker_id i,
                           std::size_t k) {
    phase1_end =
        std::max(phase1_end, arrival(depart[i * locals.size() + j], k));
  }
  void broadcast_lost(core::worker_id j, core::worker_id i) {
    phase1_end = std::max(phase1_end, depart[i * locals.size() + j] + patience);
  }
  void decision_sent(core::worker_id i) { sent_at[i] = clock + compute_delay; }
  void failover() {
    clock += patience;
    phase_end = clock;
  }
};

}  // namespace dolbie::dist
