// Seeded, deterministic fault model for the simulated network.
//
// A `fault_plan` generalizes the one-shot `network::inject_drop` into a
// reproducible schedule of link faults and worker crashes:
//
//   * per-delivery-attempt drop probability (applies to retransmissions
//     too, so the residual loss after k retries is drop_rate^(k+1)),
//   * duplicate and reorder toggles (the reliable layer must absorb both),
//   * worker crash/recover windows in protocol rounds.
//
// All randomness is counter-based: a fault decision is a pure function of
// (seed, link, per-link attempt index), so outcomes are independent of
// thread count and of the order in which links are examined — the same
// determinism contract as rng::stream_seed. Re-running a plan over the
// same protocol execution reproduces the exact fault transcript.
//
// Crash semantics (what makes straggler failover reachable): a worker with
// crash_round == r participates in round r's *first* wire phase — it sends
// its local cost / broadcast, and its transport completes those transfers,
// retransmissions included — then performs no further protocol computation.
// From round r+1 until recover_round it is silent; a window that never
// recovers marks the worker permanently crashed, and the engines retire it
// through the shared churn math (core/churn.h) that backs
// dolbie_policy::remove_worker.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/message.h"

namespace dolbie::net {

/// One crash window: the worker dies mid-round at `crash_round` and comes
/// back (state intact, holding its last committed share) at
/// `recover_round`. `kNever` marks a permanent crash.
struct crash_window {
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  node_id node = 0;
  std::uint64_t crash_round = 0;
  std::uint64_t recover_round = kNever;
};

struct fault_plan {
  std::uint64_t seed = 0;
  /// Probability that one delivery attempt on a link is dropped.
  double drop_rate = 0.0;
  /// Probability that a delivered message is delivered twice.
  double duplicate_rate = 0.0;
  /// Probability that a delivered message is delivered *behind* the
  /// message already at the tail of the channel (adjacent swap).
  double reorder_rate = 0.0;
  std::vector<crash_window> crashes;
  /// Engage the reliable-delivery path even with every rate at zero —
  /// used by tests that inject faults directly via network::inject_drop.
  bool force = false;

  /// Whether any fault is configured. Engines drive their rounds over the
  /// raw network, with no reliable layer, when this is false.
  bool enabled() const {
    return force || drop_rate > 0.0 || duplicate_rate > 0.0 ||
           reorder_rate > 0.0 || !crashes.empty();
  }

  /// The worker dies mid-round at `round` (first wire phase only).
  bool crashed_during(node_id node, std::uint64_t round) const;

  /// The worker is silent for the whole of `round`.
  bool down(node_id node, std::uint64_t round) const;

  /// The worker is down at `round` and never recovers.
  bool permanently_down(node_id node, std::uint64_t round) const;

  /// Variants that ignore crash windows opening before `ignore_before`:
  /// when the shard layer's self-healing promotes a replacement host onto
  /// a tree-node id at round R (shard/reduction_tree.h), the windows that
  /// killed the old host stop applying to the new one — only windows with
  /// crash_round >= R still name this node. ignore_before == 0 is the
  /// plain predicate.
  bool crashed_during(node_id node, std::uint64_t round,
                      std::uint64_t ignore_before) const;
  bool down(node_id node, std::uint64_t round,
            std::uint64_t ignore_before) const;
  bool permanently_down(node_id node, std::uint64_t round,
                        std::uint64_t ignore_before) const;

  /// Deterministic per-attempt fault rolls. `attempt` is a per-link
  /// monotone counter maintained by the caller (network / async engines).
  bool roll_drop(node_id from, node_id to, std::uint64_t attempt) const;
  bool roll_duplicate(node_id from, node_id to, std::uint64_t attempt) const;
  bool roll_reorder(node_id from, node_id to, std::uint64_t attempt) const;
};

/// Parse a crash schedule of the form "node@round[-recover][,...]", e.g.
/// "3@50" (worker 3 crashes at round 50, permanently) or "3@50-80,5@100"
/// (worker 3 is down for rounds 50..79). Throws invariant_error on
/// malformed input; an empty string yields an empty schedule.
std::vector<crash_window> parse_crash_schedule(const std::string& spec);

/// Validate a crash schedule against a node universe of `n_nodes`: every
/// window's node id must be in range, and no two windows may share the
/// same (node, crash_round) pair — a node cannot die mid-round twice in
/// one round, and such duplicates are invariably schedule typos.
/// Overlapping windows with distinct crash rounds stay legal (the
/// predicates OR them). Throws invariant_error on violation.
void validate_crash_schedule(const std::vector<crash_window>& crashes,
                             std::size_t n_nodes);

}  // namespace dolbie::net
