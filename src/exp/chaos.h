// Chaos harness: regret under message loss and worker crashes.
//
// Plays both synchronous protocol realizations (and, with
// `include_async`, the two event-driven engines — which instantiate the
// same dist/mw_round.h / fd_round.h state machines) against a synthetic
// environment across a grid of drop rates (and an optional crash
// schedule), all under one deterministic fault seed, and reports the
// cumulative-cost excess of each faulty run over its own clean (zero-drop)
// baseline — the price of degraded rounds in regret terms. The zero-drop
// cell runs the engines without a fault plan, so the grid doubles as a
// zero-fault identity check.
//
// Wired into the fig3 and comm-complexity benches behind the flag family
//   --chaos --fault-seed=N --drop-rate=D | --drop-rates=a,b,c
//   --crash-schedule=node@round[-recover],... --chaos-async
//   --chaos-rounds=T --chaos-workers=N --chaos-jsonl=out.jsonl
//   --chaos-hier --shard-size=S --fanin=F --chaos-no-flat
//   --agg-crash-schedule=agg@round[-recover],...
//   --kill-at=R --checkpoint=DIR --restore=DIR
//
// The last line is the crash-recovery drill (DESIGN.md §12): --kill-at
// stops every cell after R rounds and --checkpoint writes one snapshot
// file per cell wrapping the engine's versioned bytes plus the partial
// cumulative cost; a second invocation with --restore resumes each cell
// from those files and replays the remaining rounds. The resumed grid is
// bit-identical to the uninterrupted one (CI's chaos-smoke leg asserts
// equality of the two JSONL artifacts row by row).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "dist/protocol.h"
#include "exp/report.h"
#include "exp/scenario.h"

namespace dolbie::exp {

struct chaos_options {
  std::size_t workers = 30;
  std::size_t rounds = 200;
  /// Environment seed (cost-function processes).
  std::uint64_t seed = 42;
  /// Fault-plan seed (drop/crash rolls), independent of the environment.
  std::uint64_t fault_seed = 1;
  /// Drop-rate grid. A 0.0 entry is always included (the baseline).
  std::vector<double> drop_rates = {0.0, 0.05, 0.2, 0.5};
  /// Crash schedule applied to every faulty cell.
  std::vector<net::crash_window> crashes;
  std::size_t retry_budget = 5;
  synthetic_family family = synthetic_family::affine;
  /// Run the flat synchronous engines (rows "MW"/"FD"). On by default;
  /// switched off (--chaos-no-flat) for large-N grids where the flat FD
  /// engine's n^2 broadcast is intractable and only the hierarchical
  /// rows make sense.
  bool include_flat = true;
  /// Also run the event-driven engines (rows "MW-async"/"FD-async"),
  /// appended after the synchronous rows. Off by default: the sync rows
  /// keep their historical positions.
  bool include_async = false;
  /// Also run the hierarchical shard engines (rows "MW-hier"/"FD-hier",
  /// appended last). This is the scale path: per-node traffic is
  /// O(shard size + log N), so the grid stays tractable at N = 10^5.
  bool include_hierarchical = false;
  /// Sharding knobs for the hierarchical rows (0 = ceil(sqrt(N))).
  std::size_t shard_size = 0;
  std::size_t fanin = 4;
  /// Crash windows over aggregator (tree-node) ids, hierarchical rows only.
  std::vector<net::crash_window> aggregator_crashes;

  /// Crash-recovery drill. kill_at > 0 stops every cell after that many
  /// rounds (the "kill"); checkpoint_path then receives one
  /// <engine>_<rate>.ckpt file per cell — a chaos_checkpoint-framed
  /// snapshot wrapping the engine bytes, the cut round and the partial
  /// cumulative cost. restore_path resumes each cell from those files:
  /// the engine is rebuilt from bytes, the environment fast-forwarded,
  /// and the remaining rounds replayed; the resumed cumulative cost is
  /// bit-identical to the uninterrupted run's.
  std::uint64_t kill_at = 0;
  std::string checkpoint_path;
  std::string restore_path;
};

/// One cell of the chaos grid: engine x drop rate.
struct chaos_row {
  std::string engine;  ///< "MW", "FD", "MW-async" or "FD-async"
  double drop_rate = 0.0;
  double cumulative_cost = 0.0;
  /// cumulative_cost minus the same engine's zero-drop baseline.
  double excess_vs_clean = 0.0;
  dist::fault_report report;
  bool simplex_ok = false;
};

/// Run the full grid (both engines x all drop rates), in parallel, each
/// cell against a fresh identically-seeded environment. Deterministic at
/// any thread count.
std::vector<chaos_row> run_chaos_grid(const chaos_options& options);

void print_chaos_table(std::ostream& os, const std::vector<chaos_row>& rows);

/// One JSON object per row (regret-vs-drop-rate artifact for CI).
void write_chaos_jsonl(std::ostream& os, const chaos_options& options,
                       const std::vector<chaos_row>& rows);

/// True when the command line asks for the chaos pass.
bool chaos_requested(const cli_args& args);

/// Build options from the flag family above (seed defaults to --seed).
chaos_options chaos_options_from_args(const cli_args& args);

/// Convenience: parse, run, print, and write the JSONL artifact if
/// --chaos-jsonl is set.
void run_chaos_from_args(std::ostream& os, const cli_args& args);

}  // namespace dolbie::exp
