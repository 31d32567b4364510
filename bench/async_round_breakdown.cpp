// Asynchronous round breakdown — how much of a DOLBIE round is the compute
// barrier (the straggler, which load balancing shrinks over time) and how
// much is protocol communication (which Section IV-C's O(N) design keeps
// tiny). Simulated with the asynchronous engine: messages travel with
// real link delays, each phase closes at its deadline, the round ends when
// the last worker holds its next share.
//
//   $ ./async_round_breakdown [--seed=N] [--rounds=N]
#include <iostream>

#include "dist/async_master_worker.h"
#include "exp/report.h"
#include "exp/scenario.h"
#include "ml/cluster.h"

int main(int argc, char** argv) {
  using namespace dolbie;
  const exp::cli_args args(argc, argv);
  const std::uint64_t seed = args.get_u64("seed", 42);
  const std::size_t rounds = args.get_u64("rounds", 100);

  std::cout << "=== Asynchronous round breakdown (Algorithm 1, ResNet18 "
               "cluster) ===\n\n";

  exp::table by_n({"N", "round 1: compute/protocol [ms]",
                   "round " + std::to_string(rounds) +
                       ": compute/protocol [ms]",
                   "protocol share @ end [%]"});
  for (std::size_t n : {4u, 10u, 30u, 100u}) {
    ml::cluster cluster(n, ml::model_kind::resnet18, seed);
    dist::async_master_worker engine(n);
    dist::async_round_result first{};
    dist::async_round_result last{};
    for (std::size_t t = 0; t < rounds; ++t) {
      cluster.advance_round();
      const cost::cost_vector costs = cluster.round_costs(256.0);
      last = engine.run_round(cost::view_of(costs));
      if (t == 0) first = last;
    }
    by_n.add_row(
        {std::to_string(n),
         exp::format_double(1e3 * first.compute_duration) + " / " +
             exp::format_double(1e3 * first.protocol_duration, 3),
         exp::format_double(1e3 * last.compute_duration) + " / " +
             exp::format_double(1e3 * last.protocol_duration, 3),
         exp::format_double(
             100.0 * last.protocol_duration / last.round_duration, 3)});
  }
  by_n.print(std::cout);
  std::cout << "\nReading: load balancing shrinks the compute barrier "
               "round over round\nwhile the O(N) protocol stays "
               "sub-millisecond — the balancing pays for\nitself by orders "
               "of magnitude.\n";
  return 0;
}
