// tools/campaign_merge: folds finished shard snapshots (rumor_bench
// --campaign ... --shard i/k) into the campaign's final report,
// bit-identical to an unsharded run. It is `rumor_bench --merge --json`
// under its own name:
//   campaign_merge --campaign spec.json [--out FILE] [--trials N]
//                  [--seed S] [--scale K] shard1.json shard2.json ...
// Exit codes: 0 = merged, 1 = merge validation failure, 2 = bad input.
#include <iostream>
#include <vector>

#include "sim/experiment.hpp"

int main(int argc, char** argv) {
  std::vector<const char*> args = {argv[0], "--merge", "--json"};
  args.insert(args.end(), argv + 1, argv + argc);
  return rumor::sim::run_bench_cli(static_cast<int>(args.size()), args.data(), std::cout,
                                   std::cerr);
}
