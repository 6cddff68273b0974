// Quickstart: simulate synchronous vs asynchronous push-pull on a hypercube.
//
// Demonstrates the two protocol engines and the Monte-Carlo harness in ~40
// lines. Build and run:
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "core/rumor.hpp"
#include "sim/harness.hpp"

int main() {
  // 1. Build a graph: the 10-dimensional hypercube (n = 1024).
  const auto g = rumor::graph::hypercube(10);
  std::printf("graph: %s, n=%u, m=%zu, diameter-lower-bound=%u\n", g.name().c_str(),
              g.num_nodes(), g.num_edges(), rumor::graph::eccentricity(g, 0));

  // 2. One synchronous run, watching the informed set grow.
  rumor::rng::Engine eng = rumor::rng::derive_stream(/*seed=*/42, /*stream=*/0);
  const auto sync = rumor::core::run_sync(g, /*source=*/0, eng);
  std::printf("\none sync push-pull run: %llu rounds\n",
              static_cast<unsigned long long>(sync.rounds));
  const auto curve = rumor::core::informed_round_curve(sync.informed_round, sync.rounds);
  for (std::size_t r = 0; r < curve.size(); ++r) {
    std::printf("  round %2zu: %4u informed\n", r, curve[r]);
  }

  // 3. One asynchronous run (Poisson clocks, measured in time units).
  const auto async = rumor::core::run_async(g, 0, eng);
  std::printf("\none async push-pull run: %.2f time units (%llu steps)\n", async.time,
              static_cast<unsigned long long>(async.steps));

  // 4. Monte-Carlo estimates across 300 trials, in parallel.
  rumor::sim::TrialConfig config;
  config.trials = 300;
  config.seed = 7;
  const auto sync_sample =
      rumor::sim::measure_sync(g, 0, rumor::core::Mode::kPushPull, config);
  const auto async_sample =
      rumor::sim::measure_async(g, 0, rumor::core::Mode::kPushPull, config);
  std::printf("\nover %llu trials:\n", static_cast<unsigned long long>(config.trials));
  std::printf("  sync  pp : mean %.2f rounds      (p99 %.2f)\n", sync_sample.mean(),
              sync_sample.quantile(0.99));
  std::printf("  async pp : mean %.2f time units  (p99 %.2f)\n", async_sample.mean(),
              async_sample.quantile(0.99));
  std::printf("\nTheorem 1 predicts async stays within O(sync + log n): ratio %.2f\n",
              async_sample.mean() / sync_sample.mean());
  return 0;
}
