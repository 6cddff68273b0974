// Tests for the synchronous engine — protocol semantics (push/pull/push-pull
// asymmetries on the star), structural invariants (monotone informed set,
// source at round 0, eccentricity lower bound), determinism, and the known
// spreading laws on canonical graphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/sync.hpp"
#include "core/trajectory.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "rng/rng.hpp"
#include "sim/harness.hpp"

using namespace rumor;
using core::Mode;

namespace {

core::SyncResult run(const graph::Graph& g, graph::NodeId source, Mode mode,
                     std::uint64_t stream) {
  auto eng = rng::derive_stream(2024, stream);
  core::SyncOptions opts;
  opts.mode = mode;
  return core::run_sync(g, source, eng, opts);
}

}  // namespace

TEST(SyncEngine, TwoNodeGraphFinishesInOneRound) {
  const auto g = graph::path(2);
  for (Mode mode : {Mode::kPush, Mode::kPull, Mode::kPushPull}) {
    const auto r = run(g, 0, mode, static_cast<std::uint64_t>(mode));
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.rounds, 1u);
    EXPECT_EQ(r.informed_round[0], 0u);
    EXPECT_EQ(r.informed_round[1], 1u);
  }
}

TEST(SyncEngine, SourceInformedAtRoundZero) {
  const auto g = graph::cycle(20);
  const auto r = run(g, 7, Mode::kPushPull, 0);
  EXPECT_EQ(r.informed_round[7], 0u);
  for (graph::NodeId v = 0; v < 20; ++v) {
    if (v != 7) {
      EXPECT_GT(r.informed_round[v], 0u);
    }
  }
}

TEST(SyncEngine, AllNodesInformedOnCompletion) {
  const auto g = graph::hypercube(6);
  const auto r = run(g, 0, Mode::kPushPull, 1);
  ASSERT_TRUE(r.completed);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_NE(r.informed_round[v], core::kNeverRound);
    EXPECT_LE(r.informed_round[v], r.rounds);
  }
}

TEST(SyncEngine, RoundsEqualMaxInformRound) {
  const auto g = graph::torus(8);
  const auto r = run(g, 0, Mode::kPushPull, 2);
  ASSERT_TRUE(r.completed);
  std::uint64_t max_round = 0;
  for (auto round : r.informed_round) max_round = std::max(max_round, round);
  EXPECT_EQ(r.rounds, max_round);
}

TEST(SyncEngine, EccentricityIsALowerBound) {
  // Information travels at most one hop per round.
  const auto g = graph::path(40);
  for (std::uint64_t s = 0; s < 5; ++s) {
    const auto r = run(g, 0, Mode::kPushPull, 10 + s);
    ASSERT_TRUE(r.completed);
    EXPECT_GE(r.rounds, graph::eccentricity(g, 0));
  }
}

TEST(SyncEngine, HistoryIsMonotoneAndStartsAtOne) {
  const auto g = graph::hypercube(7);
  auto eng = rng::derive_stream(2024, 20);
  const auto r = core::run_sync(g, 0, eng);
  ASSERT_TRUE(r.completed);
  const auto history = core::informed_round_curve(r.informed_round, r.rounds);
  ASSERT_EQ(history.size(), r.rounds + 1);
  EXPECT_EQ(history.front(), 1u);
  EXPECT_EQ(history.back(), g.num_nodes());
  EXPECT_TRUE(std::is_sorted(history.begin(), history.end()));
}

TEST(SyncEngine, DeterministicGivenSeed) {
  auto gen_eng = rng::derive_stream(1, 1);
  const auto g = graph::erdos_renyi(300, 0.05, gen_eng);
  const auto a = run(g, 0, Mode::kPushPull, 33);
  const auto b = run(g, 0, Mode::kPushPull, 33);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.informed_round, b.informed_round);
}

TEST(SyncEngine, RespectsRoundCap) {
  const auto g = graph::path(100);
  auto eng = rng::derive_stream(2024, 40);
  core::SyncOptions opts;
  opts.max_ticks = 3;  // far too few for a path
  const auto r = core::run_sync(g, 0, eng, opts);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.rounds, 3u);
}

TEST(SyncEngine, DisconnectedGraphNeverCompletes) {
  graph::GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const auto g = std::move(b).build("disc");
  auto eng = rng::derive_stream(2024, 41);
  core::SyncOptions opts;
  opts.max_ticks = 50;
  const auto r = core::run_sync(g, 0, eng, opts);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.informed_round[2], core::kNeverRound);
  EXPECT_EQ(r.informed_round[3], core::kNeverRound);
  EXPECT_EQ(r.informed_round[1], 1u);  // only neighbor: deterministic round 1
}

// --- The paper's star-graph facts (Section 1) --------------------------------

TEST(SyncStar, PushPullFromLeafTakesAtMostTwoRounds) {
  // Round 1: the leaf source pushes to the hub (its only neighbor) AND the
  // hub cannot miss: every uninformed leaf contacts the hub; the hub gets
  // informed via the source's push. Round 2: every leaf pulls from the hub.
  const auto g = graph::star(64);
  for (std::uint64_t s = 0; s < 50; ++s) {
    const auto r = run(g, 1, Mode::kPushPull, 100 + s);
    ASSERT_TRUE(r.completed);
    EXPECT_LE(r.rounds, 2u);
  }
}

TEST(SyncStar, PushPullFromHubTakesOneRound) {
  const auto g = graph::star(64);
  for (std::uint64_t s = 0; s < 20; ++s) {
    const auto r = run(g, 0, Mode::kPushPull, 200 + s);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.rounds, 1u);
  }
}

TEST(SyncStar, PushOnlyIsCouponCollector) {
  // Push-only from the hub: each round informs one uniformly random leaf,
  // so the time is the coupon collector ~ (n-1) ln(n-1). With n = 33 the
  // mean is ~ 32 * H(32) ~ 130; check the gross scale, not the constant.
  const auto g = graph::star(33);
  sim::TrialConfig config;
  config.trials = 60;
  config.seed = 5;
  const auto sample = sim::measure_sync(g, 0, Mode::kPush, config);
  const double expected = 32.0 * std::log(32.0);
  EXPECT_GT(sample.mean(), 0.5 * expected);
  EXPECT_LT(sample.mean(), 2.0 * expected);
}

TEST(SyncStar, PullOnlyFromHubIsTwoRoundsWorstCaseSmall) {
  // Pull-only from the hub: every leaf pulls from the hub in round 1.
  const auto g = graph::star(16);
  const auto r = run(g, 0, Mode::kPull, 300);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.rounds, 1u);
}

TEST(SyncStar, PullOnlyFromLeafNeedsHubFirst) {
  // From a leaf, pull-only: the hub must pull from the source (probability
  // 1/(n-1) per round), then every leaf pulls in the following round. So
  // T >= 2 always, and the first phase is geometric.
  const auto g = graph::star(8);
  for (std::uint64_t s = 0; s < 30; ++s) {
    const auto r = run(g, 3, Mode::kPull, 400 + s);
    ASSERT_TRUE(r.completed);
    EXPECT_GE(r.rounds, 2u);
  }
}

// --- Known spreading laws -----------------------------------------------------

TEST(SyncLaws, CompleteGraphIsLogarithmic) {
  // Push-pull on K_n completes in ~ log3(n) + O(log log n) rounds; verify
  // the scale at two sizes.
  sim::TrialConfig config;
  config.trials = 60;
  config.seed = 6;
  const auto small = sim::measure_sync(graph::complete(64), 0, Mode::kPushPull, config);
  const auto large = sim::measure_sync(graph::complete(512), 0, Mode::kPushPull, config);
  EXPECT_LT(small.mean(), 12.0);
  EXPECT_LT(large.mean(), 16.0);
  EXPECT_GT(large.mean(), small.mean());
  EXPECT_LT(large.mean() - small.mean(), 6.0);  // +3 levels of log3
}

TEST(SyncLaws, PathIsLinear) {
  sim::TrialConfig config;
  config.trials = 40;
  config.seed = 7;
  const auto t128 = sim::measure_sync(graph::path(128), 0, Mode::kPushPull, config);
  const auto t256 = sim::measure_sync(graph::path(256), 0, Mode::kPushPull, config);
  EXPECT_NEAR(t256.mean() / t128.mean(), 2.0, 0.25);
}

TEST(SyncLaws, PushPullNeverSlowerThanPushOnStar) {
  sim::TrialConfig config;
  config.trials = 60;
  config.seed = 8;
  const auto g = graph::star(64);
  const auto push = sim::measure_sync(g, 1, Mode::kPush, config);
  const auto pp = sim::measure_sync(g, 1, Mode::kPushPull, config);
  EXPECT_LT(pp.mean(), push.mean() / 10.0);  // 2 vs ~ n ln n
}

TEST(SyncLaws, HypercubeScalesWithDimension) {
  sim::TrialConfig config;
  config.trials = 60;
  config.seed = 9;
  const auto d8 = sim::measure_sync(graph::hypercube(8), 0, Mode::kPushPull, config);
  const auto d10 = sim::measure_sync(graph::hypercube(10), 0, Mode::kPushPull, config);
  EXPECT_GT(d10.mean(), d8.mean());
  EXPECT_LT(d10.mean(), d8.mean() + 6.0);
}
