// Tests for informing forests recorded by the engines themselves (a forest
// attached to a SpreadProbe): structural validity (informer adjacent and
// informed strictly earlier, roots exactly the sources, path length <= the
// informing round), non-perturbation (recording changes no result and no
// engine state), and path-length facts the proofs rely on (star depth <= 2,
// path depth = distance, depth >= BFS distance). SyncForest runs the round
// engines — run_sync on all three scan kinds (static CSR, regular stride,
// dynamics view), run_sync_reference, quasirandom — and AsyncForest the
// timed ones: run_async in all three clock views and discretized slices.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/async.hpp"
#include "core/async_discretized.hpp"
#include "core/informing_forest.hpp"
#include "core/quasirandom.hpp"
#include "core/sync.hpp"
#include "dynamics/churn.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "rng/rng.hpp"

using namespace rumor;
using core::Mode;

namespace {

/// One execution in engine-neutral shape: inform stamps as doubles (rounds
/// or times; never-informed = infinity), plus the final engine state.
struct Execution {
  std::vector<double> stamp;
  bool completed = false;
  std::uint64_t rounds = 0;  // round engines only
  std::array<std::uint64_t, 4> state{};
};

struct Settings {
  Mode mode = Mode::kPushPull;
  double loss = 0.0;
  std::vector<graph::NodeId> extra_sources;
};

/// Runs an engine once from `source`; `probe` may be null.
using RunFn = std::function<Execution(const graph::Graph&, graph::NodeId source, std::uint64_t seed,
                                const Settings&, core::SpreadProbe* probe)>;

struct EngineCase {
  std::string name;
  bool multi_source;  // honors extra_sources
  RunFn run;
};

template <class Options>
Options options_for(const Settings& s, core::SpreadProbe* probe) {
  Options opts;
  opts.mode = s.mode;
  opts.message_loss = s.loss;
  opts.extra_sources = s.extra_sources;
  opts.probe = probe;
  return opts;
}

Execution from_rounds(const core::SyncResult& r, const rng::Engine& eng) {
  Execution out;
  for (const std::uint64_t round : r.informed_round) {
    out.stamp.push_back(round == core::kNeverRound ? core::kNeverTime
                                                   : static_cast<double>(round));
  }
  out.completed = r.completed;
  out.rounds = r.rounds;
  out.state = eng.state();
  return out;
}

Execution from_times(const core::AsyncResult& r, const rng::Engine& eng) {
  return Execution{r.informed_time, r.completed, 0, eng.state()};
}

/// run_sync / run_sync_reference; `churned` routes contacts through a
/// Markov-churn view (the kView scan), whose edges are a subset of g's.
RunFn sync_engine(bool reference, bool churned) {
  return [=](const graph::Graph& g, graph::NodeId source, std::uint64_t seed,
             const Settings& s, core::SpreadProbe* probe) {
    auto eng = rng::derive_stream(seed, 0);
    auto opts = options_for<core::SyncOptions>(s, probe);
    std::optional<dynamics::DynamicGraphView> view;
    if (churned) {
      dynamics::DynamicsSpec spec;
      spec.churn = {dynamics::ChurnModel::kMarkov, 0.5, 0.1, 0.0, 1};
      spec.seed = seed;
      opts.dynamics = &view.emplace(g, spec, nullptr, seed, 0);
    }
    const auto r = reference ? core::run_sync_reference(g, source, eng, opts)
                             : core::run_sync(g, source, eng, opts);
    return from_rounds(r, eng);
  };
}

RunFn quasirandom_engine() {
  return [](const graph::Graph& g, graph::NodeId source, std::uint64_t seed, const Settings& s,
            core::SpreadProbe* probe) {
    auto eng = rng::derive_stream(seed, 0);
    return from_rounds(
        core::run_quasirandom(g, source, eng, options_for<core::QuasirandomOptions>(s, probe)),
        eng);
  };
}

RunFn async_engine(core::AsyncView view) {
  return [=](const graph::Graph& g, graph::NodeId source, std::uint64_t seed, const Settings& s,
             core::SpreadProbe* probe) {
    auto eng = rng::derive_stream(seed, 0);
    auto opts = options_for<core::AsyncOptions>(s, probe);
    opts.view = view;
    return from_times(core::run_async(g, source, eng, opts), eng);
  };
}

RunFn discretized_engine() {
  return [](const graph::Graph& g, graph::NodeId source, std::uint64_t seed, const Settings& s,
            core::SpreadProbe* probe) {
    auto eng = rng::derive_stream(seed, 0);
    return from_times(core::run_async_discretized(
                          g, source, eng, options_for<core::DiscretizedOptions>(s, probe)),
                      eng);
  };
}

/// The round engines. Which of the fast path's scans runs follows the
/// graph: regular graphs take the stride scan, irregular ones the CSR scan.
std::vector<EngineCase> round_engines() {
  return {{"sync", true, sync_engine(false, false)},
          {"sync/view", true, sync_engine(false, true)},
          {"sync_reference", true, sync_engine(true, false)},
          {"quasirandom", false, quasirandom_engine()}};
}

std::vector<EngineCase> timed_engines() {
  return {{"async/global", true, async_engine(core::AsyncView::kGlobalClock)},
          {"async/per-node", true, async_engine(core::AsyncView::kPerNodeClocks)},
          {"async/per-edge", true, async_engine(core::AsyncView::kPerEdgeClocks)},
          {"discretized", false, discretized_engine()}};
}

std::vector<EngineCase> all_engines() {
  auto engines = round_engines();
  for (auto& e : timed_engines()) engines.push_back(std::move(e));
  return engines;
}

struct Recorded {
  Execution run;
  core::InformingForest forest;
};

Recorded record(const EngineCase& engine, const graph::Graph& g, graph::NodeId source,
                std::uint64_t seed, const Settings& s = {}) {
  Recorded out;
  core::SpreadProbe probe;
  out.forest.attach(probe, g.num_nodes());
  out.run = engine.run(g, source, seed, s, &probe);
  return out;
}

/// Every informed non-root has an adjacent informer stamped strictly
/// earlier; the roots are exactly the nodes stamped 0 (the sources); nodes
/// never informed have no informer; on round engines each hop costs at
/// least one round, so path length <= the informing round.
void expect_valid_forest(const graph::Graph& g, const Recorded& rec, bool rounds,
                         const std::string& label) {
  const auto& stamp = rec.run.stamp;
  const auto& parent = rec.forest.parent;
  ASSERT_EQ(parent.size(), g.num_nodes()) << label;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (stamp[v] == 0.0 || stamp[v] == core::kNeverTime) {
      EXPECT_EQ(parent[v], core::kNoParent) << label << " node " << v;
      continue;
    }
    const graph::NodeId p = parent[v];
    ASSERT_NE(p, core::kNoParent) << label << ": node " << v << " informed without informer";
    EXPECT_TRUE(g.has_edge(v, p)) << label << ": informer not adjacent to " << v;
    EXPECT_LT(stamp[p], stamp[v]) << label << ": informer of " << v << " not earlier";
    if (rounds) {
      EXPECT_LE(static_cast<double>(rec.forest.path_length(v)), stamp[v]) << label;
    }
  }
}

std::vector<graph::Graph> canonical_graphs() {
  return {graph::hypercube(6), graph::star(64), graph::cycle(48), graph::complete(32),
          graph::bundle_chain(4, 9)};
}

}  // namespace

TEST(SyncForest, ValidOnCanonicalGraphs) {
  for (const auto& engine : round_engines()) {
    for (const auto& g : canonical_graphs()) {
      const auto rec = record(engine, g, 0, 1200);
      const std::string label = engine.name + "/" + g.name();
      ASSERT_TRUE(rec.run.completed) << label;
      expect_valid_forest(g, rec, true, label);
    }
  }
}

TEST(SyncForest, MatchesPlainEngineGivenSameSeed) {
  // Recording the forest changes neither the result nor the randomness
  // consumed; the fast path and the reference record identical forests.
  for (const auto& g : {graph::torus(8), graph::star(40)}) {
    for (const auto& engine : round_engines()) {
      const Execution plain = engine.run(g, 0, 1201, {}, nullptr);
      const auto rec = record(engine, g, 0, 1201);
      const std::string label = engine.name + "/" + g.name();
      EXPECT_EQ(plain.stamp, rec.run.stamp) << label;
      EXPECT_EQ(plain.rounds, rec.run.rounds) << label;
      EXPECT_EQ(plain.state, rec.run.state) << label;
    }
    const EngineCase fast{"sync", true, sync_engine(false, false)};
    const EngineCase ref{"sync_reference", true, sync_engine(true, false)};
    EXPECT_EQ(record(fast, g, 0, 1201).forest.parent, record(ref, g, 0, 1201).forest.parent)
        << g.name();
  }
}

TEST(SyncForest, RespectsModesAndLoss) {
  const auto g = graph::hypercube(6);
  for (const auto& engine : round_engines()) {
    for (Mode mode : {Mode::kPush, Mode::kPull, Mode::kPushPull}) {
      Settings s;
      s.mode = mode;
      s.loss = 0.2;
      const auto rec = record(engine, g, 0, 1202 + static_cast<std::uint64_t>(mode), s);
      const std::string label = engine.name + "/" + core::mode_name(mode);
      ASSERT_TRUE(rec.run.completed) << label;
      expect_valid_forest(g, rec, true, label);
    }
  }
}

TEST(SyncForest, StarDepthIsAtMostTwo) {
  // Informing paths on the star: leaf -> hub -> leaves; depth <= 2.
  const auto g = graph::star(128);
  for (const auto& engine : all_engines()) {
    for (std::uint64_t i = 0; i < 20; ++i) {
      const auto rec = record(engine, g, 1, 1203 + 16 * i);
      ASSERT_TRUE(rec.run.completed) << engine.name;
      EXPECT_LE(rec.forest.depth(), 2u) << engine.name;
    }
  }
}

TEST(SyncForest, PathDepthIsExactlyDistance) {
  // On a path from node 0 there is a single informing route.
  const auto g = graph::path(32);
  for (const auto& engine : all_engines()) {
    const auto rec = record(engine, g, 0, 1204);
    ASSERT_TRUE(rec.run.completed) << engine.name;
    for (graph::NodeId v = 0; v < 32; ++v) {
      EXPECT_EQ(rec.forest.path_length(v), v) << engine.name;
    }
  }
}

TEST(SyncForest, DepthBoundedByEccentricityPlusSlack) {
  // Informing paths are real paths: depth >= BFS distance of the deepest
  // node, and each hop costs a round, so depth <= rounds.
  const auto g = graph::hypercube(7);
  for (const auto& engine : round_engines()) {
    const auto rec = record(engine, g, 0, 1205);
    ASSERT_TRUE(rec.run.completed) << engine.name;
    EXPECT_GE(rec.forest.depth(), graph::eccentricity(g, 0)) << engine.name;
    EXPECT_LE(rec.forest.depth(), rec.run.rounds) << engine.name;
  }
}

TEST(AsyncForest, ValidStructure) {
  for (const auto& engine : timed_engines()) {
    for (const auto& g : canonical_graphs()) {
      for (double loss : {0.0, 0.25}) {
        Settings s;
        s.loss = loss;
        const auto rec = record(engine, g, 0, 1206, s);
        const std::string label = engine.name + "/" + g.name();
        ASSERT_TRUE(rec.run.completed) << label;
        expect_valid_forest(g, rec, false, label);
      }
    }
  }
}

TEST(AsyncForest, MatchesPlainEngineGivenSameSeed) {
  const auto g = graph::cycle(64);
  for (const auto& engine : timed_engines()) {
    const Execution plain = engine.run(g, 0, 1207, {}, nullptr);
    const auto rec = record(engine, g, 0, 1207);
    EXPECT_EQ(plain.stamp, rec.run.stamp) << engine.name;
    EXPECT_EQ(plain.state, rec.run.state) << engine.name;
  }
}

TEST(AsyncForest, MultiSourceForestHasMultipleRoots) {
  const auto g = graph::path(64);
  Settings s;
  s.extra_sources = {63};
  for (const auto& engine : all_engines()) {
    if (!engine.multi_source) continue;
    const auto rec = record(engine, g, 0, 1208, s);
    ASSERT_TRUE(rec.run.completed) << engine.name;
    expect_valid_forest(g, rec, false, engine.name);
    EXPECT_EQ(rec.forest.parent[0], core::kNoParent) << engine.name;
    EXPECT_EQ(rec.forest.parent[63], core::kNoParent) << engine.name;
    // Every other node descends from one of the two roots.
    for (graph::NodeId v = 1; v < 63; ++v) {
      graph::NodeId root = v;
      while (rec.forest.parent[root] != core::kNoParent) root = rec.forest.parent[root];
      EXPECT_TRUE(root == 0 || root == 63) << engine.name << " node " << v << " root " << root;
    }
  }
}

TEST(AsyncForest, DepthNeverBelowBfsDistance) {
  const auto g = graph::torus(8);
  const auto dist = graph::bfs_distances(g, 0);
  for (const auto& engine : all_engines()) {
    const auto rec = record(engine, g, 0, 1209);
    ASSERT_TRUE(rec.run.completed) << engine.name;
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_GE(rec.forest.path_length(v), dist[v]) << engine.name;
    }
  }
}
