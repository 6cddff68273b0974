// Acceptance tests for the fast engine cores (PR 5): the word-packed
// InformedSet sync engine and the calendar EventQueue per-edge async view
// must be *bit-identical* to the retained reference engines — same results,
// same randomness consumption (verified through the engine state), across
// graph families, seeds, modes, loss, multi-source, and dynamics overlays —
// and the campaign contract (summaries identical at threads 1/2/8) must
// hold on the new cores. Plus unit tests for the two containers themselves,
// including the FIFO tie rule no real workload can reach.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <queue>
#include <utility>
#include <vector>

#include "core/async.hpp"
#include "core/event_queue.hpp"
#include "core/informed_set.hpp"
#include "core/informing_forest.hpp"
#include "core/sync.hpp"
#include "core/trajectory.hpp"
#include "dynamics/alias.hpp"
#include "dynamics/churn.hpp"
#include "dynamics/weights.hpp"
#include "graph/generators.hpp"
#include "rng/rng.hpp"
#include "sim/campaign.hpp"

using namespace rumor;
using core::Mode;

namespace {

std::vector<graph::Graph> fastpath_families() {
  auto gen = rng::derive_stream(99, 0);
  std::vector<graph::Graph> graphs;
  graphs.push_back(graph::complete(48));
  graphs.push_back(graph::star(65));          // irregular, hub-dominated
  graphs.push_back(graph::path(70));          // long diameter: many rounds
  graphs.push_back(graph::cycle(64));         // regular, degree 2
  graphs.push_back(graph::hypercube(6));      // regular: the stride fast path
  graphs.push_back(graph::torus(8));          // regular
  graphs.push_back(graph::random_regular(96, 5, gen));
  graphs.push_back(graph::erdos_renyi(128, 0.06, gen));
  graphs.push_back(graph::preferential_attachment(128, 3, gen));
  return graphs;
}

/// Full bit-for-bit comparison of two sync results.
void expect_sync_equal(const core::SyncResult& a, const core::SyncResult& b,
                       const std::string& label) {
  EXPECT_EQ(a.rounds, b.rounds) << label;
  EXPECT_EQ(a.completed, b.completed) << label;
  EXPECT_EQ(a.informed_round, b.informed_round) << label;
}

/// Full bit-for-bit comparison of two async results (double == is exact).
void expect_async_equal(const core::AsyncResult& a, const core::AsyncResult& b,
                        const std::string& label) {
  EXPECT_EQ(a.steps, b.steps) << label;
  EXPECT_EQ(a.completed, b.completed) << label;
  EXPECT_EQ(a.time, b.time) << label;
  EXPECT_EQ(a.informed_time, b.informed_time) << label;
}

}  // namespace

// --- InformedSet -------------------------------------------------------------

TEST(InformedSet, TestSetResetAcrossWordBoundaries) {
  core::InformedSet s(130);
  for (graph::NodeId v : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 129u}) {
    EXPECT_FALSE(s.test(v)) << v;
    EXPECT_TRUE(s.test_and_set(v)) << v;
    EXPECT_TRUE(s.test(v)) << v;
    EXPECT_FALSE(s.test_and_set(v)) << v;  // second set reports not-new
  }
  EXPECT_EQ(s.count(), 8u);
  s.reset(64);
  EXPECT_FALSE(s.test(64));
  EXPECT_EQ(s.count(), 7u);
  s.clear();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.size(), 130u);
}

TEST(InformedSet, ForEachVisitsSetBitsAscending) {
  core::InformedSet s(200);
  const std::vector<graph::NodeId> members = {0, 3, 63, 64, 100, 128, 199};
  for (graph::NodeId v : members) s.set(v);
  std::vector<graph::NodeId> seen;
  s.for_each([&](graph::NodeId v) { seen.push_back(v); });
  EXPECT_EQ(seen, members);
}

TEST(InformedSet, AbsorbDrainReportsExactlyTheNewBitsAndEmptiesPending) {
  core::InformedSet informed(130);
  core::InformedSet pending(130);
  informed.set(5);
  informed.set(64);
  pending.set(5);    // overlap: must be skipped but still drained
  pending.set(63);
  pending.set(64);   // overlap
  pending.set(129);
  std::vector<graph::NodeId> fresh;
  const graph::NodeId added = informed.absorb_drain(pending, [&](graph::NodeId v) {
    fresh.push_back(v);
  });
  EXPECT_EQ(added, 2u);
  EXPECT_EQ(fresh, (std::vector<graph::NodeId>{63, 129}));
  EXPECT_EQ(pending.count(), 0u);
  EXPECT_EQ(informed.count(), 4u);
  for (graph::NodeId v : {5u, 63u, 64u, 129u}) EXPECT_TRUE(informed.test(v)) << v;
}

TEST(InformedSet, SubsetCheckIsExact) {
  core::InformedSet a(100);
  core::InformedSet b(100);
  EXPECT_TRUE(a.is_subset_of(b));  // empty subset of empty
  a.set(10);
  a.set(99);
  EXPECT_FALSE(a.is_subset_of(b));
  b.set(10);
  b.set(99);
  b.set(50);
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
}

// --- EventQueue --------------------------------------------------------------

TEST(EventQueue, DrainsInTimestampOrderAgainstAHeap) {
  // Random interleaved push/pop workload; the oracle is a binary heap over
  // (t, seq) — the documented total order.
  auto eng = rng::derive_stream(7, 1);
  core::EventQueue queue(64.0, 64);
  using Ref = std::pair<double, std::uint64_t>;  // (t, seq==payload)
  std::priority_queue<Ref, std::vector<Ref>, std::greater<>> ref;
  std::uint64_t seq = 0;
  double now = 0.0;
  for (int round = 0; round < 5000; ++round) {
    if (ref.empty() || rng::bernoulli(eng, 0.55)) {
      const double t = now + rng::exponential(eng, 4.0);
      queue.push(t, seq);
      ref.emplace(t, seq);
      ++seq;
    } else {
      const auto ev = queue.pop_min();
      ASSERT_EQ(ev.t, ref.top().first);
      ASSERT_EQ(ev.payload, ref.top().second);
      now = ev.t;
      ref.pop();
    }
  }
  EXPECT_EQ(queue.size(), ref.size());
}

TEST(EventQueue, ExactTiesPopFifo) {
  core::EventQueue queue(8.0, 16);
  queue.push(2.0, 100);
  queue.push(1.0, 200);
  queue.push(1.0, 201);  // exact tie with the previous push
  queue.push(1.0, 202);
  EXPECT_EQ(queue.pop_min().payload, 200u);
  EXPECT_EQ(queue.pop_min().payload, 201u);
  queue.push(1.0, 203);  // tie pushed after the cursor entered the bucket
  EXPECT_EQ(queue.pop_min().payload, 202u);
  EXPECT_EQ(queue.pop_min().payload, 203u);
  EXPECT_EQ(queue.pop_min().payload, 100u);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, FarFutureEventsSurviveLazyRefinement) {
  // Events far past the window land in the overflow and must come back in
  // order once the cursor gets there (one window advance per cluster).
  core::EventQueue queue(4.0, 64);  // narrow window on purpose
  std::vector<double> times;
  auto eng = rng::derive_stream(8, 2);
  for (std::uint64_t i = 0; i < 400; ++i) {
    const double t = rng::uniform01(eng) * 5000.0;  // huge horizon
    times.push_back(t);
    queue.push(t, i);
  }
  std::sort(times.begin(), times.end());
  for (double expected : times) {
    ASSERT_FALSE(queue.empty());
    EXPECT_EQ(queue.pop_min().t, expected);
  }
  EXPECT_GT(queue.refinements(), 0u);
}

TEST(EventQueue, HoldPatternKeepsSizeConstant) {
  auto eng = rng::derive_stream(9, 3);
  core::EventQueue queue(256.0, 256);
  for (std::uint64_t c = 0; c < 256; ++c) queue.push(rng::exponential(eng, 1.0), c);
  double last = 0.0;
  for (int step = 0; step < 20000; ++step) {
    const auto ev = queue.pop_min();
    ASSERT_GE(ev.t, last);
    last = ev.t;
    queue.push(ev.t + rng::exponential(eng, 1.0), ev.payload);
  }
  EXPECT_EQ(queue.size(), 256u);
}

// --- Sync fast path vs the retained reference --------------------------------

TEST(FastpathSync, BitIdenticalAcrossFamiliesSeedsAndModes) {
  for (const auto& g : fastpath_families()) {
    for (Mode mode : {Mode::kPush, Mode::kPull, Mode::kPushPull}) {
      for (std::uint64_t seed = 0; seed < 4; ++seed) {
        auto eng_fast = rng::derive_stream(515, seed);
        auto eng_ref = eng_fast;
        core::SyncOptions opts;
        opts.mode = mode;
        const auto fast = core::run_sync(g, 0, eng_fast, opts);
        const auto ref = core::run_sync_reference(g, 0, eng_ref, opts);
        const std::string label =
            g.name() + "/" + core::mode_name(mode) + "/seed" + std::to_string(seed);
        expect_sync_equal(fast, ref, label);
        // Equal state after the run == both consumed the same draws.
        EXPECT_EQ(eng_fast.state(), eng_ref.state()) << label;
      }
    }
  }
}

TEST(FastpathSync, BitIdenticalWithLossMultiSourceAndCaps) {
  auto gen = rng::derive_stream(99, 7);
  const auto g = graph::erdos_renyi(150, 0.05, gen);
  for (double loss : {0.0, 0.3}) {
    for (std::uint64_t cap : {std::uint64_t{0}, std::uint64_t{3}}) {
      auto eng_fast = rng::derive_stream(616, cap);
      auto eng_ref = eng_fast;
      core::SyncOptions opts;
      opts.mode = Mode::kPushPull;
      opts.message_loss = loss;
      opts.max_ticks = cap;
      opts.extra_sources = {5, 9, 5};  // duplicate on purpose
      const auto fast = core::run_sync(g, 0, eng_fast, opts);
      const auto ref = core::run_sync_reference(g, 0, eng_ref, opts);
      expect_sync_equal(fast, ref, "loss=" + std::to_string(loss));
      EXPECT_EQ(eng_fast.state(), eng_ref.state());
    }
  }
}

TEST(FastpathSync, BitIdenticalOnChurnedAndWeightedOverlays) {
  const auto g = graph::hypercube(6);

  // Churn (Markov + rewire) with and without weights: each run gets its own
  // identically-seeded view, as campaign trials do.
  dynamics::DynamicsSpec markov;
  markov.churn = {dynamics::ChurnModel::kMarkov, 0.2, 0.2, 0.0, 2};
  markov.seed = 11;
  dynamics::DynamicsSpec rewire_weighted;
  rewire_weighted.churn.model = dynamics::ChurnModel::kRewire;
  rewire_weighted.churn.rewire = 0.3;
  rewire_weighted.weights.model = dynamics::WeightModel::kHeavyTailed;
  rewire_weighted.weights.alpha = 1.5;
  rewire_weighted.seed = 12;

  for (const dynamics::DynamicsSpec& spec : {markov, rewire_weighted}) {
    for (std::uint64_t trial = 0; trial < 3; ++trial) {
      auto eng_fast = rng::derive_stream(717, trial);
      auto eng_ref = eng_fast;
      dynamics::DynamicGraphView view_fast(g, spec, nullptr, 717, trial);
      dynamics::DynamicGraphView view_ref(g, spec, nullptr, 717, trial);
      core::SyncOptions opts;
      opts.mode = Mode::kPushPull;
      opts.dynamics = &view_fast;
      const auto fast = core::run_sync(g, 0, eng_fast, opts);
      opts.dynamics = &view_ref;
      const auto ref = core::run_sync_reference(g, 0, eng_ref, opts);
      expect_sync_equal(fast, ref, churn_model_name(spec.churn.model));
      EXPECT_EQ(eng_fast.state(), eng_ref.state());
    }
  }

  // Static weighted contacts (the shared-alias-table fast path).
  dynamics::DynamicsSpec weighted;
  weighted.weights.model = dynamics::WeightModel::kDegree;
  weighted.seed = 13;
  dynamics::NeighborAliasTable sampler;
  sampler.build(dynamics::csr_offsets(g),
                dynamics::make_edge_weights(g, weighted.weights, weighted.seed));
  for (std::uint64_t trial = 0; trial < 3; ++trial) {
    auto eng_fast = rng::derive_stream(718, trial);
    auto eng_ref = eng_fast;
    dynamics::DynamicGraphView view_fast(g, weighted, &sampler, 718, trial);
    dynamics::DynamicGraphView view_ref(g, weighted, &sampler, 718, trial);
    core::SyncOptions opts;
    opts.dynamics = &view_fast;
    const auto fast = core::run_sync(g, 0, eng_fast, opts);
    opts.dynamics = &view_ref;
    const auto ref = core::run_sync_reference(g, 0, eng_ref, opts);
    expect_sync_equal(fast, ref, "static-weighted");
    EXPECT_EQ(eng_fast.state(), eng_ref.state());
  }
}

// --- Spread probes & the derived informed-count history ----------------------

namespace {

void expect_probe_equal(const core::SpreadProbe& a, const core::SpreadProbe& b,
                        const std::string& label) {
  EXPECT_EQ(a.contacts, b.contacts) << label;
  EXPECT_EQ(a.useful_push, b.useful_push) << label;
  EXPECT_EQ(a.useful_pull, b.useful_pull) << label;
  EXPECT_EQ(a.wasted_push, b.wasted_push) << label;
  EXPECT_EQ(a.wasted_pull, b.wasted_pull) << label;
  EXPECT_EQ(a.empty_contacts, b.empty_contacts) << label;
}

}  // namespace

TEST(FastpathSync, ProbeNeverPerturbsTheRunAndMatchesReferenceCounters) {
  for (const auto& g : fastpath_families()) {
    for (Mode mode : {Mode::kPush, Mode::kPull, Mode::kPushPull}) {
      auto eng_plain = rng::derive_stream(818, 0);
      auto eng_probed = eng_plain;
      auto eng_ref = eng_plain;
      core::SyncOptions opts;
      opts.mode = mode;
      const auto plain = core::run_sync(g, 0, eng_plain, opts);

      // Both probes record informers too: the forest rides the same branch.
      core::SpreadProbe fast_probe;
      core::InformingForest fast_forest;
      fast_forest.attach(fast_probe, g.num_nodes());
      opts.probe = &fast_probe;
      const auto probed = core::run_sync(g, 0, eng_probed, opts);

      core::SpreadProbe ref_probe;
      core::InformingForest ref_forest;
      ref_forest.attach(ref_probe, g.num_nodes());
      opts.probe = &ref_probe;
      const auto ref = core::run_sync_reference(g, 0, eng_ref, opts);

      const std::string label = g.name() + "/" + core::mode_name(mode);
      // Attaching a probe changes neither the result nor the RNG stream.
      expect_sync_equal(probed, plain, label);
      EXPECT_EQ(eng_probed.state(), eng_plain.state()) << label;
      // The fast path's windowed classification matches the reference's,
      // down to which contact informed each node.
      expect_probe_equal(fast_probe, ref_probe, label);
      EXPECT_EQ(fast_forest.parent, ref_forest.parent) << label;
      // Conservation: "useful" is first-to-reach, so useful transmissions
      // count informed non-sources exactly.
      EXPECT_EQ(fast_probe.useful(), static_cast<std::uint64_t>(g.num_nodes()) - 1) << label;
      // One-directional modes carry at most one transmission per contact;
      // push-pull contacts can carry one in each direction.
      const std::uint64_t classified =
          fast_probe.useful() + fast_probe.wasted() + fast_probe.empty_contacts;
      if (mode == Mode::kPushPull) {
        EXPECT_GE(classified, fast_probe.contacts) << label;
      } else {
        EXPECT_EQ(classified, fast_probe.contacts) << label;
      }
    }
  }
}

TEST(FastpathSync, ForestMatchesReferenceUnderLossSourcesAndChurn) {
  // The informer tie-break (first transmission of the round in scan order)
  // is the same in both engines on every scan kind: static CSR, regular
  // stride, and the dynamics view — here with loss and duplicate sources.
  auto gen = rng::derive_stream(99, 8);
  dynamics::DynamicsSpec markov;
  markov.churn = {dynamics::ChurnModel::kMarkov, 0.3, 0.1, 0.0, 2};
  markov.seed = 14;
  for (const auto& g : {graph::erdos_renyi(150, 0.05, gen), graph::hypercube(7)}) {
    for (const bool churned : {false, true}) {
      std::vector<graph::NodeId> parents[2];
      std::array<std::uint64_t, 4> states[2];
      for (const bool reference : {false, true}) {
        auto eng = rng::derive_stream(919, churned ? 1 : 0);
        dynamics::DynamicGraphView view(g, markov, nullptr, 919, 0);
        core::SpreadProbe probe;
        core::InformingForest forest;
        forest.attach(probe, g.num_nodes());
        core::SyncOptions opts;
        opts.message_loss = 0.2;
        opts.extra_sources = {5, 9, 5};
        opts.probe = &probe;
        if (churned) opts.dynamics = &view;
        (void)(reference ? core::run_sync_reference(g, 0, eng, opts)
                         : core::run_sync(g, 0, eng, opts));
        parents[reference ? 1 : 0] = forest.parent;
        states[reference ? 1 : 0] = eng.state();
      }
      const std::string label = g.name() + (churned ? "/churn" : "");
      EXPECT_EQ(parents[0], parents[1]) << label;
      EXPECT_EQ(states[0], states[1]) << label;
    }
  }
}

TEST(FastpathAsync, ProbeNeverPerturbsTheRunAndConservationHoldsPerView) {
  auto graph_gen = rng::derive_stream(77, 1);
  const auto g = graph::erdos_renyi(96, 0.07, graph_gen);
  for (const core::AsyncView view : {core::AsyncView::kGlobalClock,
                                     core::AsyncView::kPerNodeClocks,
                                     core::AsyncView::kPerEdgeClocks}) {
    for (double loss : {0.0, 0.25}) {
      auto eng_plain = rng::derive_stream(819, static_cast<std::uint64_t>(view));
      auto eng_probed = eng_plain;
      core::AsyncOptions opts;
      opts.view = view;
      opts.message_loss = loss;
      const auto plain = core::run_async(g, 0, eng_plain, opts);

      core::SpreadProbe probe;
      core::InformingForest forest;
      forest.attach(probe, g.num_nodes());
      opts.probe = &probe;
      auto eng_ref = eng_probed;
      const auto probed = core::run_async(g, 0, eng_probed, opts);

      const std::string label = "view" + std::to_string(static_cast<int>(view)) +
                                "/loss" + std::to_string(loss);
      expect_async_equal(probed, plain, label);
      EXPECT_EQ(eng_probed.state(), eng_plain.state()) << label;
      // The heap-based reference records the identical forest.
      core::SpreadProbe ref_probe;
      core::InformingForest ref_forest;
      ref_forest.attach(ref_probe, g.num_nodes());
      opts.probe = &ref_probe;
      (void)core::run_async_reference(g, 0, eng_ref, opts);
      EXPECT_EQ(forest.parent, ref_forest.parent) << label;
      EXPECT_EQ(probe.contacts, probed.steps) << label;
      ASSERT_TRUE(probed.completed) << label;
      EXPECT_EQ(probe.useful(), static_cast<std::uint64_t>(g.num_nodes()) - 1) << label;
    }
  }
}

TEST(FastpathSync, DerivedRoundCurveCountsSourcesThroughInformed) {
  // Hand-pinned case: on K2 the source informs the other node in round 1
  // regardless of mode or randomness — the curve is exactly {1, 2}.
  {
    const auto g = graph::complete(2);
    auto eng = rng::derive_stream(5, 5);
    const auto r = core::run_sync(g, 0, eng);
    EXPECT_EQ(r.rounds, 1u);
    EXPECT_EQ(core::informed_round_curve(r.informed_round, r.rounds),
              (std::vector<graph::NodeId>{1, 2}));
  }
  // General pinning, including loss, duplicate multi-source, and a round
  // cap that stops mid-spread: the curve derived from first-informed rounds
  // has one entry per round plus round 0, starts at the distinct source
  // count, is monotone, and ends at the informed count.
  auto gen = rng::derive_stream(42, 3);
  const auto g = graph::erdos_renyi(120, 0.05, gen);
  for (const std::uint64_t cap : {std::uint64_t{0}, std::uint64_t{4}}) {
    auto eng = rng::derive_stream(820, cap);
    core::SyncOptions opts;
    opts.message_loss = 0.2;
    opts.extra_sources = {5, 9, 5};  // duplicate on purpose: 3 distinct sources
    opts.max_ticks = cap;
    const auto r = core::run_sync(g, 0, eng, opts);
    const std::string label = "cap" + std::to_string(cap);
    const auto curve = core::informed_round_curve(r.informed_round, r.rounds);
    ASSERT_EQ(curve.size(), static_cast<std::size_t>(r.rounds) + 1) << label;
    EXPECT_EQ(curve.front(), 3u) << label;
    EXPECT_TRUE(std::is_sorted(curve.begin(), curve.end())) << label;
    const auto informed = static_cast<graph::NodeId>(
        std::count_if(r.informed_round.begin(), r.informed_round.end(),
                      [](std::uint64_t round) { return round != core::kNeverRound; }));
    EXPECT_EQ(curve.back(), informed) << label;
    if (cap != 0) {
      EXPECT_FALSE(r.completed) << label;
    }
  }
}

// --- Per-edge async: bucket queue vs the retained heap -----------------------

TEST(FastpathAsync, PerEdgeBucketQueueMatchesHeapBitForBit) {
  for (const auto& g : fastpath_families()) {
    for (Mode mode : {Mode::kPush, Mode::kPushPull}) {
      for (std::uint64_t seed = 0; seed < 3; ++seed) {
        auto eng_fast = rng::derive_stream(818, seed);
        auto eng_ref = eng_fast;
        core::AsyncOptions opts;
        opts.mode = mode;
        opts.view = core::AsyncView::kPerEdgeClocks;
        const auto fast = core::run_async(g, 0, eng_fast, opts);
        const auto ref = core::run_async_reference(g, 0, eng_ref, opts);
        const std::string label =
            g.name() + "/" + core::mode_name(mode) + "/seed" + std::to_string(seed);
        expect_async_equal(fast, ref, label);
        EXPECT_EQ(eng_fast.state(), eng_ref.state()) << label;
      }
    }
  }
}

TEST(FastpathAsync, PerEdgeMatchesHeapUnderLossAndStepCap) {
  const auto g = graph::torus(8);
  core::AsyncOptions opts;
  opts.view = core::AsyncView::kPerEdgeClocks;
  opts.message_loss = 0.25;
  opts.max_ticks = 500;  // far too few: the capped prefix must match too
  auto eng_fast = rng::derive_stream(819, 0);
  auto eng_ref = eng_fast;
  const auto fast = core::run_async(g, 0, eng_fast, opts);
  const auto ref = core::run_async_reference(g, 0, eng_ref, opts);
  expect_async_equal(fast, ref, "loss+cap");
  EXPECT_FALSE(fast.completed);
  EXPECT_EQ(eng_fast.state(), eng_ref.state());
}

// --- Campaign contract on the new cores --------------------------------------

TEST(FastpathCampaign, SummariesBitIdenticalAtThreads128) {
  // Sync, per-edge async, churned sync, and weighted sync cells — the four
  // engine paths this PR touched — must keep the campaign determinism
  // contract: identical summaries at threads 1, 2, and 8.
  auto shared = [](graph::Graph g) {
    return std::make_shared<const graph::Graph>(std::move(g));
  };
  const auto hyper = shared(graph::hypercube(5));

  std::vector<sim::CampaignConfig> cells(4);
  cells[0].id = "sync";
  cells[0].prebuilt = hyper;
  cells[1].id = "per_edge";
  cells[1].prebuilt = hyper;
  cells[1].engine = sim::EngineKind::kAsync;
  cells[1].view = core::AsyncView::kPerEdgeClocks;
  cells[2].id = "churned";
  cells[2].prebuilt = hyper;
  cells[2].dynamics.churn = {dynamics::ChurnModel::kMarkov, 0.1, 0.1, 0.0, 1};
  cells[3].id = "weighted";
  cells[3].prebuilt = hyper;
  cells[3].dynamics.weights.model = dynamics::WeightModel::kHeavyTailed;
  for (auto& cell : cells) {
    cell.trials = 48;
    cell.seed = 21;
    cell.reservoir_capacity = 64;  // retain every trial exactly
  }

  sim::CampaignOptions options;
  options.block_size = 8;
  options.threads = 1;
  const auto t1 = sim::run_campaign(cells, options);
  options.threads = 2;
  const auto t2 = sim::run_campaign(cells, options);
  options.threads = 8;
  const auto t8 = sim::run_campaign(cells, options);

  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (const auto* other : {&t2, &t8}) {
      const auto& a = t1[c].summary;
      const auto& b = (*other)[c].summary;
      EXPECT_EQ(a.mean(), b.mean()) << cells[c].id;
      EXPECT_EQ(a.min(), b.min()) << cells[c].id;
      EXPECT_EQ(a.max(), b.max()) << cells[c].id;
      EXPECT_EQ(a.quantile(0.5), b.quantile(0.5)) << cells[c].id;
      EXPECT_EQ(a.reservoir().entries(), b.reservoir().entries()) << cells[c].id;
    }
  }
}
