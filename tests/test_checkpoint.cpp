// Checkpoint / shard / merge tests for sim/checkpoint.hpp: the snapshot
// layer must extend the campaign determinism contract across interruptions
// (a resumed run is bit-identical to an unbroken one at any thread count),
// partition blocks across shards deterministically, and fold shard
// snapshots back into reports bit-identical to the unsharded run — while
// rejecting every identity mismatch loudly instead of merging garbage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/graph_store.hpp"
#include "sim/campaign.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"

using namespace rumor;

namespace {

std::shared_ptr<const graph::Graph> shared(graph::Graph g) {
  return std::make_shared<const graph::Graph>(std::move(g));
}

/// A compact campaign exercising every block kind the snapshot layer
/// handles: two plain cells, a worst-source race, and a churn cell.
std::vector<sim::CampaignConfig> snapshot_configs() {
  static const auto kHypercube = shared(graph::hypercube(6));
  static const auto kStar = shared(graph::star(96));
  std::vector<sim::CampaignConfig> configs;

  sim::CampaignConfig plain;
  plain.id = "plain_hc";
  plain.prebuilt = kHypercube;
  plain.trials = 24;
  plain.seed = 501;
  configs.push_back(plain);

  sim::CampaignConfig async_cfg;
  async_cfg.id = "plain_star_async";
  async_cfg.prebuilt = kStar;
  async_cfg.engine = sim::EngineKind::kAsync;
  async_cfg.trials = 24;
  async_cfg.seed = 502;
  configs.push_back(async_cfg);

  sim::CampaignConfig race;
  race.id = "race_star";
  race.prebuilt = kStar;
  race.source_policy = sim::SourcePolicy::kRace;
  race.race.screen_trials = 6;
  race.race.finalists = 2;
  race.race.max_candidates = 6;
  race.trials = 16;
  race.seed = 503;
  configs.push_back(race);

  sim::CampaignConfig churn;
  churn.id = "churn_hc";
  churn.prebuilt = kHypercube;
  churn.dynamics.churn.model = dynamics::ChurnModel::kMarkov;
  churn.dynamics.churn.birth = 0.1;
  churn.dynamics.churn.death = 0.1;
  churn.trials = 16;
  churn.seed = 504;
  configs.push_back(churn);

  return configs;
}

sim::CampaignOptions snapshot_options(unsigned threads) {
  sim::CampaignOptions options;
  options.threads = threads;
  options.block_size = 8;
  return options;
}

/// All reported statistics of one result, for exact cross-run comparison.
std::vector<double> result_stats(const sim::CampaignResult& r) {
  const auto& s = r.summary;
  std::vector<double> out = {static_cast<double>(s.count()),
                             s.mean(),
                             s.stddev(),
                             s.min(),
                             s.max(),
                             s.median(),
                             s.quantile(0.95),
                             s.hp_time(r.hp_q)};
  for (const auto& [tag, value] : s.reservoir().entries()) {
    out.push_back(static_cast<double>(tag));
    out.push_back(value);
  }
  return out;
}

void expect_bitwise_equal(const std::vector<sim::CampaignResult>& got,
                          const std::vector<sim::CampaignResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id);
    EXPECT_EQ(got[i].graph_name, want[i].graph_name) << got[i].id;
    EXPECT_EQ(got[i].n, want[i].n) << got[i].id;
    EXPECT_EQ(got[i].trials, want[i].trials) << got[i].id;
    EXPECT_EQ(got[i].source, want[i].source) << got[i].id;
    EXPECT_EQ(got[i].best_source, want[i].best_source) << got[i].id;
    EXPECT_EQ(got[i].best_mean, want[i].best_mean) << got[i].id;
    EXPECT_EQ(result_stats(got[i]), result_stats(want[i])) << got[i].id;
  }
}

/// Expects `fn` to throw std::runtime_error whose message contains `needle`.
template <typename Fn>
void expect_throws_with(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected a runtime_error mentioning '" << needle << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

}  // namespace

// --- The shard partition rule ------------------------------------------------

TEST(CampaignCheckpoint, ShardRuleIsDeterministicAndCoversEveryShard) {
  // Pure function of its arguments.
  for (std::size_t slot = 0; slot < 16; ++slot) {
    EXPECT_EQ(sim::shard_of_block("cfg_a", slot, false, 4),
              sim::shard_of_block("cfg_a", slot, false, 4));
  }
  // whole_config ignores the slot: every block of a race stays together.
  for (std::size_t slot = 1; slot < 16; ++slot) {
    EXPECT_EQ(sim::shard_of_block("cfg_a", slot, true, 4),
              sim::shard_of_block("cfg_a", 0, true, 4));
  }
  // k = 1 owns everything.
  for (std::size_t slot = 0; slot < 16; ++slot) {
    EXPECT_EQ(sim::shard_of_block("cfg_a", slot, false, 1), 0u);
  }
  // Over many (config, slot) pairs every shard gets work and results stay
  // in range — the partition neither clumps onto one shard nor escapes k.
  std::set<std::uint32_t> seen;
  for (int cfg = 0; cfg < 8; ++cfg) {
    for (std::size_t slot = 0; slot < 32; ++slot) {
      const std::uint32_t s = sim::shard_of_block("cfg" + std::to_string(cfg), slot, false, 4);
      ASSERT_LT(s, 4u);
      seen.insert(s);
    }
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(CampaignCheckpoint, FingerprintReflectsEveryResultAffectingParameter) {
  const auto base = snapshot_configs();
  const std::string h = sim::campaign_fingerprint("snap", base);
  EXPECT_EQ(h.size(), 16u);
  EXPECT_EQ(h, sim::campaign_fingerprint("snap", snapshot_configs()));
  EXPECT_NE(h, sim::campaign_fingerprint("other-name", base));

  auto seed = base;
  seed[0].seed += 1;
  EXPECT_NE(h, sim::campaign_fingerprint("snap", seed));
  auto trials = base;
  trials[1].trials += 8;
  EXPECT_NE(h, sim::campaign_fingerprint("snap", trials));
  auto race = base;
  race[2].race.finalists += 1;
  EXPECT_NE(h, sim::campaign_fingerprint("snap", race));
  auto dyn = base;
  dyn[3].dynamics.churn.death = 0.2;
  EXPECT_NE(h, sim::campaign_fingerprint("snap", dyn));
}

// --- Stop / resume bit-identity ----------------------------------------------

TEST(CampaignCheckpoint, StopAndResumeIsBitIdenticalAcrossThreadCounts) {
  const auto configs = snapshot_configs();
  const auto baseline = sim::run_campaign(configs, snapshot_options(1));

  // An unbroken resumable run already matches the plain scheduler.
  const auto unbroken = sim::run_campaign_resumable(configs, snapshot_options(2), "snap");
  ASSERT_TRUE(unbroken.complete);
  expect_bitwise_equal(unbroken.results, baseline);

  for (const std::uint64_t stop_after : {std::uint64_t{1}, std::uint64_t{4}, std::uint64_t{9}}) {
    auto options = snapshot_options(2);
    options.stop_after_blocks = stop_after;
    const auto stopped = sim::run_campaign_resumable(configs, options, "snap");
    ASSERT_FALSE(stopped.complete);
    EXPECT_GE(stopped.blocks_done, stop_after);
    ASSERT_TRUE(stopped.snapshot.is_object());

    for (const unsigned threads : {1u, 2u, 8u}) {
      const auto resumed = sim::run_campaign_resumable(configs, snapshot_options(threads), "snap",
                                                       &stopped.snapshot);
      ASSERT_TRUE(resumed.complete) << "stop_after=" << stop_after << " threads=" << threads;
      expect_bitwise_equal(resumed.results, baseline);
    }
  }
}

TEST(CampaignCheckpoint, ResumingAFinishedSnapshotRestoresResultsVerbatim) {
  const auto configs = snapshot_configs();
  const auto done = sim::run_campaign_resumable(configs, snapshot_options(2), "snap");
  ASSERT_TRUE(done.complete);
  const auto resumed =
      sim::run_campaign_resumable(configs, snapshot_options(4), "snap", &done.snapshot);
  ASSERT_TRUE(resumed.complete);
  expect_bitwise_equal(resumed.results, done.results);
}

TEST(CampaignCheckpoint, CheckpointFileRoundTripsThroughDisk) {
  const auto configs = snapshot_configs();
  const std::string path = testing::TempDir() + "campaign_ck_roundtrip.json";
  std::remove(path.c_str());

  auto options = snapshot_options(2);
  options.checkpoint_file = path;
  options.checkpoint_every = 2;
  options.stop_after_blocks = 5;
  const auto stopped = sim::run_campaign_resumable(configs, options, "snap");
  ASSERT_FALSE(stopped.complete);

  std::ifstream file(path, std::ios::binary);
  ASSERT_TRUE(file.good()) << "checkpoint file missing: " << path;
  std::string text((std::istreambuf_iterator<char>(file)), std::istreambuf_iterator<char>());
  const auto doc = sim::Json::parse(text);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("format")->as_string(), sim::kSnapshotFormat);
  EXPECT_EQ(doc->find("finished")->type(), sim::Json::Type::kBool);
  EXPECT_FALSE(doc->find("finished")->as_bool());

  // No temp litter from the atomic writes.
  const std::string base = std::filesystem::path(path).filename().string();
  for (const auto& entry : std::filesystem::directory_iterator(testing::TempDir())) {
    EXPECT_NE(entry.path().filename().string().rfind(base + ".tmp", 0), 0u)
        << "leftover temp file: " << entry.path();
  }

  const auto resumed = sim::run_campaign_resumable(configs, snapshot_options(2), "snap", &*doc);
  ASSERT_TRUE(resumed.complete);
  expect_bitwise_equal(resumed.results, sim::run_campaign(configs, snapshot_options(1)));
  std::remove(path.c_str());
}

// --- Resume validation -------------------------------------------------------

TEST(CampaignCheckpoint, ResumeRejectsEveryIdentityMismatch) {
  const auto configs = snapshot_configs();
  auto options = snapshot_options(2);
  options.stop_after_blocks = 3;
  const auto stopped = sim::run_campaign_resumable(configs, options, "snap");
  ASSERT_FALSE(stopped.complete);
  const sim::Json& snap = stopped.snapshot;

  auto resume_with = [&](const sim::Json& doc) {
    return [&configs, doc] {
      (void)sim::run_campaign_resumable(configs, snapshot_options(1), "snap", &doc);
    };
  };

  sim::Json wrong_name = snap;
  wrong_name.set("campaign", "other");
  expect_throws_with(resume_with(wrong_name), "campaign");

  sim::Json wrong_hash = snap;
  wrong_hash.set("spec_hash", "0000000000000000");
  expect_throws_with(resume_with(wrong_hash), "spec hash");

  sim::Json wrong_block = snap;
  wrong_block.set("block_size", 16);
  expect_throws_with(resume_with(wrong_block), "block size");

  sim::Json wrong_shard = snap;
  wrong_shard.set("shard_index", 2);
  wrong_shard.set("shard_count", 2);
  expect_throws_with(resume_with(wrong_shard), "shard");

  sim::Json wrong_version = snap;
  wrong_version.set("version", sim::kSnapshotVersion + 1);
  expect_throws_with(resume_with(wrong_version), "version");

  sim::Json wrong_format = snap;
  wrong_format.set("format", "something-else");
  expect_throws_with(resume_with(wrong_format), "format");

  // A changed spec (different seed) under an unmodified snapshot must be
  // caught by the fingerprint even though the shape still matches.
  auto reseeded = configs;
  reseeded[0].seed += 1;
  expect_throws_with(
      [&] { (void)sim::run_campaign_resumable(reseeded, snapshot_options(1), "snap", &snap); },
      "spec hash");
}

TEST(CampaignCheckpoint, RecordedCampaignsRejectDuplicateConfigIds) {
  auto configs = snapshot_configs();
  configs[1].id = configs[0].id;
  expect_throws_with([&] { (void)sim::run_campaign_resumable(configs, snapshot_options(1), "snap"); },
                     configs[0].id);
  // The plain scheduler still accepts them: nothing addresses by id there.
  EXPECT_NO_THROW((void)sim::run_campaign(configs, snapshot_options(2)));
}

// --- Spread telemetry through the snapshot layer -----------------------------

namespace {

/// Two curve-enabled cells (round grid + time grid) small enough to stop
/// mid-run at block granularity.
std::vector<sim::CampaignConfig> curve_snapshot_configs() {
  static const auto kHypercube = shared(graph::hypercube(6));
  static const auto kStar = shared(graph::star(96));
  std::vector<sim::CampaignConfig> configs;

  sim::CampaignConfig sync_cfg;
  sync_cfg.id = "curves_hc_sync";
  sync_cfg.prebuilt = kHypercube;
  sync_cfg.trials = 24;
  sync_cfg.seed = 601;
  sync_cfg.curves.enabled = true;
  sync_cfg.curves.points = 32;
  configs.push_back(sync_cfg);

  sim::CampaignConfig async_cfg;
  async_cfg.id = "curves_star_async";
  async_cfg.prebuilt = kStar;
  async_cfg.engine = sim::EngineKind::kAsync;
  async_cfg.trials = 24;
  async_cfg.seed = 602;
  async_cfg.curves.enabled = true;
  async_cfg.curves.points = 32;
  async_cfg.curves.time_bucket = 0.25;
  configs.push_back(async_cfg);

  return configs;
}

/// The full serialized curve state plus contact totals, for exact
/// cross-run comparison.
std::vector<double> curve_stats(const sim::CampaignResult& r) {
  const auto s = r.curves.state();
  std::vector<double> out = {static_cast<double>(s.trials), static_cast<double>(s.max_len)};
  for (const auto& m : s.moments) {
    out.push_back(static_cast<double>(m.count));
    out.insert(out.end(), {m.mean, m.m2, m.min, m.max});
  }
  for (const auto& sk : s.sketches) {
    out.push_back(static_cast<double>(sk.count));
    for (const auto& level : sk.levels) {
      out.push_back(level.keep_odd ? 1.0 : 0.0);
      out.insert(out.end(), level.items.begin(), level.items.end());
    }
  }
  for (const std::uint64_t v : {r.contacts.contacts, r.contacts.useful_push,
                                r.contacts.useful_pull, r.contacts.wasted_push,
                                r.contacts.wasted_pull, r.contacts.empty_contacts,
                                r.contacts.ticks, r.contacts.informed_total}) {
    out.push_back(static_cast<double>(v));
  }
  return out;
}

}  // namespace

TEST(CampaignCheckpoint, CurvesSurviveStopResumeBitIdentically) {
  const auto configs = curve_snapshot_configs();
  const auto baseline = sim::run_campaign(configs, snapshot_options(1));

  auto options = snapshot_options(2);
  options.stop_after_blocks = 2;
  const auto stopped = sim::run_campaign_resumable(configs, options, "snap");
  ASSERT_FALSE(stopped.complete);

  for (const unsigned threads : {1u, 8u}) {
    const auto resumed = sim::run_campaign_resumable(configs, snapshot_options(threads), "snap",
                                                     &stopped.snapshot);
    ASSERT_TRUE(resumed.complete) << "threads=" << threads;
    expect_bitwise_equal(resumed.results, baseline);
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_EQ(curve_stats(resumed.results[i]), curve_stats(baseline[i]))
          << baseline[i].id << " threads=" << threads;
    }
  }

  // A finished snapshot restores the curves verbatim too.
  const auto done = sim::run_campaign_resumable(configs, snapshot_options(2), "snap");
  ASSERT_TRUE(done.complete);
  const auto restored =
      sim::run_campaign_resumable(configs, snapshot_options(4), "snap", &done.snapshot);
  ASSERT_TRUE(restored.complete);
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(curve_stats(restored.results[i]), curve_stats(baseline[i])) << baseline[i].id;
  }
}

TEST(CampaignShard, CurvesSurviveTwoShardMergeBitIdentically) {
  const auto configs = curve_snapshot_configs();
  const auto baseline = sim::run_campaign(configs, snapshot_options(1));

  std::vector<sim::Json> snapshots;
  for (std::uint32_t i = 1; i <= 2; ++i) {
    auto options = snapshot_options(2);
    options.shard_index = i;
    options.shard_count = 2;
    const auto outcome = sim::run_campaign_resumable(configs, options, "snap");
    ASSERT_TRUE(outcome.complete);
    snapshots.push_back(outcome.snapshot);
  }
  const auto merged = sim::merge_campaign_snapshots(configs, "snap", snapshots);
  expect_bitwise_equal(merged, baseline);
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    ASSERT_TRUE(merged[i].has_curves) << baseline[i].id;
    EXPECT_EQ(curve_stats(merged[i]), curve_stats(baseline[i])) << baseline[i].id;
  }
}

TEST(CampaignCheckpoint, CurveSpecIsPartOfTheSnapshotIdentity) {
  // A snapshot taken without curves must not resume a curve-enabled spec
  // (and vice versa): the fingerprint covers the curve grid.
  auto configs = curve_snapshot_configs();
  configs[0].curves.enabled = false;
  configs[1].curves.enabled = false;
  auto options = snapshot_options(2);
  options.stop_after_blocks = 1;
  const auto stopped = sim::run_campaign_resumable(configs, options, "snap");
  ASSERT_FALSE(stopped.complete);

  const auto curved = curve_snapshot_configs();
  expect_throws_with(
      [&] {
        (void)sim::run_campaign_resumable(curved, snapshot_options(1), "snap", &stopped.snapshot);
      },
      "spec hash");
}

// --- Sharding + merge --------------------------------------------------------

TEST(CampaignShard, ShardsMergeBitIdenticalToUnshardedRunForSeveralK) {
  const auto configs = snapshot_configs();
  const auto baseline = sim::run_campaign(configs, snapshot_options(1));

  for (const std::uint32_t k : {1u, 2u, 4u}) {
    std::vector<sim::Json> snapshots;
    for (std::uint32_t i = 1; i <= k; ++i) {
      auto options = snapshot_options(2);
      options.shard_index = i;
      options.shard_count = k;
      const auto outcome = sim::run_campaign_resumable(configs, options, "snap");
      ASSERT_TRUE(outcome.complete);
      snapshots.push_back(outcome.snapshot);
    }
    const auto merged = sim::merge_campaign_snapshots(configs, "snap", snapshots);
    expect_bitwise_equal(merged, baseline);
  }
}

TEST(CampaignShard, RaceConfigurationsAreOwnedWholesaleByOneShard) {
  const auto configs = snapshot_configs();
  std::vector<sim::Json> snapshots;
  for (std::uint32_t i = 1; i <= 2; ++i) {
    auto options = snapshot_options(2);
    options.shard_index = i;
    options.shard_count = 2;
    const auto outcome = sim::run_campaign_resumable(configs, options, "snap");
    ASSERT_TRUE(outcome.complete);
    snapshots.push_back(outcome.snapshot);
  }
  int done_in = 0;
  for (const sim::Json& snap : snapshots) {
    for (const sim::Json& entry : snap.find("configs")->elements()) {
      if (entry.find("id")->as_string() != "race_star") continue;
      const std::string phase = entry.find("phase")->as_string();
      if (phase == "done") ++done_in;
      else EXPECT_EQ(phase, "pending");
    }
  }
  EXPECT_EQ(done_in, 1);
}

TEST(CampaignShard, MergeRejectsBadShardSets) {
  const auto configs = snapshot_configs();
  std::vector<sim::Json> snapshots;
  for (std::uint32_t i = 1; i <= 2; ++i) {
    auto options = snapshot_options(2);
    options.shard_index = i;
    options.shard_count = 2;
    const auto outcome = sim::run_campaign_resumable(configs, options, "snap");
    ASSERT_TRUE(outcome.complete);
    snapshots.push_back(outcome.snapshot);
  }

  // Missing shard.
  expect_throws_with(
      [&] { (void)sim::merge_campaign_snapshots(configs, "snap", {snapshots[0]}); }, "shard");
  // Duplicate shard.
  expect_throws_with(
      [&] { (void)sim::merge_campaign_snapshots(configs, "snap", {snapshots[0], snapshots[0]}); },
      "shard");
  // Wrong campaign name.
  expect_throws_with(
      [&] { (void)sim::merge_campaign_snapshots(configs, "other", snapshots); }, "campaign");
  // Tampered spec hash.
  {
    auto bad = snapshots;
    bad[1].set("spec_hash", "0000000000000000");
    expect_throws_with([&] { (void)sim::merge_campaign_snapshots(configs, "snap", bad); },
                       "spec hash");
  }
  // Overlap: the same shard's work presented under both indices.
  {
    auto bad = snapshots;
    bad[1] = snapshots[0];
    bad[1].set("shard_index", 2);
    expect_throws_with([&] { (void)sim::merge_campaign_snapshots(configs, "snap", bad); },
                       "both shard");
  }
  // An unfinished shard must be refused outright.
  {
    auto options = snapshot_options(2);
    options.shard_index = 1;
    options.shard_count = 2;
    options.stop_after_blocks = 1;
    const auto stopped = sim::run_campaign_resumable(configs, options, "snap");
    ASSERT_FALSE(stopped.complete);
    expect_throws_with(
        [&] {
          (void)sim::merge_campaign_snapshots(configs, "snap", {stopped.snapshot, snapshots[1]});
        },
        "finished");
  }
}

TEST(CampaignShard, ShardedRunsResumeToo) {
  // A shard stopped mid-way and resumed must produce the same partial
  // snapshot (hence the same merged report) as an unbroken shard run.
  const auto configs = snapshot_configs();
  auto options = snapshot_options(2);
  options.shard_index = 1;
  options.shard_count = 2;
  const auto unbroken = sim::run_campaign_resumable(configs, options, "snap");
  ASSERT_TRUE(unbroken.complete);

  auto stop_options = options;
  stop_options.stop_after_blocks = 2;
  const auto stopped = sim::run_campaign_resumable(configs, stop_options, "snap");
  ASSERT_FALSE(stopped.complete);
  const auto resumed =
      sim::run_campaign_resumable(configs, options, "snap", &stopped.snapshot);
  ASSERT_TRUE(resumed.complete);
  // written_at is a wall-clock stamp (stale-shard diagnostics, advisory
  // only); pin it on both sides so the byte comparison covers the
  // deterministic payload.
  auto pin_written_at = [](sim::Json snapshot) {
    snapshot.set("written_at", 0);
    return snapshot.dump(2);
  };
  EXPECT_EQ(pin_written_at(resumed.snapshot), pin_written_at(unbroken.snapshot));
}

TEST(CampaignCheckpoint, FileGraphsFingerprintByContentNotPath) {
  // A packed store carries its identity in the header checksum, so a
  // campaign fingerprint must survive moving/renaming the file — and must
  // change when the file holds a different graph.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path();
  const fs::path store_a = dir / "rumor_test_fp_a.rgs";
  const fs::path store_a_copy = dir / "rumor_test_fp_a_renamed.rgs";
  const fs::path store_b = dir / "rumor_test_fp_b.rgs";
  {
    sim::GraphSpec spec;
    spec.family = "random_regular";
    spec.n = 60;
    spec.degree = 4;
    spec.graph_seed = 11;
    graph::write_graph_store(sim::build_graph(spec, 1), store_a.string());
    fs::copy_file(store_a, store_a_copy, fs::copy_options::overwrite_existing);
    spec.graph_seed = 12;  // same family and shape, different sampled edges
    graph::write_graph_store(sim::build_graph(spec, 1), store_b.string());
  }
  auto fingerprint_of = [](const fs::path& path) {
    sim::CampaignConfig cfg;
    cfg.id = "cell";
    cfg.graph.family = "file";
    cfg.graph.path = path.string();
    cfg.trials = 8;
    cfg.seed = 3;
    return sim::campaign_fingerprint("snap", {cfg});
  };
  EXPECT_EQ(fingerprint_of(store_a), fingerprint_of(store_a_copy));
  EXPECT_NE(fingerprint_of(store_a), fingerprint_of(store_b));
  for (const fs::path& p : {store_a, store_a_copy, store_b}) fs::remove(p);
}

// --- Per-entry validation of snapshot documents ------------------------------

namespace {

/// `snap` with its configs[c] entry rewritten by `edit`.
template <typename Edit>
sim::Json edit_entry(const sim::Json& snap, std::size_t c, Edit&& edit) {
  sim::Json configs = sim::Json::array();
  const auto& entries = snap.find("configs")->elements();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    sim::Json e = entries[i];
    if (i == c) edit(e);
    configs.push_back(std::move(e));
  }
  sim::Json doc = snap;
  doc.set("configs", std::move(configs));
  return doc;
}

/// Array `arr` with element i rewritten by `edit`.
template <typename Edit>
sim::Json edit_element(const sim::Json& arr, std::size_t i, Edit&& edit) {
  sim::Json out = sim::Json::array();
  for (std::size_t k = 0; k < arr.elements().size(); ++k) {
    sim::Json e = arr.elements()[k];
    if (k == i) edit(e);
    out.push_back(std::move(e));
  }
  return out;
}

/// Object `obj` without `key`.
sim::Json without_key(sim::Json obj, const std::string& key) {
  auto& entries = obj.mutable_entries();
  std::erase_if(entries, [&](const auto& kv) { return kv.first == key; });
  return obj;
}

std::size_t entry_index(const sim::Json& snap, const std::string& id) {
  const auto& entries = snap.find("configs")->elements();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].find("id")->as_string() == id) return i;
  }
  ADD_FAILURE() << "no config '" << id << "' in the snapshot";
  return 0;
}

/// The first single-threaded stop that leaves config `id` in `phase` with
/// a non-empty `cells` array (the recorded blocks of that phase).
sim::Json first_stop_in(const std::vector<sim::CampaignConfig>& configs, const std::string& id,
                        const std::string& phase, const std::string& cells) {
  for (std::uint64_t k = 1; k < 200; ++k) {
    auto options = snapshot_options(1);
    options.stop_after_blocks = k;
    const auto stopped = sim::run_campaign_resumable(configs, options, "snap");
    if (stopped.complete) break;
    const sim::Json& e = stopped.snapshot.find("configs")->elements()[entry_index(
        stopped.snapshot, id)];
    if (e.find("phase")->as_string() == phase && e.find(cells) != nullptr) {
      return stopped.snapshot;
    }
  }
  ADD_FAILURE() << "no stop leaves '" << id << "' in phase " << phase << " with " << cells;
  return {};
}

void expect_resume_rejects(const std::vector<sim::CampaignConfig>& configs, const sim::Json& doc,
                           const std::string& needle) {
  expect_throws_with(
      [&] { (void)sim::run_campaign_resumable(configs, snapshot_options(1), "snap", &doc); },
      needle);
}

}  // namespace

TEST(CampaignCheckpoint, LoadRejectsEveryMalformedTrialsEntry) {
  const auto configs = snapshot_configs();
  const sim::Json snap = first_stop_in(configs, "plain_hc", "trials", "slots");
  ASSERT_TRUE(snap.is_object());
  const std::size_t c = entry_index(snap, "plain_hc");

  expect_resume_rejects(configs, edit_entry(snap, c, [](sim::Json& e) { e.set("phase", "bogus"); }),
                        "unknown phase 'bogus'");
  for (const char* phase : {"screen", "refine"}) {
    expect_resume_rejects(configs, edit_entry(snap, c, [&](sim::Json& e) { e.set("phase", phase); }),
                          std::string("fixed-source configuration cannot be in phase '") + phase +
                              "'");
  }
  expect_resume_rejects(configs, edit_entry(snap, c, [](sim::Json& e) {
                          e.set("slots", edit_element(*e.find("slots"), 0,
                                                      [](sim::Json& s) { s.set("slot", 3); }));
                        }),
                        "slot 3 out of range (config has 3 blocks)");
  expect_resume_rejects(configs, edit_entry(snap, c, [](sim::Json& e) {
                          sim::Json slots = *e.find("slots");
                          slots.push_back(slots.elements()[0]);
                          e.set("slots", std::move(slots));
                        }),
                        "duplicate slot 0");
  // A race never records trial blocks.
  const sim::Json race_snap = first_stop_in(configs, "race_star", "screen", "screen");
  ASSERT_TRUE(race_snap.is_object());
  expect_resume_rejects(configs,
                        edit_entry(race_snap, entry_index(race_snap, "race_star"),
                                   [](sim::Json& e) { e.set("phase", "trials"); }),
                        "race configuration cannot be in phase 'trials'");
}

TEST(CampaignCheckpoint, LoadRejectsEveryMalformedRaceEntry) {
  const auto configs = snapshot_configs();
  struct Pass {
    const char* phase;
    const char* ids;
  };
  for (const Pass pass : {Pass{"screen", "candidates"}, Pass{"refine", "finalists"}}) {
    SCOPED_TRACE(pass.phase);
    const sim::Json snap = first_stop_in(configs, "race_star", pass.phase, pass.phase);
    ASSERT_TRUE(snap.is_object());
    const std::size_t c = entry_index(snap, "race_star");
    const std::string block = std::string(pass.phase) + " block (entrant ";

    expect_resume_rejects(configs, edit_entry(snap, c, [&](sim::Json& e) {
                            e.set(pass.phase, edit_element(*e.find(pass.phase), 0,
                                                           [](sim::Json& s) { s.set("entrant", 9); }));
                          }),
                          block + "9, slot 0) out of range");
    expect_resume_rejects(configs, edit_entry(snap, c, [&](sim::Json& e) {
                            e.set(pass.phase, edit_element(*e.find(pass.phase), 0,
                                                           [](sim::Json& s) { s.set("slot", 7); }));
                          }),
                          block + "0, slot 7) out of range");
    expect_resume_rejects(configs, edit_entry(snap, c, [&](sim::Json& e) {
                            sim::Json cells = *e.find(pass.phase);
                            cells.push_back(cells.elements()[0]);
                            e.set(pass.phase, std::move(cells));
                          }),
                          "duplicate " + block + "0, slot 0)");
    expect_resume_rejects(
        configs, edit_entry(snap, c, [&](sim::Json& e) { e.set(pass.ids, sim::Json::array()); }),
        std::string("'") + pass.ids + "' must be non-empty");
  }
}

TEST(CampaignCheckpoint, LoadRejectsCurvePartialsThatDisagreeWithTheSpec) {
  // Curve partials travel with their slot: present exactly when the spec
  // enables curves, so a resume never drops telemetry that was computed.
  const auto curved = curve_snapshot_configs();
  const sim::Json snap = first_stop_in(curved, "curves_hc_sync", "trials", "slots");
  ASSERT_TRUE(snap.is_object());
  expect_resume_rejects(curved, edit_entry(snap, entry_index(snap, "curves_hc_sync"), [](sim::Json& e) {
                          e.set("slots", edit_element(*e.find("slots"), 0, [](sim::Json& s) {
                                  s = without_key(s, "curves");
                                }));
                        }),
                        "has no curve partial but the spec enables curves");

  const auto plain = snapshot_configs();
  const sim::Json plain_snap = first_stop_in(plain, "plain_hc", "trials", "slots");
  ASSERT_TRUE(plain_snap.is_object());
  const sim::Json curve_partial =
      *snap.find("configs")->elements()[0].find("slots")->elements()[0].find("curves");
  expect_resume_rejects(plain,
                        edit_entry(plain_snap, entry_index(plain_snap, "plain_hc"), [&](sim::Json& e) {
                          e.set("slots", edit_element(*e.find("slots"), 0, [&](sim::Json& s) {
                                  s.set("curves", curve_partial);
                                }));
                        }),
                        "has a curve partial but the spec does not enable curves");
}

TEST(CampaignShard, MergeRejectsRacesLeftMidRaceOrSplitIntoBlocks) {
  const auto configs = snapshot_configs();
  std::vector<sim::Json> snapshots;
  for (std::uint32_t i = 1; i <= 2; ++i) {
    auto options = snapshot_options(2);
    options.shard_index = i;
    options.shard_count = 2;
    const auto outcome = sim::run_campaign_resumable(configs, options, "snap");
    ASSERT_TRUE(outcome.complete);
    snapshots.push_back(outcome.snapshot);
  }
  const std::size_t race = entry_index(snapshots[0], "race_star");
  const std::size_t owner =
      snapshots[0].find("configs")->elements()[race].find("phase")->as_string() == "done" ? 0 : 1;
  const sim::Json screen_entry =
      first_stop_in(configs, "race_star", "screen", "screen").find("configs")->elements()[race];

  auto bad = snapshots;
  bad[owner] = edit_entry(snapshots[owner], race, [&](sim::Json& e) { e = screen_entry; });
  expect_throws_with([&] { (void)sim::merge_campaign_snapshots(configs, "snap", bad); },
                     "left this config mid-race (phase 'screen')");

  // A race is owned wholesale: trial blocks recorded for it are refused.
  const sim::Json trials_entry =
      first_stop_in(configs, "plain_hc", "trials", "slots").find("configs")->elements()[0];
  bad[owner] = edit_entry(snapshots[owner], race, [&](sim::Json& e) {
    e = trials_entry;
    e.set("id", "race_star");
  });
  expect_throws_with([&] { (void)sim::merge_campaign_snapshots(configs, "snap", bad); },
                     "race configuration has trial blocks in shard");
}

// --- Resume validation of restored node ids and header numbers ---------------

TEST(CampaignCheckpoint, ResumeRejectsRestoredEntrantsOutsideTheGraph) {
  // Candidates and finalists come from the document, not from the graph;
  // a node id past n must be refused before any engine indexes with it.
  const auto configs = snapshot_configs();
  struct Pass {
    const char* phase;
    const char* ids;
  };
  for (const Pass pass : {Pass{"screen", "candidates"}, Pass{"refine", "finalists"}}) {
    SCOPED_TRACE(pass.phase);
    const sim::Json snap = first_stop_in(configs, "race_star", pass.phase, pass.phase);
    ASSERT_TRUE(snap.is_object());
    const sim::Json bad = edit_entry(snap, entry_index(snap, "race_star"), [&](sim::Json& e) {
      sim::Json ids = *e.find(pass.ids);
      ids = edit_element(ids, ids.size() - 1, [](sim::Json& v) { v = std::uint64_t{4000000000}; });
      e.set(pass.ids, std::move(ids));
    });
    for (const char* needle : {"checkpoint", "race_star", "4000000000"}) {
      expect_resume_rejects(configs, bad, needle);
    }
  }
}

TEST(CampaignCheckpoint, HeaderRejectsShardNumbersBeyond32Bits) {
  // 4294967298 used to truncate to 2, so a doctored 1/4294967298 header
  // passed for shard 1/2.
  const auto configs = snapshot_configs();
  auto options = snapshot_options(1);
  options.shard_index = 1;
  options.shard_count = 2;
  options.stop_after_blocks = 1;
  const auto stopped = sim::run_campaign_resumable(configs, options, "snap");
  ASSERT_FALSE(stopped.complete);
  options.stop_after_blocks = 0;

  sim::Json bad = stopped.snapshot;
  bad.set("shard_count", std::uint64_t{4294967298});
  expect_throws_with(
      [&] { (void)sim::run_campaign_resumable(configs, options, "snap", &bad); }, "shard_count");
  bad = stopped.snapshot;
  bad.set("shard_index", std::uint64_t{4294967297});
  expect_throws_with(
      [&] { (void)sim::run_campaign_resumable(configs, options, "snap", &bad); }, "shard_index");
  bad = stopped.snapshot;
  bad.set("shard_index", 3);
  expect_throws_with(
      [&] { (void)sim::run_campaign_resumable(configs, options, "snap", &bad); }, "shard_index");
  bad = stopped.snapshot;
  bad.set("shard_count", 0);
  expect_throws_with([&] { (void)sim::merge_campaign_snapshots(configs, "snap", {bad}); },
                     "shard_count");
}

// --- Every resume point ------------------------------------------------------

namespace {

/// One of each pass shape: a plain cell, a curves cell, an 8-lane batch
/// cell, a race (screen + refine over 2 finalists) and a churn cell.
std::vector<sim::CampaignConfig> mixed_configs() {
  static const auto kHypercube = shared(graph::hypercube(5));
  static const auto kStar = shared(graph::star(48));
  std::vector<sim::CampaignConfig> configs;

  sim::CampaignConfig plain;
  plain.id = "plain";
  plain.prebuilt = kHypercube;
  plain.trials = 12;
  plain.seed = 701;
  configs.push_back(plain);

  sim::CampaignConfig curves;
  curves.id = "curves";
  curves.prebuilt = kStar;
  curves.engine = sim::EngineKind::kAsync;
  curves.trials = 8;
  curves.seed = 702;
  curves.curves.enabled = true;
  curves.curves.points = 16;
  curves.curves.time_bucket = 0.5;
  configs.push_back(curves);

  sim::CampaignConfig batch;
  batch.id = "batch";
  batch.prebuilt = kHypercube;
  batch.engine = sim::EngineKind::kBatchSync;
  batch.lanes = 8;
  batch.trials = 20;
  batch.seed = 703;
  configs.push_back(batch);

  sim::CampaignConfig race;
  race.id = "race";
  race.prebuilt = kStar;
  race.source_policy = sim::SourcePolicy::kRace;
  race.race.screen_trials = 4;
  race.race.finalists = 2;
  race.race.max_candidates = 4;
  race.trials = 8;
  race.seed = 704;
  configs.push_back(race);

  sim::CampaignConfig churn;
  churn.id = "churn";
  churn.prebuilt = kHypercube;
  churn.dynamics.churn.model = dynamics::ChurnModel::kMarkov;
  churn.dynamics.churn.birth = 0.1;
  churn.dynamics.churn.death = 0.1;
  churn.trials = 8;
  churn.seed = 705;
  configs.push_back(churn);
  return configs;
}

sim::CampaignOptions mixed_options(std::uint64_t stop_after) {
  sim::CampaignOptions options;
  options.threads = 1;
  options.block_size = 4;
  options.stop_after_blocks = stop_after;
  return options;
}

std::string without_written_at(sim::Json snapshot) {
  return without_key(std::move(snapshot), "written_at").dump(2);
}

void expect_same_results(const std::vector<sim::CampaignResult>& got,
                         const std::vector<sim::CampaignResult>& want) {
  expect_bitwise_equal(got, want);
  for (std::size_t i = 0; i < want.size() && i < got.size(); ++i) {
    EXPECT_EQ(got[i].has_curves, want[i].has_curves) << want[i].id;
    if (want[i].has_curves) {
      EXPECT_EQ(curve_stats(got[i]), curve_stats(want[i])) << want[i].id;
    }
  }
}

}  // namespace

TEST(CampaignCheckpoint, EveryStopPointResumesBitIdentically) {
  const auto configs = mixed_configs();
  const auto unbroken = sim::run_campaign_resumable(configs, mixed_options(0), "mix");
  ASSERT_TRUE(unbroken.complete);
  expect_same_results(unbroken.results, sim::run_campaign(configs, mixed_options(0)));
  const std::uint64_t total = unbroken.blocks_done;
  ASSERT_EQ(total, 3u + 2u + 3u + (1u + 4u + 4u) + 2u);

  std::vector<sim::Json> stops(total);  // stops[k]: the direct stop after k blocks
  for (std::uint64_t k = 1; k < total; ++k) {
    const auto stopped = sim::run_campaign_resumable(configs, mixed_options(k), "mix");
    ASSERT_FALSE(stopped.complete) << "k=" << k;
    ASSERT_EQ(stopped.blocks_done, k);
    stops[k] = stopped.snapshot;
    const auto resumed = sim::run_campaign_resumable(configs, mixed_options(0), "mix", &stops[k]);
    ASSERT_TRUE(resumed.complete) << "k=" << k;
    SCOPED_TRACE("resumed from k=" + std::to_string(k));
    expect_same_results(resumed.results, unbroken.results);
  }
  // Stopping at j, resuming and stopping again at k leaves exactly the
  // snapshot of a direct stop at k: a resume re-enqueues the missing blocks
  // in the order the unbroken run would have reached them.
  for (std::uint64_t j = 1; j < total; ++j) {
    for (std::uint64_t k = j + 1; k < total; ++k) {
      const auto again =
          sim::run_campaign_resumable(configs, mixed_options(k - j), "mix", &stops[j]);
      ASSERT_FALSE(again.complete);
      EXPECT_EQ(without_written_at(again.snapshot), without_written_at(stops[k]))
          << "stop at " << j << ", resume, stop at " << k;
    }
  }
}

TEST(CampaignCheckpoint, ResumeRefiresAFoldWhoseBlocksAreAllRestored) {
  // A periodic write can land after a pass's last block is recorded but
  // before its fold publishes the result. Build that state by splicing a
  // split config's slots from two shard snapshots into one 1/1 entry: the
  // resume must re-run one restored block to fire the fold.
  const auto configs = snapshot_configs();
  const auto baseline = sim::run_campaign(configs, snapshot_options(1));
  std::vector<sim::Json> shards;
  for (std::uint32_t i = 1; i <= 2; ++i) {
    auto options = snapshot_options(1);
    options.shard_index = i;
    options.shard_count = 2;
    const auto outcome = sim::run_campaign_resumable(configs, options, "snap");
    ASSERT_TRUE(outcome.complete);
    shards.push_back(outcome.snapshot);
  }
  std::size_t split = configs.size();
  for (std::size_t c = 0; c < configs.size() && split == configs.size(); ++c) {
    const bool in_both = shards[0].find("configs")->elements()[c].find("phase")->as_string() ==
                             "trials" &&
                         shards[1].find("configs")->elements()[c].find("phase")->as_string() ==
                             "trials";
    if (in_both) split = c;
  }
  ASSERT_LT(split, configs.size()) << "no config is split across the two shards";

  std::map<double, sim::Json> by_slot;
  for (const sim::Json& shard : shards) {
    for (const sim::Json& s : shard.find("configs")->elements()[split].find("slots")->elements()) {
      by_slot.emplace(s.find("slot")->as_number(), s);
    }
  }
  sim::Json doc = edit_entry(shards[0], split, [&](sim::Json& e) {
    sim::Json slots = sim::Json::array();
    for (const auto& [slot, entry] : by_slot) slots.push_back(entry);
    e.set("slots", std::move(slots));
  });
  doc.set("shard_count", 1);
  doc.set("finished", false);

  const auto resumed = sim::run_campaign_resumable(configs, snapshot_options(1), "snap", &doc);
  ASSERT_TRUE(resumed.complete);
  expect_bitwise_equal(resumed.results, baseline);
  EXPECT_EQ(resumed.snapshot.find("configs")->elements()[split].find("phase")->as_string(),
            "done");
}
