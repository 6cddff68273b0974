// perfbench: the traced run's per-layer metrics.
//
// Every number here comes from timing calls into a module's public
// functions from this file -- rng::uniform_below, sim::build_graph and the
// graph store, core::run_trial / core::run_batch_sync, stats::
// StreamingSummary, and the sim campaign with an obs::Telemetry sink -- on
// the workload's own graphs and cells. Nothing is instrumented inside the
// library. Each metric's comment names the end-to-end metric and workload
// it should move.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <memory>
#include <set>

#include "core/batch_sync.hpp"
#include "core/trial.hpp"
#include "graph/graph_store.hpp"
#include "obs/telemetry.hpp"
#include "perfbench.hpp"
#include "rng/rng.hpp"
#include "sim/checkpoint.hpp"
#include "stats/streaming.hpp"

namespace perfbench {

namespace {

using rumor::core::EngineKind;
using rumor::graph::Graph;

/// The bound the sum check states for itself (see README.md): threads x
/// campaign wall and the serial sum of cell costs agree within 15%.
constexpr double kSumCheckBound = 0.15;

/// Per-kind sampling: 100 trials (so ten lie beyond p90), cut short by a
/// time budget on graphs where that would take minutes; the sample count
/// is reported with the timings.
constexpr std::size_t kKindSamples = 100;
constexpr std::size_t kKindMinSamples = 10;
constexpr double kKindBudgetS = 8.0;

const char* const kFamilies[] = {"star", "hypercube", "random_regular", "chung_lu",
                                 "watts_strogatz"};

bool plain_cell(const CampaignConfig& cfg) {
  return cfg.source_policy == rumor::sim::SourcePolicy::kFixed && cfg.dynamics.is_static() &&
         !cfg.curves.enabled;
}

/// One timed trial (or lane batch) of a cell's own trial stream `index`.
struct TrialSample {
  double ms_per_trial = 0.0;
  double ticks_per_trial = 0.0;
  double trials = 0.0;  // lanes for a batch
};

TrialSample time_trial(EngineKind kind, const Graph& g, const CampaignConfig& cfg,
                       std::uint64_t index, rumor::core::SpreadProbe* probe = nullptr) {
  TrialSample s;
  if (kind == EngineKind::kBatchSync) {
    rumor::core::BatchSyncOptions opt;
    opt.mode = cfg.mode;
    opt.message_loss = cfg.message_loss;
    opt.lanes = cfg.engine == EngineKind::kBatchSync ? cfg.lanes : rumor::core::kMaxBatchLanes;
    rumor::rng::Engine eng = rumor::rng::derive_stream(cfg.seed, index * opt.lanes);
    const auto t0 = Clock::now();
    const auto r = rumor::core::run_batch_sync(g, cfg.source, eng, opt);
    const double ms = seconds_since(t0) * 1e3;
    if (!r.completed) throw std::runtime_error(cfg.id + ": a timed batch did not complete");
    s.trials = opt.lanes;
    s.ms_per_trial = ms / opt.lanes;
    s.ticks_per_trial = static_cast<double>(r.total_rounds) / opt.lanes;
    return s;
  }
  rumor::core::TrialOptions opt;
  opt.mode = cfg.mode;
  opt.message_loss = cfg.message_loss;
  opt.probe = probe;
  rumor::core::TrialExtras extras;
  extras.view = cfg.view;
  extras.aux = cfg.aux;
  rumor::rng::Engine eng = rumor::rng::derive_stream(cfg.seed, index);
  const auto t0 = Clock::now();
  const auto r = rumor::core::run_trial(kind, g, cfg.source, eng, opt, extras);
  const double ms = seconds_since(t0) * 1e3;
  if (!r.completed) throw std::runtime_error(cfg.id + ": a timed trial did not complete");
  s.trials = 1.0;
  s.ms_per_trial = ms;
  s.ticks_per_trial = static_cast<double>(r.ticks);
  return s;
}

}  // namespace

LayerRun run_layers(const UserPath& path, const WorkloadFiles& files, const Reference& reference,
                    std::uint64_t seed) {
  LayerRun run;
  auto add = [&run](std::string name, double value, std::string unit) {
    run.metrics.push_back({std::move(name), value, std::move(unit)});
  };
  const auto run_t0 = Clock::now();
  std::string name;
  const std::vector<CampaignConfig> configs = load_configs(path.spec_path, &name);

  // rng: one bounded draw on Xoshiro256pp, the primitive behind every
  // neighbor choice -> trials_per_s on theorem_sweep.
  {
    std::vector<double> ns;
    std::uint64_t sink = 0;
    rumor::rng::Engine eng = rumor::rng::derive_stream(seed, 0x726e67);
    constexpr std::uint64_t kDraws = std::uint64_t{1} << 23;
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = Clock::now();
      for (std::uint64_t i = 0; i < kDraws; ++i) sink += rumor::rng::uniform_below(eng, 5 + (i & 7));
      ns.push_back(seconds_since(t0) * 1e9 / static_cast<double>(kDraws));
    }
    if (sink == 0) std::cout << "rng sink 0\n";  // keeps the loop observable
    add("rng.draw_ns", quantile(ns, 0.5), "ns");
  }

  // graph: build every distinct graph of the workload once; the median
  // build per family -> setup_s on big_graph. Families the workload does not
  // use are built once at its largest n, so every traced run has every key.
  GraphCache cache;
  std::uint64_t max_n = 0;
  for (const CampaignConfig& cfg : configs) {
    const GraphPtr g = cache.get(cfg);
    max_n = std::max<std::uint64_t>(max_n, g->num_nodes());
  }
  {
    std::map<std::string, std::vector<double>> per_family;
    for (const auto& [key, e] : cache.entries()) per_family[e.family].push_back(e.build_ms);
    for (const char* family : kFamilies) {
      auto& samples = per_family[family];
      if (samples.empty()) {
        rumor::sim::GraphSpec spec;
        spec.family = family;
        spec.n = max_n;
        spec.degree = std::string_view(family) == "watts_strogatz" ? 6 : 8;
        spec.p = 0.05;
        spec.graph_seed = seed | 1;
        const auto t0 = Clock::now();
        const Graph g = rumor::sim::build_graph(spec, 1);
        samples.push_back(seconds_since(t0) * 1e3);
      }
      add(std::string("graph.build_ms.") + family, quantile(samples, 0.5), "ms");
    }
  }
  // The store path: verify + mmap -> setup_s on big_graph. Workloads without
  // a store pack their largest graph into one (untimed) first.
  {
    std::string store = files.store_path;
    if (store.empty()) {
      const Graph* largest = nullptr;
      for (const auto& [key, e] : cache.entries()) {
        if (largest == nullptr || e.graph->num_edges() > largest->num_edges()) largest = e.graph.get();
      }
      store = path.work_dir + "/largest.rgs";
      rumor::graph::write_graph_store(*largest, store, "perfbench largest graph");
    }
    std::vector<double> ms;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      (void)rumor::graph::verify_graph_store(store);
      const Graph g = rumor::graph::open_graph_store(store);
      ms.push_back(seconds_since(t0) * 1e3);
    }
    add("graph.store_open_ms", quantile(ms, 0.5), "ms");
    if (files.store_path.empty()) std::filesystem::remove(store);
  }
  // Work and footprint of the distinct graphs -> setup_s and peak_rss_mb on
  // big_graph. CSR bytes: offsets (4 or 8 bytes per node + 1) plus one
  // 4-byte neighbor id per arc.
  {
    double arcs = 0.0;
    double bytes = 0.0;
    for (const auto& [key, e] : cache.entries()) {
      const double a = 2.0 * static_cast<double>(e.graph->num_edges());
      const double width = rumor::graph::graph_store_wide_offsets(2 * e.graph->num_edges()) ? 8.0 : 4.0;
      arcs += a;
      bytes += width * static_cast<double>(e.graph->num_nodes() + 1) + 4.0 * a;
    }
    add("graph.arcs", arcs, "count");
    add("graph.csr_mb", bytes / (1024.0 * 1024.0), "MB");
  }

  // core: per engine kind, single-threaded trials on the workload's own
  // cells of that kind, strided across them; kinds the workload does not
  // run use its sync cells' graphs -> trials_per_s on theorem_sweep (sync,
  // async) and big_graph (sync, batch_sync).
  std::vector<const CampaignConfig*> sync_cells;
  for (const CampaignConfig& cfg : configs) {
    if (cfg.engine == EngineKind::kSync && plain_cell(cfg)) sync_cells.push_back(&cfg);
  }
  if (sync_cells.empty()) throw std::runtime_error("workload has no plain sync cell");
  for (EngineKind kind : {EngineKind::kSync, EngineKind::kAsync, EngineKind::kBatchSync,
                          EngineKind::kQuasirandom}) {
    std::vector<const CampaignConfig*> cells;
    for (const CampaignConfig& cfg : configs) {
      if (cfg.engine == kind && plain_cell(cfg)) cells.push_back(&cfg);
    }
    if (cells.empty()) cells = sync_cells;
    std::vector<double> ms;
    double ticks = 0.0;
    double total_ms = 0.0;
    double trials = 0.0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kKindSamples; ++i) {
      if (ms.size() >= kKindMinSamples && seconds_since(t0) > kKindBudgetS) break;
      const CampaignConfig& cfg = *cells[(i * cells.size()) / kKindSamples];
      const GraphPtr g = cache.get(cfg);
      const TrialSample s = time_trial(kind, *g, cfg, i);
      ms.push_back(s.ms_per_trial);
      ticks += s.ticks_per_trial * s.trials;
      total_ms += s.ms_per_trial * s.trials;
      trials += s.trials;
    }
    const std::string prefix = std::string("core.") + rumor::core::engine_name(kind) + ".";
    add(prefix + "trial_ms_p50", quantile(ms, 0.5), "ms");
    add(prefix + "trial_ms_p90", quantile(ms, 0.9), "ms");
    add(prefix + "ticks_per_trial", ticks / trials, "count");
    add(prefix + "ns_per_tick", total_ms * 1e6 / ticks, "ns");
    add(prefix + "samples", static_cast<double>(ms.size()), "count");
  }

  // Lane speedup on one graph: sync ms per trial / batch ms per lane. The
  // base is the workload's first batch_sync cell, else its sync cell with
  // the most edges -> trials_per_s on big_graph.
  {
    const CampaignConfig* base = sync_cells.front();
    for (const CampaignConfig* cfg : sync_cells) {
      if (cache.get(*cfg)->num_edges() > cache.get(*base)->num_edges()) base = cfg;
    }
    for (const CampaignConfig& cfg : configs) {
      if (cfg.engine == EngineKind::kBatchSync) {
        base = &cfg;
        break;
      }
    }
    const GraphPtr g = cache.get(*base);
    double sync_ms = 0.0;
    double sync_trials = 0.0;
    double batch_ms = 0.0;
    double lanes = 0.0;
    for (int round = 0; round < 8; ++round) {
      for (int k = 0; k < 2; ++k) {
        const TrialSample s = time_trial(EngineKind::kSync, *g, *base, 1000 + 2 * round + k);
        sync_ms += s.ms_per_trial;
        sync_trials += 1.0;
      }
      const TrialSample b = time_trial(EngineKind::kBatchSync, *g, *base, 1000 + round);
      batch_ms += b.ms_per_trial * b.trials;
      lanes += b.trials;
      if (round >= 1 && batch_ms + sync_ms > 4000.0) break;
    }
    const double speedup = (sync_ms / sync_trials) / (batch_ms / lanes);
    std::cout << "lane_speedup base: " << g->name() << ", sync " << sync_trials << " trials vs "
              << lanes << " batch lanes: " << speedup << "x\n";
    add("core.batch_sync.lane_speedup", speedup, "x");
  }

  // SpreadProbe attached vs null on the same trials -> total_s on
  // cell_storm (its curves cells run with probes on).
  {
    const CampaignConfig* base = sync_cells.front();
    for (const CampaignConfig& cfg : configs) {
      if (cfg.curves.enabled) {
        base = &cfg;
        break;
      }
    }
    const GraphPtr g = cache.get(*base);
    double with = 0.0;
    double without = 0.0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < 4000 && (i < 2 || seconds_since(t0) < 4.0); ++i) {
      for (EngineKind kind : {EngineKind::kSync, EngineKind::kAsync}) {
        rumor::core::SpreadProbe probe;
        // Alternate which side runs first so cache warmth favours neither.
        if (i % 2 == 0) {
          without += time_trial(kind, *g, *base, i).ms_per_trial;
          with += time_trial(kind, *g, *base, i, &probe).ms_per_trial;
        } else {
          with += time_trial(kind, *g, *base, i, &probe).ms_per_trial;
          without += time_trial(kind, *g, *base, i).ms_per_trial;
        }
      }
    }
    add("core.probe_overhead_frac", with / without - 1.0, "share");
  }

  // A churn cell against its static twin, each a one-cell campaign on the
  // prebuilt graph -> total_s on cell_storm (its churn cells).
  {
    CampaignConfig churn = *sync_cells.front();
    for (const CampaignConfig& cfg : configs) {
      if (cfg.dynamics.churn.model != rumor::dynamics::ChurnModel::kNone) {
        churn = cfg;
        break;
      }
    }
    // A synthetic twin on a 2^18-node graph costs seconds per churned trial.
    const bool small_graph = cache.get(churn)->num_nodes() <= 65536;
    if (churn.dynamics.churn.model == rumor::dynamics::ChurnModel::kNone) {
      churn.dynamics.churn.model = rumor::dynamics::ChurnModel::kMarkov;
      churn.dynamics.churn.birth = 0.05;
      churn.dynamics.churn.death = 0.05;
      churn.trials = std::min<std::uint64_t>(churn.trials, small_graph ? 8 : 2);
    }
    churn.prebuilt = cache.get(churn);
    CampaignConfig twin = churn;
    twin.dynamics = rumor::dynamics::DynamicsSpec{};
    rumor::sim::CampaignOptions opts;
    opts.threads = 1;
    std::vector<double> ratio;
    for (int rep = 0; rep < 3; ++rep) {
      auto t0 = Clock::now();
      (void)rumor::sim::run_campaign({twin}, opts);
      const double still = seconds_since(t0);
      t0 = Clock::now();
      (void)rumor::sim::run_campaign({churn}, opts);
      ratio.push_back(seconds_since(t0) / still);
    }
    add("dynamics.churn_slowdown", quantile(ratio, 0.5), "x");
  }

  // stats: one add, and one merge of two full summaries -> total_s on
  // cell_storm (thousands of per-block partials merged).
  {
    std::vector<double> add_ns;
    for (int rep = 0; rep < 3; ++rep) {
      rumor::stats::StreamingSummary s;
      constexpr std::uint64_t kValues = std::uint64_t{1} << 20;
      const auto t0 = Clock::now();
      for (std::uint64_t i = 0; i < kValues; ++i) {
        s.add(static_cast<double>((i * 2654435761ULL) % 1000) / 10.0, i);
      }
      add_ns.push_back(seconds_since(t0) * 1e9 / static_cast<double>(kValues));
      if (s.count() != kValues) throw std::runtime_error("StreamingSummary lost values");
    }
    add("stats.add_ns", quantile(add_ns, 0.5), "ns");
    rumor::stats::StreamingSummary a;
    rumor::stats::StreamingSummary b;
    for (std::uint64_t i = 0; i < 4096; ++i) {
      a.add(static_cast<double>(i % 97), i);
      b.add(static_cast<double>(i % 89), i + 4096);
    }
    std::vector<double> merge_us;
    for (int rep = 0; rep < 200; ++rep) {
      rumor::stats::StreamingSummary c = a;
      const auto t0 = Clock::now();
      c.merge(b);
      merge_us.push_back(seconds_since(t0) * 1e6);
    }
    add("stats.merge_us", quantile(merge_us, 0.5), "us");
  }

  // sim: the user path twice untraced and twice with a tracing Telemetry
  // (plus writing its trace, as --trace does), in the order traced,
  // untraced, untraced, traced so that a drift over the run cancels.
  std::vector<double> parse_ms;
  std::vector<double> report_ms;
  std::vector<double> untraced;
  std::vector<double> traced;
  double report_kb = 0.0;
  rumor::obs::MetricsSnapshot snap;
  for (int rep = 0; rep < 4; ++rep) {
    RepOutput out;
    const bool tracing = rep == 0 || rep == 3;
    if (tracing) {
      rumor::obs::Telemetry::Options topt;
      topt.trace = true;
      rumor::obs::Telemetry tel(topt);
      const RepTiming t = run_user_path(path, &tel, out);
      const auto t0 = Clock::now();
      tel.end();
      std::string error;
      if (!tel.write_trace(path.work_dir + "/trace.json", &error)) throw std::runtime_error(error);
      traced.push_back(t.total_s + seconds_since(t0));
      snap = tel.snapshot();
      parse_ms.push_back(t.parse_s * 1e3);
      report_ms.push_back(t.report_s * 1e3);
    } else {
      const RepTiming t = run_user_path(path, nullptr, out);
      untraced.push_back(t.total_s);
      parse_ms.push_back(t.parse_s * 1e3);
      report_ms.push_back(t.report_s * 1e3);
      report_kb = static_cast<double>(t.report_bytes) / 1024.0;
    }
    CheckOutcome check = check_outputs(out.configs, out.results, out.reports.elements(), reference);
    run.check.attempted += check.attempted;
    run.check.failed += check.failed;
    run.check.max_z = std::max(run.check.max_z, check.max_z);
    run.check.max_pool_z = std::max(run.check.max_pool_z, check.max_pool_z);
    for (std::string& p : check.problems) run.check.problems.push_back(std::move(p));
  }
  std::filesystem::remove(path.work_dir + "/trace.json");
  add("sim.parse_ms", quantile(parse_ms, 0.5), "ms");
  add("sim.report_ms", quantile(report_ms, 0.5), "ms");
  add("sim.report_kb", report_kb, "KB");

  // Checkpoints: cell_storm's traced rep wrote them; the other workloads
  // run their own spec resumably for one block (one periodic snapshot and
  // the final one) -> total_s on cell_storm.
  {
    const std::string checkpoint = path.work_dir + "/checkpoint.json";
    rumor::obs::MetricsSnapshot ck = snap;
    if (path.workload != Workload::kCellStorm) {
      rumor::obs::Telemetry tel;
      rumor::sim::CampaignOptions opts;
      opts.threads = 1;
      opts.checkpoint_file = checkpoint;
      opts.checkpoint_every = 1;
      opts.stop_after_blocks = 1;
      opts.telemetry = &tel;
      std::filesystem::remove(checkpoint);
      (void)rumor::sim::run_campaign_resumable(configs, opts, name);
      tel.end();
      ck = tel.snapshot();
    }
    add("sim.checkpoint_ms", ck.checkpoint_write_ns.mean() / 1e6, "ms");
    add("sim.checkpoint_kb",
        static_cast<double>(std::filesystem::file_size(checkpoint)) / 1024.0, "KB");
    std::filesystem::remove(checkpoint);
  }

  // Worker busy share and graph builds from the traced rep's registry ->
  // trials_per_s on cell_storm; total_s on big_graph and cell_storm.
  const double wall_s = static_cast<double>(snap.wall_ns) / 1e9;
  const double worker_s = static_cast<double>(snap.workers.size()) * wall_s;
  double busy_s = 0.0;
  for (const auto& w : snap.workers) busy_s += static_cast<double>(w.busy_ns) / 1e9;
  add("sim.busy_frac", busy_s / worker_s, "share");
  add("sim.graph_builds", static_cast<double>(snap.totals.graph_builds), "count");

  // The numbers add up: threads x campaign wall against the serial sum of
  // every cell's graph build plus trials x its per-trial cost, both timed
  // here from outside. Plain cells sample up to 32 of their own trials (two
  // lane batches) through core; raced, churned and curve cells run as a
  // one-cell campaign on their prebuilt graph.
  {
    double sum_s = 0.0;
    std::set<std::string> opened_stores;
    for (const CampaignConfig& cfg : configs) {
      const GraphPtr g = cache.get(cfg);
      // The campaign maps a store once however many cells name it, and
      // builds a generated graph once per cell.
      if (cfg.graph.family != "file" || opened_stores.insert(cfg.graph.path).second) {
        sum_s += cache.build_ms(cfg) / 1e3;
      }
      if (!plain_cell(cfg)) {
        CampaignConfig one = cfg;
        one.prebuilt = g;
        rumor::sim::CampaignOptions opts;
        opts.threads = 1;
        const auto t0 = Clock::now();
        (void)rumor::sim::run_campaign({one}, opts);
        sum_s += seconds_since(t0);
        continue;
      }
      const bool batch = cfg.engine == EngineKind::kBatchSync;
      const std::uint64_t units = batch ? (cfg.trials + cfg.lanes - 1) / cfg.lanes : cfg.trials;
      const std::uint64_t sampled = std::min<std::uint64_t>(units, batch ? 2 : 32);
      double ms = 0.0;
      for (std::uint64_t i = 0; i < sampled; ++i) {
        const TrialSample s = time_trial(cfg.engine, *g, cfg, i);
        ms += s.ms_per_trial * s.trials;
      }
      sum_s += ms / 1e3 * static_cast<double>(units) / static_cast<double>(sampled);
    }
    const double err = std::abs(worker_s - sum_s) / worker_s;
    std::cout << "sum check: threads x campaign wall = " << worker_s << " s, sum of cell builds"
              << " + trials x per-trial cost = " << sum_s << " s, error " << err
              << " (stated bound " << kSumCheckBound << "): "
              << (err <= kSumCheckBound ? "within" : "OUTSIDE") << "\n";
    add("sim.sum_check_err", err, "share");
  }

  add("obs.trace_overhead_frac", quantile(traced, 0.5) / quantile(untraced, 0.5) - 1.0, "share");
  std::cout << "traced run took " << seconds_since(run_t0) << " s\n";
  return run;
}

}  // namespace perfbench
