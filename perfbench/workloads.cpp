// perfbench: the workload generator. Each workload is a campaign spec made
// from the workload seed alone; big_graph also gets its road-like graph
// packed into a .rgs store here, before any timed phase.
#include <array>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "graph/graph_store.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

using rumor::sim::GraphSpec;

/// splitmix64 finalizer: the per-cell seeds are a pure function of the
/// workload seed and the cell's position. Masked to 52 bits because spec
/// numbers are doubles, and forced odd so a seed is never the "derive from
/// the config seed" value 0.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return (z & ((std::uint64_t{1} << 52) - 1)) | 1;
}

/// Graph seeds derive from this fixed root, not from the workload seed:
/// each cell keeps its own graph under every seed, so the reference records
/// that cell's own mean and the check compares like with like. The
/// workload seed draws every trial seed.
constexpr std::uint64_t kGraphRoot = 0x67726170685f7631ULL;

struct Family {
  const char* label;   // id prefix
  const char* kind;    // build_graph family
  std::uint32_t degree;
  double p;
  double beta;
  double average_degree;
  bool random;         // takes a graph_seed
};

Json graph_object(const Family& f, std::uint64_t graph_seed) {
  Json g = Json::object();
  g.set("kind", f.kind);
  if (f.degree != 0) g.set("degree", f.degree);
  if (f.p > 0.0) g.set("p", f.p);
  if (f.beta > 0.0) {
    g.set("beta", f.beta);
    g.set("average_degree", f.average_degree);
  }
  if (f.random) g.set("graph_seed", graph_seed);
  return g;
}

Json cell(const std::string& id, std::uint64_t seed) {
  Json c = Json::object();
  c.set("id", id);
  c.set("seed", seed);
  return c;
}

Json batch_engine(std::uint32_t lanes) {
  Json e = Json::object();
  e.set("kind", "batch_sync");
  e.set("lanes", lanes);
  return e;
}

// --- theorem_sweep -----------------------------------------------------------
// Push-pull sync against global-clock async, as Theorems 1 and 2 compare
// them, on five n = 4096 shapes. Each CSR stays under 0.3 MB, so the engines
// run cache-resident and the workload loads core's sync/async loops and rng.
constexpr std::uint64_t kSweepN = 4096;
constexpr std::uint64_t kSweepTrials = 1024;

Json theorem_sweep(std::uint64_t seed) {
  static constexpr std::array<Family, 5> kFamilies = {{
      {"hypercube", "hypercube", 0, 0.0, 0.0, 0.0, false},
      {"regular", "random_regular", 8, 0.0, 0.0, 0.0, true},
      {"chunglu", "chung_lu", 0, 0.0, 2.5, 8.0, true},
      {"road", "watts_strogatz", 6, 0.05, 0.0, 0.0, true},
      {"star", "star", 0, 0.0, 0.0, 0.0, false},
  }};
  Json configs = Json::array();
  std::uint64_t index = 0;
  for (const Family& f : kFamilies) {
    const std::uint64_t graph_seed = derive_seed(kGraphRoot, 1000 + index);
    for (const char* engine : {"sync", "async"}) {
      Json c = cell(std::string(f.label) + "_" + engine + "@0", derive_seed(seed, index++));
      c.set("graph", graph_object(f, graph_seed));
      c.set("n", kSweepN);
      c.set("engine", engine);
      configs.push_back(std::move(c));
    }
  }
  Json defaults = Json::object();
  defaults.set("trials", kSweepTrials);
  defaults.set("mode", "push-pull");
  // A star leaf: sync needs exactly two rounds from it, async about ln n.
  defaults.set("source", 1);
  Json doc = Json::object();
  doc.set("name", "theorem_sweep");
  doc.set("defaults", std::move(defaults));
  doc.set("configs", std::move(configs));
  return doc;
}

// --- big_graph ---------------------------------------------------------------
// n = 2^18: a random 8-regular graph generated inside the campaign and a
// road-like Watts-Strogatz lattice read from a packed store. Each graph runs
// a sync cell and a 64-lane batch_sync cell; the CSRs (~8 MB) exceed L2, so
// the engines are memory-bound and set-up costs seconds.
constexpr std::uint64_t kBigN = 262144;
constexpr std::uint64_t kBigSyncTrials = 32;
constexpr std::uint64_t kBigBatchTrials = 64;
constexpr std::uint32_t kBigLanes = 64;

GraphSpec road_spec() {
  GraphSpec g;
  g.family = "watts_strogatz";
  g.n = kBigN;
  g.degree = 6;
  g.p = 0.05;
  g.graph_seed = derive_seed(kGraphRoot, 2000);
  return g;
}

Json big_graph(std::uint64_t seed, const std::string& store_path) {
  static constexpr Family kRegular = {"regular", "random_regular", 8, 0.0, 0.0, 0.0, true};
  Json road = Json::object();
  road.set("kind", "file");
  road.set("path", store_path);
  const Json regular = graph_object(kRegular, derive_seed(kGraphRoot, 2001));

  Json configs = Json::array();
  std::uint64_t index = 0;
  for (const auto& [label, graph] : {std::pair<const char*, const Json*>{"road", &road},
                                     std::pair<const char*, const Json*>{"regular", &regular}}) {
    Json s = cell(std::string(label) + "_sync@0", derive_seed(seed, index++));
    s.set("graph", *graph);
    if (graph == &regular) s.set("n", kBigN);
    s.set("engine", "sync");
    s.set("trials", kBigSyncTrials);
    s.set("reservoir_capacity", kBigSyncTrials);
    configs.push_back(std::move(s));

    Json b = cell(std::string(label) + "_batch64@0", derive_seed(seed, index++));
    b.set("graph", *graph);
    if (graph == &regular) b.set("n", kBigN);
    b.set("engine", batch_engine(kBigLanes));
    b.set("trials", kBigBatchTrials);
    b.set("reservoir_capacity", kBigBatchTrials);
    configs.push_back(std::move(b));
  }
  Json defaults = Json::object();
  defaults.set("mode", "push-pull");
  defaults.set("source", 1);
  Json doc = Json::object();
  doc.set("name", "big_graph");
  doc.set("defaults", std::move(defaults));
  doc.set("configs", std::move(configs));
  return doc;
}

// --- cell_storm --------------------------------------------------------------
// Thousands of small cells (n <= 256, 16 trials, one graph seed per cell):
// every engine kind in every mode, plus raced sources, curves (probes on),
// message loss and churn. Per-cell graph builds, summary merges, the
// checkpoint writer and report JSON take a large share here, so this is the
// sim layer's workload.
constexpr std::uint64_t kStormTrials = 16;
constexpr std::uint64_t kStormReplicates = 16;

struct StormTemplate {
  std::string id;
  Json cell;  // everything but id, seed and graph_seed
  const Family* family;
};

std::vector<StormTemplate> storm_templates() {
  static constexpr std::array<Family, 5> kFamilies = {{
      {"star", "star", 0, 0.0, 0.0, 0.0, false},
      {"hypercube", "hypercube", 0, 0.0, 0.0, 0.0, false},
      {"regular", "random_regular", 4, 0.0, 0.0, 0.0, true},
      {"chunglu", "chung_lu", 0, 0.0, 2.5, 6.0, true},
      {"road", "watts_strogatz", 4, 0.1, 0.0, 0.0, true},
  }};
  std::vector<StormTemplate> out;
  auto add = [&out](const Family& f, std::uint64_t n, const char* engine, const char* mode,
                    const std::string& suffix, Json extra) {
    std::string id = std::string(f.label) + "_n" + std::to_string(n) + "_" + engine + "_" + mode;
    if (!suffix.empty()) id += "_" + suffix;
    Json c = std::move(extra);
    c.set("n", n);
    c.set("engine", engine);
    c.set("mode", mode);
    out.push_back({std::move(id), std::move(c), &f});
  };
  for (const Family& f : kFamilies) {
    for (std::uint64_t n : {64, 128, 256}) {
      for (const char* engine : {"sync", "async", "quasirandom", "aux"}) {
        for (const char* mode : {"push", "pull", "push-pull"}) {
          // Push from a star leaf is a coupon collector over the leaves: it
          // alone would outweigh the rest of the storm, so the star keeps
          // push at its smallest size only.
          if (std::string_view(f.label) == "star" && std::string_view(mode) == "push" &&
              n > 64) {
            continue;
          }
          add(f, n, engine, mode, "", Json::object());
        }
      }
    }
    constexpr std::uint64_t kFeatureN = 128;
    for (const char* engine : {"sync", "async"}) {
      Json race = Json::object();
      race.set("screen_trials", 4);
      race.set("finalists", 2);
      race.set("max_candidates", 8);
      Json r = Json::object();
      r.set("source", "race");
      r.set("race", std::move(race));
      add(f, kFeatureN, engine, "push-pull", "race", std::move(r));

      Json l = Json::object();
      l.set("message_loss", 0.2);
      add(f, kFeatureN, engine, "push-pull", "loss", std::move(l));

      Json churn = Json::object();
      churn.set("churn", "markov");
      churn.set("birth", 0.1);
      churn.set("death", 0.1);
      Json d = Json::object();
      d.set("dynamics", std::move(churn));
      add(f, kFeatureN, engine, "push-pull", "churn", std::move(d));
    }
    for (const char* engine : {"sync", "async", "quasirandom"}) {
      Json curves = Json::object();
      curves.set("points", 32);
      curves.set("time_bucket", 0.5);
      Json c = Json::object();
      c.set("curves", std::move(curves));
      add(f, kFeatureN, engine, "push-pull", "curves", std::move(c));
    }
  }
  return out;
}

Json cell_storm(std::uint64_t seed) {
  const std::vector<StormTemplate> templates = storm_templates();
  Json configs = Json::array();
  std::uint64_t index = 0;
  // Replicate-major order interleaves every template through the queue, so
  // the scheduler sees the mix from the first block on.
  for (std::uint64_t r = 0; r < kStormReplicates; ++r) {
    for (const StormTemplate& t : templates) {
      Json c = cell(t.id + "@" + std::to_string(r), derive_seed(seed, index));
      c.set("graph", graph_object(*t.family, derive_seed(kGraphRoot, index)));
      for (const auto& [key, value] : t.cell.entries()) c.set(key, value);
      configs.push_back(std::move(c));
      ++index;
    }
  }
  Json defaults = Json::object();
  defaults.set("trials", kStormTrials);
  defaults.set("source", 1);
  Json doc = Json::object();
  doc.set("name", "cell_storm");
  doc.set("defaults", std::move(defaults));
  doc.set("configs", std::move(configs));
  return doc;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "theorem_sweep") return Workload::kTheoremSweep;
  if (name == "big_graph") return Workload::kBigGraph;
  if (name == "cell_storm") return Workload::kCellStorm;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kTheoremSweep: return "theorem_sweep";
    case Workload::kBigGraph: return "big_graph";
    case Workload::kCellStorm: return "cell_storm";
  }
  return "?";
}

std::uint64_t reported_trials(const CampaignConfig& cfg) {
  if (cfg.source_policy == rumor::sim::SourcePolicy::kRace && cfg.race.final_trials != 0) {
    return cfg.race.final_trials;
  }
  return cfg.trials;
}

WorkloadFiles generate_workload(Workload w, std::uint64_t seed, const std::string& dir) {
  std::filesystem::create_directories(dir);
  WorkloadFiles files;
  files.spec_path = dir + "/spec.json";
  Json doc;
  switch (w) {
    case Workload::kTheoremSweep: doc = theorem_sweep(seed); break;
    case Workload::kBigGraph: {
      files.store_path = std::filesystem::absolute(dir + "/road.rgs").string();
      const GraphSpec road = road_spec();
      rumor::graph::write_graph_store(rumor::sim::build_graph(road, 0), files.store_path,
                                      "watts_strogatz n=262144 k=6 p=0.05 graph_seed=" +
                                          std::to_string(road.graph_seed));
      doc = big_graph(seed, files.store_path);
      break;
    }
    case Workload::kCellStorm: doc = cell_storm(seed); break;
  }
  write_text(files.spec_path, doc.dump(1));
  return files;
}

}  // namespace perfbench
