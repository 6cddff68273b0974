// perfbench: the campaign benchmark's shared declarations.
//
// campaign_bench links the rumor library and runs one workload per process:
// it generates the workload's campaign spec from a seed, times the user
// path (parse -> run_campaign -> render and write every report), checks the
// outputs against a recorded reference, and, in a separate traced run,
// times calls into each library layer from outside the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/campaign.hpp"
#include "sim/experiment.hpp"

namespace perfbench {

using rumor::sim::CampaignConfig;
using rumor::sim::CampaignResult;
using rumor::sim::Json;

/// The three workloads; BENCHMARK.json and perfbench/README.md say why each
/// was chosen and which layer it loads.
enum class Workload { kTheoremSweep, kBigGraph, kCellStorm };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload w);

/// Worker threads every campaign of the benchmark runs on: half of the
/// 4-core reference box, which measured steadier than 1 or 4 threads.
inline constexpr unsigned kDefaultThreads = 2;

/// What the generator wrote for one (workload, seed).
struct WorkloadFiles {
  std::string spec_path;   // the campaign spec JSON
  std::string store_path;  // big_graph's packed road-like graph; else empty
};

/// Writes the workload's campaign spec (and big_graph's .rgs store, packed
/// here so that no timed phase pays for it) into `dir`. Same seed, same
/// bytes.
WorkloadFiles generate_workload(Workload w, std::uint64_t seed, const std::string& dir);

/// Identity of the graph a cell builds: cells with equal keys build equal
/// graphs (deterministic families ignore the seed; stores key by path).
[[nodiscard]] std::string graph_key(const CampaignConfig& cfg);

using GraphPtr = std::shared_ptr<const rumor::graph::Graph>;

/// The workload's distinct graphs, each built once through sim::build_graph
/// (which maps a packed store), with the build time kept per graph.
class GraphCache {
 public:
  struct Entry {
    GraphPtr graph;
    double build_ms = 0.0;
    std::string family;
  };
  /// The cell's graph, built on first use; throws on a graph of < 2 nodes.
  GraphPtr get(const CampaignConfig& cfg);
  [[nodiscard]] bool contains(const CampaignConfig& cfg) const;
  [[nodiscard]] double build_ms(const CampaignConfig& cfg) const;
  [[nodiscard]] const std::map<std::string, Entry>& entries() const { return graphs_; }

 private:
  std::map<std::string, Entry> graphs_;
};

/// Reads and parses a campaign spec file; throws std::runtime_error with
/// the parser's message. `name` (optional) receives the campaign name.
[[nodiscard]] std::vector<CampaignConfig> load_configs(const std::string& spec_path,
                                                       std::string* name);

/// Trials a cell reports: final_trials for a raced source, else trials.
[[nodiscard]] std::uint64_t reported_trials(const CampaignConfig& cfg);

/// One cell's recorded distribution of means, over reference runs that
/// share its graph and draw other trial seeds.
struct RefEntry {
  double mean = 0.0;         // mean of the reference runs' cell means
  double within_var = 0.0;   // mean per-run trial variance
  double between_var = 0.0;  // variance of the means beyond within_var / trials
  double means_var = 0.0;    // plain variance of the reference runs' means
  std::uint64_t runs = 0;    // reference runs pooled
};
/// Keyed by cell id.
using Reference = std::map<std::string, RefEntry>;

/// Loads perfbench/reference/<workload>.json; nullopt on a missing or
/// malformed file (printed to stderr).
[[nodiscard]] std::optional<Reference> load_reference(const std::string& path);

/// Renders the reference document (one line per cell) from the results of
/// reference runs of one workload.
[[nodiscard]] std::string make_reference(const std::vector<std::vector<CampaignResult>>& runs,
                                  const std::vector<std::vector<CampaignConfig>>& configs);

/// Output-check thresholds, stated once.
inline constexpr double kMeanZ = 8.0;          // cell mean within 8 standard errors
inline constexpr double kPoolZ = 6.0;          // template's pooled shift within 6
inline constexpr double kRelativeFloor = 1e-3; // standard-error floor, share of the mean
inline constexpr double kKsAlpha = 1e-3;       // batch_sync vs sync twin
inline constexpr double kStarSyncBound = 2.0;  // the paper's sync bound on the star

/// Standard error of a `trials`-trial cell mean against its reference
/// mean: trial noise, the between-run spread, and the reference's own
/// error, floored at kRelativeFloor of the mean.
[[nodiscard]] double cell_se(const RefEntry& e, std::uint64_t trials);

/// A cell's template: its id up to the '@' that precedes the replicate.
[[nodiscard]] std::string template_of(const std::string& id);

struct CheckOutcome {
  std::uint64_t attempted = 0;  // trials the cells were asked for
  std::uint64_t failed = 0;     // trials missing, plus trials of failing cells
  double max_z = 0.0;           // largest cell-mean deviation, in standard errors
  double max_pool_z = 0.0;      // largest pooled template deviation, likewise
  std::vector<std::string> problems;
};

/// The output check of one campaign: every trial completed, the star sync
/// bound, every cell mean within kMeanZ standard errors of the reference,
/// every template of two or more replicates within kPoolZ standard errors
/// of its pooled reference (a shift common to the replicates), and every
/// batch_sync cell KS-equal to its sync twin.
[[nodiscard]] CheckOutcome check_outputs(const std::vector<CampaignConfig>& configs,
                                         const std::vector<CampaignResult>& results,
                                         const std::vector<Json>& reports,
                                         const Reference& reference);

/// The smallest relative mean shift, common to every replicate of a
/// template, that the pooled test flags (kPoolZ pooled standard errors).
struct DetectableShift {
  std::string template_id;
  std::size_t replicates = 0;
  double pooled = 0.0;    // share of the template's mean
  double per_cell = 0.0;  // the same for the replicates' own tests (largest)
};
/// One entry per template of two or more replicates, in spec order.
[[nodiscard]] std::vector<DetectableShift> detectable_shifts(
    const std::vector<CampaignConfig>& configs, const Reference& reference);

/// One run of the workload's user path.
struct RepTiming {
  double total_s = 0.0;     // read + parse + campaign + render + write
  double campaign_s = 0.0;  // the run_campaign(_resumable) call alone
  double parse_s = 0.0;
  double report_s = 0.0;
  std::uint64_t report_bytes = 0;
  std::uint64_t trials = 0;  // trials the reports carry
};

/// Everything a rep produced besides its timing. The rendered reports are
/// written and dropped, as the CLI does; only their hash is kept.
struct RepOutput {
  std::vector<CampaignConfig> configs;
  std::vector<CampaignResult> results;
  Json reports;  // the array that was rendered
  std::size_t render_hash = 0;
};

struct UserPath {
  Workload workload;
  std::string spec_path;
  std::string work_dir;
};

/// Runs the user path once. `telemetry` (may be null) is attached to the
/// campaign; it is the traced run's only difference from an untimed rep.
RepTiming run_user_path(const UserPath& path, rumor::obs::Telemetry* telemetry, RepOutput& out);

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Reads a whole file; throws std::runtime_error naming the path.
[[nodiscard]] std::string read_file(const std::string& path);

/// Median and quantiles of a sample (copy sorted; empty -> 0).
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// One printed metric: an end-to-end or a per-layer one.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct LayerRun {
  std::vector<Metric> metrics;
  CheckOutcome check;
};

/// The traced run: times each layer's public functions on the workload's
/// own graphs and cells, then runs the user path with and without an
/// obs::Telemetry trace sink.
LayerRun run_layers(const UserPath& path, const WorkloadFiles& files, const Reference& reference,
                    std::uint64_t seed);

}  // namespace perfbench
