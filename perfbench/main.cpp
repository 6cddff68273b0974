// campaign_bench: one workload per process.
//
//   campaign_bench run --workload W --seed S --seconds T --trace 0|1
//                        --work-dir DIR --reference FILE
//   campaign_bench reference --workload W --seeds FIRST COUNT
//                        --work-dir DIR --out FILE
//   campaign_bench selftest --work-dir DIR --reference-dir DIR
//
// `run` prints human lines, then as its last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. `reference`
// records each cell's distribution of means, which the output check
// compares against. `selftest` plants defects in a real campaign's outputs
// and exits non-zero unless the check catches every one.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <thread>

#include "graph/graph_store.hpp"
#include "obs/build_info.hpp"
#include "perfbench.hpp"
#include "sim/checkpoint.hpp"

namespace perfbench {

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "campaign_bench: " << why << "\n"
            << "usage: campaign_bench run --workload W --seed S --seconds T --trace 0|1 "
               "--work-dir DIR --reference FILE\n"
               "       campaign_bench reference --workload W --seeds FIRST COUNT "
               "--work-dir DIR --out FILE\n"
               "       campaign_bench selftest --work-dir DIR --reference-dir DIR\n";
  std::exit(2);
}

struct Args {
  std::string command;
  std::optional<Workload> workload;
  std::uint64_t seed = 0;
  bool has_seed = false;
  double seconds = 0.0;
  int trace = -1;
  std::string work_dir;
  std::string reference;
  std::string out;
  std::uint64_t first_seed = 0;
  std::uint64_t seed_count = 0;
};

std::uint64_t parse_uint(const char* s, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || s[0] == '-') usage(std::string(flag) + " needs a whole number");
  return v;
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) usage("missing command");
  Args a;
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = parse_workload(value());
      if (!a.workload) usage("unknown workload");
    } else if (flag == "--seed") {
      a.seed = parse_uint(value(), "--seed");
      a.has_seed = true;
    } else if (flag == "--seconds") {
      const char* s = value();
      char* end = nullptr;
      a.seconds = std::strtod(s, &end);
      if (end == s || *end != '\0' || !(a.seconds > 0.0)) usage("--seconds needs a positive number");
    } else if (flag == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") usage("--trace takes 0 or 1");
      a.trace = t == "1" ? 1 : 0;
    } else if (flag == "--work-dir") {
      a.work_dir = value();
    } else if (flag == "--reference" || flag == "--reference-dir") {
      a.reference = value();
    } else if (flag == "--out") {
      a.out = value();
    } else if (flag == "--seeds") {
      a.first_seed = parse_uint(value(), "--seeds");
      a.seed_count = parse_uint(value(), "--seeds");
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.work_dir.empty()) usage("--work-dir is required");
  return a;
}

/// Refuses builds whose timings mean nothing: unoptimized or sanitized.
bool timing_build_ok() {
  const auto& bi = rumor::obs::build_info();
  const std::string type = bi.build_type;
  bool ok = type == "Release" || type == "RelWithDebInfo";
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  ok = false;
#endif
  if (std::strstr(bi.flags, "-fsanitize") != nullptr) ok = false;
  if (!ok) {
    std::cerr << "perfbench: refusing to measure a " << type << " (flags '" << bi.flags
              << "') build; configure with -DCMAKE_BUILD_TYPE=Release\n";
  }
  return ok;
}

std::string first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// nproc, threads, load at start, cache sizes and build provenance: what a
/// reader needs before comparing two results.
Json environment_stamp() {
  Json env = Json::object();
  env.set("nproc", std::thread::hardware_concurrency());
  env.set("threads", kDefaultThreads);
  env.set("loadavg", first_line("/proc/loadavg"));
  for (int index = 0; index < 8; ++index) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    if (!std::filesystem::exists(dir)) break;
    const std::string level = first_line(dir + "/level");
    const std::string type = first_line(dir + "/type");
    if (type == "Instruction") continue;
    env.set("l" + level + (type == "Data" ? "d" : ""), first_line(dir + "/size"));
  }
  env.set("build_info", rumor::sim::build_info_json());
  return env;
}

/// The host's CPU time stolen from this VM, as jiffies (steal, total) from
/// the aggregate line of /proc/stat; zeros where it is unavailable.
std::pair<double, double> cpu_steal() {
  std::istringstream line(first_line("/proc/stat"));
  std::string label;
  line >> label;
  double total = 0.0;
  double steal = 0.0;
  double v = 0.0;
  for (int field = 0; line >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return std::nan("");
}

std::string full(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << full(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

void print_check(const CheckOutcome& check) {
  std::cout << "check: " << check.failed << " of " << check.attempted
            << " trials failed; largest cell-mean deviation " << check.max_z << " of "
            << kMeanZ << " standard errors, largest pooled template deviation "
            << check.max_pool_z << " of " << kPoolZ << "\n";
  const std::size_t shown = std::min<std::size_t>(check.problems.size(), 20);
  for (std::size_t i = 0; i < shown; ++i) std::cout << "check: FAIL " << check.problems[i] << "\n";
  if (check.problems.size() > shown) {
    std::cout << "check: ... " << (check.problems.size() - shown) << " more failing cells\n";
  }
}

/// Set-up as a user pays it before a campaign: parse the spec and build
/// every distinct graph once through sim::build_graph (a packed store is
/// verified, then mapped). Returns seconds.
double setup_once(const std::string& spec_path) {
  const auto t0 = Clock::now();
  GraphCache cache;
  for (const CampaignConfig& cfg : load_configs(spec_path, nullptr)) {
    if (cfg.graph.family == "file" && !cache.contains(cfg)) {
      (void)rumor::graph::verify_graph_store(cfg.graph.path);
    }
    (void)cache.get(cfg);
  }
  return seconds_since(t0);
}

/// Templates of the workload that the pooled test covers, with the median
/// and largest shift each can detect.
void print_detectable_shifts(const std::vector<CampaignConfig>& configs,
                             const Reference& reference) {
  const std::vector<DetectableShift> shifts = detectable_shifts(configs, reference);
  if (shifts.empty()) return;
  std::vector<double> pooled;
  const DetectableShift* worst = &shifts.front();
  for (const DetectableShift& d : shifts) {
    pooled.push_back(d.pooled);
    if (d.pooled > worst->pooled) worst = &d;
  }
  std::cout << "check: pooled test on " << shifts.size()
            << " templates; smallest detectable common shift median "
            << 100.0 * quantile(pooled, 0.5) << "%, largest " << 100.0 * worst->pooled << "% ("
            << worst->template_id << ", whose replicates alone need " << 100.0 * worst->per_cell
            << "%)\n";
}

int command_run(const Args& a) {
  if (!a.workload || !a.has_seed || a.seconds <= 0.0 || a.trace < 0 || a.reference.empty()) {
    usage("run needs --workload, --seed, --seconds, --trace and --reference");
  }
  Json env = environment_stamp();
  const auto steal_start = cpu_steal();
  if (!timing_build_ok()) return 3;
  const auto reference = load_reference(a.reference);
  if (!reference) return 2;

  const WorkloadFiles files = generate_workload(*a.workload, a.seed, a.work_dir);
  const UserPath path{*a.workload, files.spec_path, a.work_dir};
  std::cout << "workload " << workload_name(*a.workload) << " seed " << a.seed << " threads "
            << kDefaultThreads << "\n";
  std::cout << "env " << env.dump() << "\n";

  if (a.trace == 1) {
    const LayerRun layers = run_layers(path, files, *reference, a.seed);
    print_check(layers.check);
    for (const Metric& m : layers.metrics) {
      std::cout << "layer " << m.name << " = " << full(m.value) << " " << m.unit << "\n";
    }
    print_result(layers.check.failed == 0, layers.check.attempted, layers.check.failed,
                 layers.metrics);
    return 0;
  }

  // The measured loop, about --seconds long: whole user paths, with set-ups
  // interleaved to take a fifth of the time (at least three), so that both
  // sample the same stretch of the host's load. Medians are reported. A
  // user path is not started when less than half of the mean one is left.
  constexpr double kSetupShare = 0.2;
  constexpr std::size_t kMinSetups = 3;
  std::vector<double> setups;
  double setup_spent = 0.0;
  std::vector<double> totals;
  std::vector<double> rates;
  std::optional<std::size_t> first_hash;
  CheckOutcome all;  // summed over reps; problems of the last failing rep
  const auto t0 = Clock::now();
  auto time_left = [&] {
    const double elapsed = seconds_since(t0);
    return elapsed + 0.5 * (elapsed - setup_spent) / static_cast<double>(totals.size()) <
           a.seconds;
  };
  for (;;) {
    if (setup_spent <= kSetupShare * seconds_since(t0)) {
      setups.push_back(setup_once(files.spec_path));
      setup_spent += setups.back();
      continue;
    }
    if (!totals.empty() && !time_left()) break;
    RepOutput out;
    RepTiming t;
    try {
      t = run_user_path(path, nullptr, out);
    } catch (const std::exception& e) {
      // A trial that hits its cap (or any other campaign error) aborts the
      // campaign: every trial of the rep counts as failed.
      std::uint64_t trials = 0;
      for (const CampaignConfig& cfg : load_configs(files.spec_path, nullptr)) {
        trials += reported_trials(cfg);
      }
      all.attempted += trials;
      all.failed += trials;
      all.problems = {std::string("campaign failed: ") + e.what()};
      break;
    }
    totals.push_back(t.total_s);
    rates.push_back(static_cast<double>(t.trials) / t.campaign_s);
    CheckOutcome check =
        check_outputs(out.configs, out.results, out.reports.elements(), *reference);
    if (totals.size() == 1) print_detectable_shifts(out.configs, *reference);
    // Reports are a pure function of the spec: every rep must render the
    // same bytes as the first.
    if (!first_hash) {
      first_hash = out.render_hash;
    } else if (out.render_hash != *first_hash) {
      check.failed = check.attempted;
      check.problems.push_back("rep " + std::to_string(totals.size()) +
                               " rendered different report bytes than rep 1");
    }
    all.attempted += check.attempted;
    all.failed += check.failed;
    all.max_z = std::max(all.max_z, check.max_z);
    all.max_pool_z = std::max(all.max_pool_z, check.max_pool_z);
    std::cout << "rep " << totals.size() << ": total_s " << full(t.total_s) << " campaign_s "
              << full(t.campaign_s) << " trials " << t.trials << " report_kb "
              << full(static_cast<double>(t.report_bytes) / 1024.0) << " failed " << check.failed
              << "\n";
    if (!check.problems.empty()) all.problems = std::move(check.problems);
  }
  while (setups.size() < kMinSetups) setups.push_back(setup_once(files.spec_path));
  print_check(all);
  if (totals.empty()) {
    print_result(false, all.attempted, all.failed, {});
    return 0;
  }

  const double failed_frac =
      static_cast<double>(all.failed) / static_cast<double>(all.attempted);
  const std::vector<Metric> metrics = {
      {"setup_s", quantile(setups, 0.5), "s"},
      {"trials_per_s", quantile(rates, 0.5), "1/s"},
      {"total_s", quantile(totals, 0.5), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  const auto steal_end = cpu_steal();
  const double total_jiffies = steal_end.second - steal_start.second;
  std::cout << "setup reps " << setups.size() << ", user-path reps " << totals.size()
            << " (medians reported); host steal "
            << (total_jiffies > 0.0 ? (steal_end.first - steal_start.first) / total_jiffies : 0.0)
            << " of all CPU time during the run\n";
  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << " = " << full(m.value) << " " << m.unit << "\n";
  }
  std::cout << "metric failed_frac = " << full(failed_frac) << " share (" << all.failed
            << " of " << all.attempted << " trials)\n";
  print_result(all.failed == 0, all.attempted, all.failed, metrics);
  return 0;
}

int command_reference(const Args& a) {
  if (!a.workload || a.seed_count < 2 || a.out.empty()) {
    usage("reference needs --workload, --seeds FIRST COUNT (COUNT >= 2) and --out");
  }
  std::vector<std::vector<CampaignResult>> runs;
  std::vector<std::vector<CampaignConfig>> configs;
  for (std::uint64_t s = a.first_seed; s < a.first_seed + a.seed_count; ++s) {
    const auto t0 = Clock::now();
    const WorkloadFiles files =
        generate_workload(*a.workload, s, a.work_dir + "/ref-" + std::to_string(s));
    configs.push_back(load_configs(files.spec_path, nullptr));
    rumor::sim::CampaignOptions opts;
    opts.threads = kDefaultThreads;
    runs.push_back(rumor::sim::run_campaign(configs.back(), opts));
    if (!files.store_path.empty()) std::filesystem::remove(files.store_path);
    std::cerr << "reference " << workload_name(*a.workload) << " seed " << s << ": "
              << seconds_since(t0) << " s\n";
  }
  std::ofstream out(a.out, std::ios::binary | std::ios::trunc);
  out << make_reference(runs, configs);
  if (!out.flush()) {
    std::cerr << "perfbench: cannot write " << a.out << "\n";
    return 1;
  }
  return 0;
}

std::size_t index_of(const std::vector<CampaignConfig>& configs, const std::string& id) {
  for (std::size_t c = 0; c < configs.size(); ++c) {
    if (configs[c].id == id) return c;
  }
  throw std::runtime_error("selftest: no cell " + id);
}

std::vector<Json> render_reports(const std::vector<CampaignResult>& results,
                                 const std::string& name) {
  std::vector<Json> reports;
  for (const CampaignResult& r : results) reports.push_back(campaign_report(r, name));
  return reports;
}

/// `reports` with one field of cell c's result row replaced.
std::vector<Json> planted(std::vector<Json> reports, std::size_t c, const char* field,
                          double value) {
  for (auto& [key, rows] : reports[c].mutable_entries()) {
    if (key != "rows") continue;
    Json row = rows.elements().front();
    row.set(field, value);
    Json fresh = Json::array();
    fresh.push_back(std::move(row));
    rows = std::move(fresh);
  }
  return reports;
}

/// Plants one defect at a time into real theorem_sweep and cell_storm
/// campaigns' outputs and requires the check to name it; the clean outputs
/// must pass first.
int command_selftest(const Args& a) {
  if (a.reference.empty()) usage("selftest needs --reference-dir");
  auto reference = load_reference(a.reference + "/theorem_sweep.json");
  const auto storm_reference = load_reference(a.reference + "/cell_storm.json");
  if (!reference || !storm_reference) return 2;
  constexpr std::uint64_t kSeed = 7;
  constexpr std::uint64_t kTrials = 256;
  const WorkloadFiles files =
      generate_workload(Workload::kTheoremSweep, kSeed, a.work_dir + "/theorem_sweep");
  std::vector<CampaignConfig> configs = load_configs(files.spec_path, nullptr);
  for (CampaignConfig& cfg : configs) {
    cfg.trials = kTrials;
    cfg.reservoir_capacity = kTrials;
  }
  // A batch_sync twin of the hypercube cell. The batch engine must
  // reproduce the sync law, so the sync cell's reference applies to it.
  CampaignConfig batch = configs[index_of(configs, "hypercube_sync@0")];
  reference->emplace("hypercube_batch64@0", reference->at(batch.id));
  batch.id = "hypercube_batch64@0";
  batch.engine = rumor::core::EngineKind::kBatchSync;
  batch.lanes = 64;
  batch.seed += 1;
  configs.push_back(batch);

  rumor::sim::CampaignOptions opts;
  opts.threads = kDefaultThreads;
  const std::vector<CampaignResult> results = rumor::sim::run_campaign(configs, opts);
  const std::vector<Json> reports = render_reports(results, "theorem_sweep");

  int failures = 0;
  auto expect = [&](const char* what, const CheckOutcome& check, const std::string& needle) {
    bool ok = false;
    if (needle.empty()) {
      ok = check.failed == 0;
    } else {
      for (const std::string& p : check.problems) ok = ok || p.find(needle) != std::string::npos;
      ok = ok && check.failed > 0;
    }
    std::cout << "selftest " << what << ": " << (ok ? "ok" : "NOT CAUGHT") << " (failed "
              << check.failed << " of " << check.attempted << ")\n";
    const std::size_t shown = std::min<std::size_t>(check.problems.size(), 20);
    for (std::size_t i = 0; i < shown; ++i) std::cout << "  " << check.problems[i] << "\n";
    if (!ok) ++failures;
  };
  expect("clean outputs pass", check_outputs(configs, results, reports, *reference), "");

  // (1) A report whose mean is shifted by 10%; the smallest shift the check
  // can see is kMeanZ standard errors, printed alongside. (2) A star sync
  // report that breaks the two-round bound.
  {
    const RefEntry& e = reference->at("regular_async@0");
    const double se = cell_se(e, kTrials);
    std::cout << "selftest: regular_async@0 mean " << e.mean << ", standard error at " << kTrials
              << " trials " << se << ", smallest detectable shift " << kMeanZ * se << " ("
              << 100.0 * kMeanZ * se / e.mean << "%)\n";
    const std::size_t c = index_of(configs, "regular_async@0");
    expect("mean shifted by 10%",
           check_outputs(configs, results,
                         planted(reports, c, "mean", results[c].summary.mean() * 1.10),
                         *reference),
           "standard errors from");
    expect("star sync hp_time 3",
           check_outputs(configs, results,
                         planted(reports, index_of(configs, "star_sync@0"), "hp_time", 3.0),
                         *reference),
           "star sync hp_time");
  }
  // (3) A batch engine one round slow on every lane (its report untouched,
  // so only the KS test can see it) and (4) a lost trial.
  {
    const std::size_t c = configs.size() - 1;
    const auto values = results[c].summary.reservoir().values();
    std::vector<CampaignResult> slow = results;
    std::vector<CampaignResult> lost = results;
    const auto options = rumor::sim::summary_options_for(configs[c], 256, 512);
    slow[c].summary = rumor::stats::StreamingSummary(options);
    lost[c].summary = rumor::stats::StreamingSummary(options);
    for (std::size_t i = 0; i < values.size(); ++i) {
      slow[c].summary.add(values[i] + 1.0, i);
      if (i + 1 < values.size()) lost[c].summary.add(values[i], i);
    }
    expect("batch_sync one round slow", check_outputs(configs, slow, reports, *reference),
           "KS against sync twin");
    expect("one trial lost", check_outputs(configs, lost, reports, *reference),
           "trials completed");
  }

  // (5) cell_storm as the workload runs it (16 trials a cell), with every
  // replicate of one template shifted by 10%: each replicate alone passes,
  // and only the pooled test can see the common shift.
  {
    const WorkloadFiles storm =
        generate_workload(Workload::kCellStorm, kSeed, a.work_dir + "/cell_storm");
    const std::vector<CampaignConfig> storm_configs = load_configs(storm.spec_path, nullptr);
    const std::vector<CampaignResult> storm_results =
        rumor::sim::run_campaign(storm_configs, opts);
    std::vector<Json> storm_reports = render_reports(storm_results, "cell_storm");
    const CheckOutcome clean =
        check_outputs(storm_configs, storm_results, storm_reports, *storm_reference);
    expect("clean cell_storm passes", clean, "");
    const std::string shifted = "hypercube_n64_sync_push";
    for (const DetectableShift& d : detectable_shifts(storm_configs, *storm_reference)) {
      if (d.template_id != shifted) continue;
      std::cout << "selftest: " << shifted << " (" << d.replicates
                << " replicates), smallest detectable common shift " << 100.0 * d.pooled
                << "% pooled, " << 100.0 * d.per_cell << "% per replicate\n";
    }
    for (std::size_t c = 0; c < storm_configs.size(); ++c) {
      if (template_of(storm_configs[c].id) != shifted) continue;
      storm_reports = planted(storm_reports, c, "mean", storm_results[c].summary.mean() * 1.10);
    }
    const CheckOutcome check =
        check_outputs(storm_configs, storm_results, storm_reports, *storm_reference);
    bool per_cell_silent = true;
    for (const std::string& p : check.problems) {
      per_cell_silent = per_cell_silent && p.rfind(shifted + "@", 0) != 0;
    }
    std::cout << "selftest: replicates of the shifted template "
              << (per_cell_silent ? "each pass alone" : "fail alone too") << "\n";
    expect("cell_storm template shifted by 10%", check, shifted + ": pooled mean");
  }
  std::cout << "selftest " << (failures == 0 ? "passed" : "FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::vector<CampaignConfig> load_configs(const std::string& spec_path, std::string* name) {
  const auto doc = Json::parse(read_file(spec_path));
  if (!doc) throw std::runtime_error(spec_path + ": malformed JSON");
  auto spec = rumor::sim::parse_campaign_spec(*doc);
  if (!spec.error.empty()) throw std::runtime_error(spec_path + ": " + spec.error);
  if (name != nullptr) *name = spec.name;
  return std::move(spec.configs);
}

GraphPtr GraphCache::get(const CampaignConfig& cfg) {
  const std::string key = graph_key(cfg);
  auto it = graphs_.find(key);
  if (it != graphs_.end()) return it->second.graph;
  const auto t0 = Clock::now();
  auto g = std::make_shared<const rumor::graph::Graph>(rumor::sim::build_graph(cfg.graph, cfg.seed));
  const double ms = seconds_since(t0) * 1e3;
  if (g->num_nodes() < 2) throw std::runtime_error("degenerate graph for " + cfg.id);
  graphs_.emplace(key, Entry{g, ms, cfg.graph.family});
  return g;
}

bool GraphCache::contains(const CampaignConfig& cfg) const {
  return graphs_.count(graph_key(cfg)) != 0;
}

double GraphCache::build_ms(const CampaignConfig& cfg) const {
  return graphs_.at(graph_key(cfg)).build_ms;
}

std::string graph_key(const CampaignConfig& cfg) {
  const auto& g = cfg.graph;
  if (g.family == "file") return "file:" + g.path;
  static const std::set<std::string> kRandom = {"erdos_renyi", "random_regular", "chung_lu",
                                                "preferential_attachment", "watts_strogatz"};
  std::ostringstream key;
  key << g.family << "|" << g.n << "|" << g.degree << "|" << g.p << "|" << g.beta << "|"
      << g.average_degree;
  if (kRandom.count(g.family) != 0) key << "|" << (g.graph_seed != 0 ? g.graph_seed : cfg.seed);
  return key.str();
}

RepTiming run_user_path(const UserPath& path, rumor::obs::Telemetry* telemetry, RepOutput& out) {
  RepTiming t;
  const auto t0 = Clock::now();
  std::string name;
  out.configs = load_configs(path.spec_path, &name);
  const auto t1 = Clock::now();

  rumor::sim::CampaignOptions opts;
  opts.threads = kDefaultThreads;
  opts.telemetry = telemetry;
  if (path.workload == Workload::kCellStorm) {
    // The storm runs as a crash-safe campaign would, from a fresh start each
    // rep. A snapshot holds every cell (about 14 MB here) and each is
    // fsynced, whose latency on a shared disk swung reps by a third at one
    // snapshot every 1000 of its ~3500 blocks; one periodic snapshot (every
    // 2000) plus the final one keeps the writer in the path at a steadier
    // share.
    opts.checkpoint_file = path.work_dir + "/checkpoint.json";
    opts.checkpoint_every = 2000;
    std::filesystem::remove(opts.checkpoint_file);
    auto outcome = rumor::sim::run_campaign_resumable(out.configs, opts, name);
    out.results = std::move(outcome.results);
  } else {
    out.results = rumor::sim::run_campaign(out.configs, opts);
  }
  const auto t2 = Clock::now();

  out.reports = Json::array();
  for (const CampaignResult& r : out.results) out.reports.push_back(campaign_report(r, name));
  const std::string rendered = out.reports.dump(2);
  const std::string report_path = path.work_dir + "/reports.json";
  {
    std::ofstream f(report_path, std::ios::binary | std::ios::trunc);
    f << rendered << "\n";
    if (!f.flush()) throw std::runtime_error("cannot write " + report_path);
  }
  const auto t3 = Clock::now();
  out.render_hash = std::hash<std::string>{}(rendered);
  t.report_bytes = rendered.size() + 1;

  for (const CampaignResult& r : out.results) t.trials += r.summary.count();
  t.parse_s = std::chrono::duration<double>(t1 - t0).count();
  t.campaign_s = std::chrono::duration<double>(t2 - t1).count();
  t.report_s = std::chrono::duration<double>(t3 - t2).count();
  t.total_s = std::chrono::duration<double>(t3 - t0).count();
  return t;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  try {
    if (args.command == "run") return command_run(args);
    if (args.command == "reference") return command_reference(args);
    if (args.command == "selftest") return command_selftest(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  usage("unknown command " + args.command);
}
