// perfbench: the output check and the reference it compares against.
//
// A campaign passes only if every trial completed, every star sync
// push-pull cell meets the paper's two-round bound, every cell mean lies
// within kMeanZ standard errors of its recorded reference, the replicates
// of every template together lie within kPoolZ standard errors of theirs,
// and every batch_sync cell passes a two-sample KS test against the sync
// cell on the same graph. Trials of a failing cell count as failed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>

#include "dist/distributions.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

using rumor::core::EngineKind;

const Json* row_of(const Json& report) {
  const Json* rows = report.find("rows");
  if (rows == nullptr || !rows->is_array() || rows->elements().empty()) return nullptr;
  return &rows->elements().front();
}

double number_at(const Json& obj, std::string_view key) {
  const Json* v = obj.find(key);
  return v != nullptr && v->is_number() ? v->as_number() : std::nan("");
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

double cell_se(const RefEntry& e, std::uint64_t trials) {
  const double var = e.between_var +
                     e.within_var / static_cast<double>(std::max<std::uint64_t>(1, trials)) +
                     e.means_var / static_cast<double>(e.runs);
  return std::max(std::sqrt(var), kRelativeFloor * std::abs(e.mean) + 1e-12);
}

std::string template_of(const std::string& id) { return id.substr(0, id.rfind('@')); }

std::vector<DetectableShift> detectable_shifts(const std::vector<CampaignConfig>& configs,
                                               const Reference& reference) {
  struct Pool {
    std::size_t cells = 0;
    double ref_sum = 0.0;
    double var_sum = 0.0;
    double per_cell = 0.0;
  };
  std::map<std::string, Pool> pools;
  std::vector<std::string> order;
  for (const CampaignConfig& cfg : configs) {
    const auto ref = reference.find(cfg.id);
    if (ref == reference.end()) continue;
    const double se = cell_se(ref->second, reported_trials(cfg));
    auto [it, fresh] = pools.try_emplace(template_of(cfg.id));
    if (fresh) order.push_back(it->first);
    Pool& p = it->second;
    p.cells += 1;
    p.ref_sum += std::abs(ref->second.mean);
    p.var_sum += se * se;
    p.per_cell = std::max(p.per_cell, kMeanZ * se / std::abs(ref->second.mean));
  }
  std::vector<DetectableShift> out;
  for (const std::string& id : order) {
    const Pool& p = pools.at(id);
    if (p.cells < 2) continue;
    out.push_back({id, p.cells, kPoolZ * std::sqrt(p.var_sum) / p.ref_sum, p.per_cell});
  }
  return out;
}

std::optional<Reference> load_reference(const std::string& path) {
  std::string text;
  try {
    text = read_file(path);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return std::nullopt;
  }
  const auto doc = Json::parse(text);
  const Json* cells = doc ? doc->find("cells") : nullptr;
  if (cells == nullptr || !cells->is_object()) {
    std::cerr << "perfbench: " << path << ": not a reference document\n";
    return std::nullopt;
  }
  Reference ref;
  for (const auto& [id, e] : cells->entries()) {
    const auto& v = e.elements();
    bool ok = e.is_array() && v.size() == 5;
    for (std::size_t i = 0; ok && i < v.size(); ++i) {
      ok = v[i].is_number() && std::isfinite(v[i].as_number()) && v[i].as_number() >= 0.0;
    }
    if (!ok || v[4].as_number() < 2.0) {
      std::cerr << "perfbench: " << path << ": malformed entry '" << id << "'\n";
      return std::nullopt;
    }
    ref.emplace(id, RefEntry{v[0].as_number(), v[1].as_number(), v[2].as_number(),
                             v[3].as_number(), static_cast<std::uint64_t>(v[4].as_number())});
  }
  return ref;
}

std::string make_reference(const std::vector<std::vector<CampaignResult>>& runs,
                           const std::vector<std::vector<CampaignConfig>>& configs) {
  struct Pool {
    std::vector<double> means;
    std::vector<double> vars;
    std::uint64_t trials = 0;
  };
  std::map<std::string, Pool> pools;
  std::vector<std::string> order;
  for (std::size_t run = 0; run < runs.size(); ++run) {
    for (std::size_t c = 0; c < runs[run].size(); ++c) {
      const CampaignResult& r = runs[run][c];
      auto [it, fresh] = pools.try_emplace(r.id);
      if (fresh) order.push_back(r.id);
      it->second.means.push_back(r.summary.mean());
      it->second.vars.push_back(r.summary.stddev() * r.summary.stddev());
      it->second.trials = reported_trials(configs[run][c]);
    }
  }
  std::string out = "{\"cells\": {";
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Pool& p = pools.at(order[i]);
    const double n = static_cast<double>(p.means.size());
    double mean = 0.0;
    double within = 0.0;
    for (std::size_t k = 0; k < p.means.size(); ++k) {
      mean += p.means[k];
      within += p.vars[k];
    }
    mean /= n;
    within /= n;
    double means_var = 0.0;
    for (double m : p.means) means_var += (m - mean) * (m - mean);
    means_var /= n > 1.0 ? n - 1.0 : 1.0;
    // One-way random effects: whatever spread of the means the trial
    // variance does not explain (a raced source's choice, say).
    const double trials = static_cast<double>(std::max<std::uint64_t>(1, p.trials));
    const double between = std::max(0.0, means_var - within / trials);
    char line[512];
    std::snprintf(line, sizeof line, "%s\n \"%s\": [%.17g, %.17g, %.17g, %.17g, %zu]",
                  i == 0 ? "" : ",", order[i].c_str(), mean, within, between, means_var,
                  p.means.size());
    out += line;
  }
  out += "\n}}\n";
  return out;
}

CheckOutcome check_outputs(const std::vector<CampaignConfig>& configs,
                           const std::vector<CampaignResult>& results,
                           const std::vector<Json>& reports, const Reference& reference) {
  CheckOutcome out;
  for (const CampaignConfig& cfg : configs) out.attempted += reported_trials(cfg);
  if (results.size() != configs.size() || reports.size() != configs.size()) {
    out.failed = out.attempted;
    out.problems.push_back("campaign returned " + std::to_string(results.size()) +
                           " results and " + std::to_string(reports.size()) + " reports for " +
                           std::to_string(configs.size()) + " cells");
    return out;
  }
  // Per template: the sum of its replicates' deviations from their own
  // references and the sum of their variances. A defect that shifts every
  // replicate alike adds up across them; noise adds up only as its root.
  struct Pool {
    double shift = 0.0;
    double var = 0.0;
    std::vector<std::size_t> cells;
  };
  std::map<std::string, Pool> pools;
  std::vector<bool> cell_failed(configs.size(), false);
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const CampaignConfig& cfg = configs[c];
    const CampaignResult& res = results[c];
    const std::uint64_t want = reported_trials(cfg);
    const std::uint64_t got = res.summary.count();
    std::vector<std::string> faults;

    if (got != want) {
      faults.push_back(std::to_string(got) + " of " + std::to_string(want) + " trials completed");
    }
    const Json* row = row_of(reports[c]);
    if (row == nullptr) {
      faults.push_back("report has no result row");
    } else {
      const double mean = number_at(*row, "mean");
      if (cfg.graph.family == "star" && cfg.engine == EngineKind::kSync &&
          cfg.mode == rumor::core::Mode::kPushPull && cfg.message_loss == 0.0 &&
          cfg.dynamics.is_static()) {
        const double hp = number_at(*row, "hp_time");
        if (!(hp <= kStarSyncBound)) {
          faults.push_back("star sync hp_time " + fmt(hp) + " > " + fmt(kStarSyncBound));
        }
      }
      const auto ref = reference.find(res.id);
      if (ref == reference.end()) {
        faults.push_back("no reference for this cell");
      } else {
        const RefEntry& e = ref->second;
        const double se = cell_se(e, want);
        const double z = std::abs(mean - e.mean) / se;
        Pool& pool = pools[template_of(res.id)];
        pool.shift += mean - e.mean;
        pool.var += se * se;
        pool.cells.push_back(c);
        out.max_z = std::max(out.max_z, std::isfinite(z) ? z : HUGE_VAL);
        if (!(z <= kMeanZ)) {
          faults.push_back("mean " + fmt(mean) + " is " + fmt(z) + " standard errors from " +
                           fmt(e.mean));
        }
      }
    }
    if (cfg.engine == EngineKind::kBatchSync) {
      const CampaignResult* twin = nullptr;
      for (std::size_t t = 0; t < configs.size(); ++t) {
        if (configs[t].engine == EngineKind::kSync && configs[t].mode == cfg.mode &&
            configs[t].message_loss == cfg.message_loss && graph_key(configs[t]) == graph_key(cfg)) {
          twin = &results[t];
          break;
        }
      }
      if (twin == nullptr) {
        faults.push_back("no sync twin on the same graph");
      } else if (res.summary.reservoir().values().size() != got ||
                 twin->summary.reservoir().values().size() != twin->summary.count() ||
                 got == 0) {
        faults.push_back("reservoir smaller than the trial count; the KS test needs every trial");
      } else {
        const auto ks = rumor::dist::ks_two_sample_test(res.summary.reservoir().values(),
                                                        twin->summary.reservoir().values());
        if (!(ks.p_value >= kKsAlpha)) {
          faults.push_back("KS against sync twin: D = " + fmt(ks.statistic) + ", p = " +
                           fmt(ks.p_value) + " < " + fmt(kKsAlpha));
        }
      }
    }
    if (!faults.empty()) {
      out.failed += want;
      cell_failed[c] = true;
      std::ostringstream msg;
      msg << res.id << ":";
      for (const std::string& f : faults) msg << " " << f << ";";
      out.problems.push_back(msg.str());
    }
  }
  for (const auto& [id, pool] : pools) {
    if (pool.cells.size() < 2) continue;
    const double z = std::abs(pool.shift) / std::sqrt(pool.var);
    out.max_pool_z = std::max(out.max_pool_z, std::isfinite(z) ? z : HUGE_VAL);
    if (z <= kPoolZ) continue;
    for (std::size_t c : pool.cells) {
      if (!cell_failed[c]) out.failed += reported_trials(configs[c]);
      cell_failed[c] = true;
    }
    out.problems.push_back(id + ": pooled mean of " + std::to_string(pool.cells.size()) +
                           " replicates is " + fmt(z) + " pooled standard errors off (" +
                           fmt(pool.shift / static_cast<double>(pool.cells.size())) +
                           " per cell)");
  }
  return out;
}

}  // namespace perfbench
