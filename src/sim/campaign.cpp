#include "sim/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <variant>

#include "core/quasirandom.hpp"
#include "core/trajectory.hpp"
#include "graph/generators.hpp"
#include "graph/graph_store.hpp"
#include "obs/telemetry.hpp"
#include "rng/rng.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"

namespace rumor::sim {

using graph::Graph;

// --- Graph construction from a spec -----------------------------------------

Graph build_graph(const GraphSpec& spec, std::uint64_t fallback_seed) {
  if (spec.family == "file") {
    // A packed store: mmap it. Its shape is whatever was packed — n and the
    // generator params play no role (the parser rejects them up front).
    if (spec.path.empty()) {
      throw std::runtime_error("build_graph: graph kind 'file' needs a non-empty path");
    }
    return graph::open_graph_store(spec.path);
  }
  if (spec.n < 2 || spec.n > std::numeric_limits<graph::NodeId>::max()) {
    throw std::runtime_error("build_graph: '" + spec.family + "' needs 2 <= n <= 2^32-1");
  }
  const auto n = static_cast<graph::NodeId>(spec.n);
  const std::uint64_t graph_seed = spec.graph_seed != 0 ? spec.graph_seed : fallback_seed;
  // A dedicated stream tag keeps graph randomness disjoint from the trial
  // streams derive_stream(seed, 0..trials) of the same configuration.
  rng::Engine eng = rng::derive_stream(graph_seed, 0x67726170685f5f5fULL);

  const std::string& f = spec.family;
  if (f == "complete") return graph::complete(n);
  if (f == "star") return graph::star(n);
  if (f == "double_star") return graph::double_star(n);
  if (f == "path") return graph::path(n);
  if (f == "cycle") return graph::cycle(n);
  if (f == "wheel") return graph::wheel(n);
  if (f == "tree" || f == "complete_binary_tree") return graph::complete_binary_tree(n);
  if (f == "complete_bipartite") return graph::complete_bipartite(n / 2, n - n / 2);
  if (f == "torus") {
    const auto side = std::max<graph::NodeId>(
        2, static_cast<graph::NodeId>(std::llround(std::sqrt(static_cast<double>(n)))));
    return graph::torus(side);
  }
  if (f == "torus3d") {
    const auto side = std::max<graph::NodeId>(
        2, static_cast<graph::NodeId>(std::llround(std::cbrt(static_cast<double>(n)))));
    return graph::torus3d(side);
  }
  if (f == "hypercube") {
    const auto dim = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(std::llround(std::log2(static_cast<double>(n)))));
    return graph::hypercube(dim);
  }
  if (f == "erdos_renyi") {
    const double p =
        spec.p > 0.0 ? spec.p : 3.0 * std::log(static_cast<double>(n)) / static_cast<double>(n);
    return graph::largest_component(graph::erdos_renyi(n, p, eng));
  }
  if (f == "random_regular") {
    const std::uint32_t d = spec.degree != 0 ? spec.degree : 6;
    // The configuration model needs n*d even; round the odd case up so
    // size sweeps over arbitrary n stay valid (the actual n is reported).
    const graph::NodeId nn = (std::uint64_t{n} * d) % 2 == 0 ? n : n + 1;
    return graph::random_regular(nn, d, eng);
  }
  if (f == "chung_lu") {
    graph::ChungLuOptions options;
    options.beta = spec.beta;
    options.average_degree = spec.average_degree;
    return graph::largest_component(graph::chung_lu(n, options, eng));
  }
  if (f == "preferential_attachment") {
    return graph::preferential_attachment(n, spec.degree != 0 ? spec.degree : 3, eng);
  }
  if (f == "watts_strogatz") {
    std::uint32_t k = spec.degree != 0 ? spec.degree : 4;
    if (k % 2 != 0) ++k;  // the lattice needs an even k
    const double rewire = spec.p > 0.0 ? spec.p : 0.1;
    return graph::largest_component(graph::watts_strogatz(n, k, rewire, eng));
  }
  throw std::runtime_error("build_graph: unknown graph family '" + f + "'");
}

std::string config_error(const CampaignConfig& cfg) {
  const bool race = cfg.source_policy == SourcePolicy::kRace;
  if (!cfg.dynamics.is_static()) {
    // The engines only support dynamics where the contact sequence is
    // drawn against the live adjacency.
    if (cfg.engine != EngineKind::kSync && cfg.engine != EngineKind::kAsync) {
      return std::string("'dynamics' needs engine 'sync' or 'async' (got '") +
             engine_name(cfg.engine) + "')";
    }
    if (cfg.engine == EngineKind::kAsync && cfg.view != core::AsyncView::kGlobalClock) {
      return "'dynamics' needs the global-clock async view";
    }
    const dynamics::ChurnParams& churn = cfg.dynamics.churn;
    const bool churn_probs_ok =
        churn.model != dynamics::ChurnModel::kMarkov ||
        (churn.birth >= 0.0 && churn.birth <= 1.0 && churn.death >= 0.0 && churn.death <= 1.0);
    const bool rewire_ok = churn.model != dynamics::ChurnModel::kRewire ||
                           (churn.rewire >= 0.0 && churn.rewire <= 1.0);
    if (!churn_probs_ok || !rewire_ok || churn.period == 0 ||
        cfg.dynamics.weights.alpha <= 0.0) {
      return "'dynamics' has out-of-range parameters";
    }
  }
  if (cfg.engine == EngineKind::kBatchSync) {
    // One lane batch shares one stream, so there is no per-source stream
    // family to race and no per-trial telemetry (curves, below).
    if (cfg.lanes == 0 || cfg.lanes > core::kMaxBatchLanes) {
      return "engine 'batch_sync' has lanes " + std::to_string(cfg.lanes) + " outside 1.." +
             std::to_string(core::kMaxBatchLanes);
    }
    if (race) return "engine 'batch_sync' needs a fixed source (not \"race\")";
  }
  if (cfg.curves.enabled) {
    // Curves need a per-trial contact structure to classify and one fixed
    // trial population per cell.
    if (cfg.engine == EngineKind::kAux || cfg.engine == EngineKind::kBatchSync) {
      return std::string("'curves' is not supported for engine '") + engine_name(cfg.engine) +
             "'";
    }
    if (race) return "'curves' needs a fixed source (not \"race\")";
    if (cfg.curves.points == 0) return "curves: key 'points' must be >= 1";
    if (cfg.engine == EngineKind::kAsync && !(cfg.curves.time_bucket > 0.0)) {
      return "curves: key 'time_bucket' must be > 0";
    }
  }
  if (race && (cfg.race.screen_trials == 0 || cfg.race.finalists == 0)) {
    return "a race needs screen_trials >= 1 and finalists >= 1";
  }
  return {};
}

// --- The shared-queue scheduler ----------------------------------------------
//
// Every configuration runs as passes (the pass model of sim/checkpoint.hpp):
// one kTrials pass for a fixed source; for a race, a kPlan block, a kScreen
// pass over the candidates and a kRefine pass over the leaders. Each block
// runs one (entrant, slot) cell of its pass; the worker that counts the
// pass down to zero folds it in slot order, then hands off or publishes. A
// fresh start, a resume and a race hand-off all open their pass through one
// function, which enqueues exactly the cells still missing.

namespace {

/// The configuration's dynamics spec with its seed resolved (0 = derive
/// from the configuration seed) — what views and reports actually use.
dynamics::DynamicsSpec resolved_dynamics(const CampaignConfig& cfg) noexcept {
  dynamics::DynamicsSpec spec = cfg.dynamics;
  if (spec.seed == 0) spec.seed = cfg.seed;
  return spec;
}

/// Folds one trial's probe counters plus its tick count (rounds for round
/// grids, events for time grids) and final informed count into the
/// configuration's exact contact totals. The tick definition mirrors what
/// run_one adds to WorkerMetrics, so the obs registry cross-check in
/// rumor_bench can compare the two sums exactly.
void fold_probe(stats::ContactTotals& totals, const core::SpreadProbe& probe,
                std::uint64_t ticks, std::uint64_t informed) noexcept {
  totals.contacts += probe.contacts;
  totals.useful_push += probe.useful_push;
  totals.useful_pull += probe.useful_pull;
  totals.wasted_push += probe.wasted_push;
  totals.wasted_pull += probe.wasted_pull;
  totals.empty_contacts += probe.empty_contacts;
  totals.ticks += ticks;
  totals.informed_total += informed;
}

/// One execution of the configured protocol from `source`; the campaign
/// analogue of the measure_* wrappers in harness.cpp. The trial engine is
/// derive_stream(stream_seed, trial); a non-static dynamics spec adds a
/// per-trial overlay view whose churn streams derive from the same
/// (stream_seed, trial) identity, so dynamic configurations keep the
/// bit-determinism contract across thread counts and block sizes.
///
/// Spread telemetry: when `curve_out` is non-null the trial runs with a
/// core::SpreadProbe attached (never changing its randomness or result),
/// `curve_out` receives the informed-count curve on the configuration's
/// native grid — per round for sync/quasirandom, per cfg.curves.time_bucket
/// for async — and the probe counters fold into `totals`.
double run_one(const CampaignConfig& cfg, const Graph& g,
               const dynamics::NeighborAliasTable* shared_weighted,
               const std::vector<graph::Edge>* shared_edges, graph::NodeId source,
               std::uint64_t stream_seed, std::uint64_t trial, obs::WorkerMetrics* metrics,
               std::vector<double>* curve_out, stats::ContactTotals* totals) {
  rng::Engine eng = rng::derive_stream(stream_seed, trial);
  std::optional<dynamics::DynamicGraphView> view;
  core::TrialOptions options;
  options.mode = cfg.mode;
  options.message_loss = cfg.message_loss;
  if (!cfg.dynamics.is_static()) {
    view.emplace(g, resolved_dynamics(cfg), shared_weighted, stream_seed, trial, shared_edges);
    options.dynamics = &*view;
  }
  core::SpreadProbe probe;
  if (curve_out != nullptr) options.probe = &probe;
  core::TrialExtras extras;
  extras.view = cfg.view;
  extras.aux = cfg.aux;
  const auto outcome = core::run_trial(cfg.engine, g, source, eng, options, extras);
  if (!outcome.completed) {
    throw std::runtime_error(std::string("campaign: engine '") + engine_name(cfg.engine) +
                             "' hit its tick cap (disconnected or churned-out graph?)");
  }
  if (metrics != nullptr) {
    if (cfg.engine == EngineKind::kAsync) {
      metrics->async_events += outcome.ticks;
    } else {
      metrics->sync_rounds += outcome.ticks;
    }
  }
  if (curve_out != nullptr) {
    const auto curve =
        cfg.engine == EngineKind::kAsync
            ? core::informed_time_curve(outcome.informed_time, cfg.curves.time_bucket)
            : core::informed_round_curve(outcome.informed_round, outcome.ticks);
    curve_out->assign(curve.begin(), curve.end());
    fold_probe(*totals, probe, outcome.ticks, g.num_nodes());
  }
  return outcome.value;
}

/// The per-source stream family of the two-stage race (kept identical to
/// the historical sim/adversary scheme): candidate u's screening trial t
/// runs on derive_stream(seed + kSourceStride * u, t) and its refinement
/// trial on derive_stream(seed + 1 + kSourceStride * u, t).
constexpr std::uint64_t kSourceStride = 0x9e3779b9ULL;

/// What a scheduled block does: run one cell of its configuration's
/// current pass (kTrials, kScreen, kRefine — numbered like PassKind), or
/// plan a race (build the graph, pick candidates, open the screen pass).
enum class BlockKind : std::uint8_t { kTrials, kScreen, kRefine, kPlan };

/// Trace span names (string literals: TraceSpan stores the pointer) and
/// the short phase labels the progress heartbeat shows, by BlockKind.
constexpr const char* kBlockSpanName[] = {"block:trials", "block:screen", "block:refine",
                                          "block:plan"};
constexpr const char* kBlockPhaseName[] = {"trials", "screen", "refine", "plan"};

/// A single worker runs every trials and plan block first, then screen
/// cells, then refine cells: each pass joins the queue behind every block
/// that existed when its predecessor finished. Resumed blocks enqueue in
/// that order too, so a resumed run picks up exactly where an unbroken one
/// would be.
constexpr int queue_rank(BlockKind k) noexcept {
  return k == BlockKind::kPlan ? 0 : static_cast<int>(k);
}

struct Block {
  std::size_t config = 0;   // index into `configs`
  BlockKind kind = BlockKind::kTrials;
  std::uint32_t entrant = 0;  // index into the pass's entrants
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::size_t slot = 0;     // block ordinal within its (config, pass, entrant)
};

/// Degree-stratified candidate list: sort nodes by degree and take every
/// k-th, guaranteeing the extremes are included. Spreading-time extremes
/// correlate strongly with degree (peripheral low-degree nodes are slow
/// sources), so stratification loses little versus screening everything.
std::vector<graph::NodeId> candidate_sources(const Graph& g, std::uint32_t max_candidates) {
  const graph::NodeId n = g.num_nodes();
  std::vector<graph::NodeId> order(n);
  std::iota(order.begin(), order.end(), graph::NodeId{0});
  if (max_candidates == 0 || n <= max_candidates) return order;
  std::sort(order.begin(), order.end(),
            [&](graph::NodeId a, graph::NodeId b) { return g.degree(a) < g.degree(b); });
  // A single-candidate race keeps the min-degree node (the best worst-source
  // guess); it also keeps the stride below finite.
  if (max_candidates == 1) return {order.front()};
  std::vector<graph::NodeId> picked;
  picked.reserve(max_candidates);
  const double stride = static_cast<double>(n - 1) / (max_candidates - 1);
  for (std::uint32_t i = 0; i < max_candidates; ++i) {
    picked.push_back(order[static_cast<std::size_t>(i * stride)]);
  }
  return picked;
}

/// A configuration's current pass. Partials land in their cell, and the
/// worker that counts `left` down to zero folds them in slot order — a
/// fixed-order reduction tree, so the result does not depend on completion
/// order or thread count.
struct Pass {
  PassKind kind = PassKind::kTrials;
  std::vector<graph::NodeId> entrants;  // {cfg.source}, candidates, or finalists
  std::uint64_t trials = 0;             // per entrant
  std::uint64_t block = 1;              // trials per slot
  std::size_t slots = 0;                // per entrant
  std::vector<PassPartial> grid;        // [entrant * slots + slot]
  bool whole = true;                    // this run owns every cell (else merge folds)
  std::atomic<std::uint64_t> left{0};   // owned blocks not yet finished

  PassPartial& cell(std::uint32_t entrant, std::size_t slot) {
    return grid[entrant * slots + slot];
  }
  std::span<PassPartial> row(std::uint32_t entrant) {
    return {grid.data() + static_cast<std::size_t>(entrant) * slots, slots};
  }
};

/// Mutable per-configuration scheduling state.
struct ConfigState {
  std::once_flag build_once;
  std::shared_ptr<const Graph> graph;
  /// Static-weights fast path: one alias sampler per configuration, built
  /// alongside the graph and shared (read-only) by every trial. Null when
  /// the config is unweighted or churned (churn overlays build their own
  /// per-epoch tables).
  std::shared_ptr<const dynamics::NeighborAliasTable> weighted;
  /// Churn configs: the base edge list, extracted once per configuration
  /// and shared read-only by every trial's overlay view.
  std::shared_ptr<const std::vector<graph::Edge>> edges;
  Pass pass;
};

/// The shared work queue. Unlike a fixed block list with an atomic cursor,
/// race configurations *append* blocks while the campaign runs (screen
/// after plan, refine after screen), so the queue tracks how many pushed
/// blocks have not finished yet: workers exit when the queue is empty AND
/// nothing is in flight (an in-flight block may still push successors).
class BlockQueue {
 public:
  /// `tel` may be null (telemetry disabled). The queue's own mutex
  /// serializes the telemetry's queue-side hooks (scheduling counter and
  /// depth histogram) — no extra synchronization inside the telemetry.
  explicit BlockQueue(obs::Telemetry* tel) noexcept : tel_(tel) {}

  void push(std::vector<Block> blocks) {
    {
      const std::scoped_lock lock(mutex_);
      outstanding_ += blocks.size();
      for (Block& b : blocks) queue_.push_back(b);
      if (tel_ != nullptr) tel_->on_blocks_scheduled(blocks.size());
    }
    cv_.notify_all();
  }

  /// Blocks until work is available or the campaign is finished/aborted.
  /// Returns false when the worker should exit.
  bool pop(Block& out) {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return aborted_ || !queue_.empty() || outstanding_ == 0; });
    if (aborted_ || queue_.empty()) return false;
    out = queue_.front();
    queue_.pop_front();
    if (tel_ != nullptr) tel_->sample_queue_depth(queue_.size());
    return true;
  }

  /// Marks one popped block as finished (after any successor pushes).
  void finish_one() {
    bool drained = false;
    {
      const std::scoped_lock lock(mutex_);
      drained = --outstanding_ == 0;
    }
    if (drained) cv_.notify_all();
  }

  void abort() {
    {
      const std::scoped_lock lock(mutex_);
      aborted_ = true;
      outstanding_ -= queue_.size();
      queue_.clear();
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Block> queue_;
  std::size_t outstanding_ = 0;  // queued + currently processing
  bool aborted_ = false;
  obs::Telemetry* tel_;  // borrowed; hooks called under mutex_
};

/// Trials per slot. Batch configs pin the slot grid to the lane width (a
/// trial block IS one lane batch), so slot boundaries stay a pure function
/// of the config — never of --block-size — and checkpoints stay
/// addressable.
std::uint64_t pass_block_size(const CampaignConfig& cfg, PassKind kind,
                              std::uint64_t block_size) noexcept {
  return kind == PassKind::kTrials ? effective_block_size(cfg, block_size)
                                   : std::max<std::uint64_t>(block_size, 1);
}

}  // namespace

std::uint64_t pass_trials(const CampaignConfig& cfg, PassKind kind) noexcept {
  switch (kind) {
    case PassKind::kTrials: return cfg.trials;
    case PassKind::kScreen: return cfg.race.screen_trials;
    case PassKind::kRefine: return cfg.race.final_trials != 0 ? cfg.race.final_trials : cfg.trials;
  }
  return cfg.trials;
}

std::size_t pass_slots(const CampaignConfig& cfg, PassKind kind,
                       std::uint64_t block_size) noexcept {
  const std::uint64_t block = pass_block_size(cfg, kind, block_size);
  return static_cast<std::size_t>((pass_trials(cfg, kind) + block - 1) / block);
}

void PassPartial::merge(const PassPartial& other) {
  moments.merge(other.moments);
  if (summary) summary->merge(*other.summary);
  if (curves) {
    curves->merge(*other.curves);
    contacts.merge(other.contacts);
  }
}

PassPartial fold_slots(std::span<PassPartial> slots) {
  PassPartial total = std::move(slots.front());
  for (std::size_t s = 1; s < slots.size(); ++s) total.merge(slots[s]);
  return total;
}

CampaignResult campaign_result_skeleton(const CampaignConfig& cfg, std::size_t index) {
  CampaignResult r;
  r.id = resolved_config_id(cfg, index);
  if (cfg.trials == 0) {
    throw std::runtime_error("campaign: configuration '" + r.id + "' has trials == 0");
  }
  r.engine = engine_name(cfg.engine);
  r.mode = core::mode_name(cfg.mode);
  if (cfg.engine == EngineKind::kBatchSync) r.lanes = cfg.lanes;
  r.seed = cfg.seed;
  r.source = cfg.source;
  r.source_policy = cfg.source_policy;
  r.dynamics = resolved_dynamics(cfg);
  r.trials = pass_trials(
      cfg, cfg.source_policy == SourcePolicy::kRace ? PassKind::kRefine : PassKind::kTrials);
  r.hp_q = cfg.hp_q > 0.0 ? cfg.hp_q : 1.0 / static_cast<double>(r.trials);
  r.has_curves = cfg.curves.enabled;
  r.curves_spec = cfg.curves;
  return r;
}

namespace {

/// One scheduler run: the configurations' pass state and results, the
/// shared queue, and a handler per block kind. The worker loop in
/// run_campaign_impl only pops blocks and hands them to run().
struct CampaignRun {
  CampaignRun(const std::vector<CampaignConfig>& configs_in, const CampaignOptions& options_in,
              std::uint32_t shard_in, CampaignRecorder* recorder_in)
      : configs(configs_in),
        options(options_in),
        block_size(std::max<std::uint64_t>(options_in.block_size, 1)),
        shard_count(std::max<std::uint32_t>(options_in.shard_count, 1)),
        shard(shard_in),
        recorder(recorder_in),
        queue(options_in.telemetry),
        states(configs_in.size()),
        results(configs_in.size()) {}

  /// Configuration c's blocks at start-up, from its restored progress (a
  /// fresh run restores nothing). Sharded runs skip races other shards own.
  std::vector<Block> start(std::size_t c, CampaignRecorder::Restored& rest) {
    if (rest.result) {
      results[c] = std::move(*rest.result);
      return {};
    }
    if (configs[c].source_policy != SourcePolicy::kRace) {
      return open_pass(c, PassKind::kTrials, {configs[c].source}, std::move(rest.cells));
    }
    // Races are owned wholesale by one shard, so the screen/refine
    // successors of the plan block always stay with their owner.
    if (shard_of_block(results[c].id, 0, /*whole_config=*/true, shard_count) != shard) return {};
    if (!rest.pass) return {Block{c, BlockKind::kPlan, 0, 0, 0, 0}};
    return open_pass(c, *rest.pass, std::move(rest.entrants), std::move(rest.cells));
  }

  /// Opens configuration c's `kind` pass over `entrants`, adopts the
  /// restored cells, and returns a block for every owned cell still
  /// missing. When a snapshot holds every cell of a pass this run owns
  /// whole but predates its fold (a periodic write can land between a
  /// pass's last record and its fold), the last cell re-runs to fire the
  /// fold: recording is idempotent and re-running a block is bit-neutral.
  std::vector<Block> open_pass(std::size_t c, PassKind kind, std::vector<graph::NodeId> entrants,
                               std::map<PassCell, PassPartial> restored) {
    Pass& p = states[c].pass;
    p.kind = kind;
    p.entrants = std::move(entrants);
    p.trials = pass_trials(configs[c], kind);
    p.block = pass_block_size(configs[c], kind, block_size);
    p.slots = pass_slots(configs[c], kind, block_size);
    p.grid = std::vector<PassPartial>(p.entrants.size() * p.slots);
    for (auto& [cell, partial] : restored) p.cell(cell.first, cell.second) = std::move(partial);
    std::vector<Block> missing;
    std::size_t owned = 0;
    for (std::uint32_t e = 0; e < p.entrants.size(); ++e) {
      for (std::size_t s = 0; s < p.slots; ++s) {
        // Trial slots scatter across shards; race passes stay with their plan.
        if (kind == PassKind::kTrials &&
            shard_of_block(results[c].id, s, /*whole_config=*/false, shard_count) != shard) {
          continue;
        }
        ++owned;
        if (restored.count({e, s}) == 0) missing.push_back(cell_block(c, e, s));
      }
    }
    p.whole = owned == p.grid.size();
    if (missing.empty() && p.whole) {
      missing.push_back(
          cell_block(c, static_cast<std::uint32_t>(p.entrants.size() - 1), p.slots - 1));
    }
    p.left.store(missing.size(), std::memory_order_relaxed);
    return missing;
  }

  Block cell_block(std::size_t c, std::uint32_t entrant, std::size_t slot) {
    const Pass& p = states[c].pass;
    const std::uint64_t begin = static_cast<std::uint64_t>(slot) * p.block;
    return Block{c, static_cast<BlockKind>(p.kind), entrant, begin,
                 std::min(begin + p.block, p.trials), slot};
  }

  void run(const Block& block, obs::WorkerSink* sink) {
    build_graph_once(block.config, sink);
    if (block.kind == BlockKind::kPlan) {
      plan(block.config);
    } else {
      run_cell(block, sink);
    }
  }

  /// Lazy one-shot graph construction on whichever worker gets there first;
  /// prebuilt graphs are shared as-is. call_once re-runs on a later caller
  /// if the builder throws, but the error capture drains the queue before
  /// that matters.
  void build_graph_once(std::size_t c, obs::WorkerSink* sink) {
    const CampaignConfig& cfg = configs[c];
    ConfigState& st = states[c];
    std::call_once(st.build_once, [&] {
      const std::uint64_t build_begin = sink != nullptr ? sink->now_ns() : 0;
      bool opened_store = false;
      if (cfg.prebuilt != nullptr) {
        st.graph = cfg.prebuilt;
      } else if (cfg.graph.family == "file") {
        // Shared read-only cache: every config naming the same packed store
        // shares one mmap for the whole campaign (the OS page cache extends
        // the sharing across --shard processes). Opened under the cache
        // lock, so a concurrent config waits for the first mapping.
        const std::lock_guard<std::mutex> lock(file_graph_mutex);
        auto it = file_graphs.find(cfg.graph.path);
        if (it == file_graphs.end()) {
          auto g = std::make_shared<const Graph>(graph::open_graph_store(cfg.graph.path));
          it = file_graphs.emplace(cfg.graph.path, std::move(g)).first;
          opened_store = true;
        }
        st.graph = it->second;
      } else {
        st.graph = std::make_shared<const Graph>(build_graph(cfg.graph, cfg.seed));
      }
      // Snapshot the built graph's identity: merge needs it to assemble
      // results for configurations whose blocks were split across shards.
      if (recorder != nullptr) recorder->record_graph(c, st.graph->name(), st.graph->num_nodes());
      if (cfg.dynamics.weights.model != dynamics::WeightModel::kNone &&
          cfg.dynamics.churn.model == dynamics::ChurnModel::kNone) {
        const dynamics::DynamicsSpec spec = resolved_dynamics(cfg);
        auto sampler = std::make_shared<dynamics::NeighborAliasTable>();
        sampler->build(dynamics::csr_offsets(*st.graph),
                       dynamics::make_edge_weights(*st.graph, spec.weights, spec.seed));
        st.weighted = std::move(sampler);
      }
      if (cfg.dynamics.churn.model != dynamics::ChurnModel::kNone) {
        st.edges = std::make_shared<const std::vector<graph::Edge>>(
            dynamics::base_edge_list(*st.graph));
      }
      if (sink != nullptr) {
        // File-backed configs that hit the cache did not materialize
        // anything: graph_builds counts mappings/constructions, so N cells
        // sharing one store contribute exactly one build.
        if (cfg.graph.family != "file" || opened_store) sink->metrics.graph_builds += 1;
        sink->span("graph:build", build_begin, sink->now_ns(), static_cast<std::uint32_t>(c));
      }
      // The engines only assert() that a source is a node, which compiles
      // out in Release. A spec's source and a snapshot's candidates and
      // finalists are input, so check them once, against the built graph.
      for (const graph::NodeId u : st.pass.entrants) {
        if (u < st.graph->num_nodes()) continue;
        const PassKind kind = st.pass.kind;
        throw std::runtime_error(
            std::string(kind == PassKind::kTrials ? "campaign" : "checkpoint") +
            ": configuration '" + results[c].id + "' " +
            (kind == PassKind::kTrials ? "source "
             : kind == PassKind::kScreen ? "candidate "
                                         : "finalist ") +
            std::to_string(u) + " is out of range for " + st.graph->name());
      }
    });
  }

  /// kPlan: pick the race's candidates and open its screen pass. The
  /// entrants are recorded before any screen block can run, so no snapshot
  /// holds a screen cell without the candidate list it indexes.
  void plan(std::size_t c) {
    ConfigState& st = states[c];
    std::vector<Block> screen = open_pass(
        c, PassKind::kScreen, candidate_sources(*st.graph, configs[c].race.max_candidates), {});
    if (recorder != nullptr) recorder->record_entrants(c, PassKind::kScreen, st.pass.entrants);
    queue.push(std::move(screen));
  }

  /// kTrials / kScreen / kRefine: run one cell of the current pass, record
  /// it, and close the pass if this was its last block.
  void run_cell(const Block& block, obs::WorkerSink* sink) {
    const CampaignConfig& cfg = configs[block.config];
    ConfigState& st = states[block.config];
    Pass& p = st.pass;
    const Graph& g = *st.graph;
    obs::WorkerMetrics* const metrics = sink != nullptr ? &sink->metrics : nullptr;
    const graph::NodeId u = p.entrants[block.entrant];
    PassPartial partial;
    if (p.kind != PassKind::kScreen) {
      partial.summary.emplace(
          summary_options_for(cfg, options.sketch_capacity, options.reservoir_capacity));
    }
    if (cfg.curves.enabled) partial.curves.emplace(curve_options_for(cfg, options.sketch_capacity));
    if (cfg.engine == EngineKind::kBatchSync) {
      // One block = one lane batch on one shared engine, seeded by the
      // block's first trial index — the batch analogue of run_one's
      // derive_stream(seed, t) identity. pass_block_size pinned the slot
      // grid to cfg.lanes, so lane l of this block is trial block.begin + l
      // under every thread count, shard split, and resume.
      core::BatchSyncOptions batch_options;
      batch_options.mode = cfg.mode;
      batch_options.message_loss = cfg.message_loss;
      batch_options.lanes = static_cast<std::uint32_t>(block.end - block.begin);
      rng::Engine eng = rng::derive_stream(cfg.seed, block.begin);
      const core::BatchSyncResult batch = core::run_batch_sync(g, u, eng, batch_options);
      if (!batch.completed) {
        throw std::runtime_error(
            "campaign: engine 'batch_sync' hit its round cap (disconnected graph?)");
      }
      for (std::uint32_t l = 0; l < batch.lanes; ++l) {
        partial.add(static_cast<double>(batch.rounds[l]), block.begin + l);
      }
      if (metrics != nullptr) metrics->sync_rounds += batch.total_rounds;
    } else {
      const std::uint64_t stream_seed =
          p.kind == PassKind::kTrials
              ? cfg.seed
              : cfg.seed + (p.kind == PassKind::kRefine ? 1 : 0) + kSourceStride * u;
      std::vector<double> curve;
      for (std::uint64_t t = block.begin; t < block.end; ++t) {
        partial.add(run_one(cfg, g, st.weighted.get(), st.edges.get(), u, stream_seed, t, metrics,
                            partial.curves ? &curve : nullptr, &partial.contacts),
                    t);
        if (partial.curves) partial.curves->add(curve);
      }
    }
    PassPartial& cell = p.cell(block.entrant, block.slot);
    cell = std::move(partial);
    if (recorder != nullptr) {
      recorder->record_cell(block.config, p.kind, {block.entrant, block.slot}, cell);
    }
    if (p.left.fetch_sub(1, std::memory_order_acq_rel) == 1) close_pass(block.config, sink);
  }

  /// Runs on the worker that finished a pass's last block: folds the pass
  /// in slot order, then hands off (screen to refine) or publishes the
  /// result and releases the graph and partials — from there on the
  /// configuration occupies only its constant-size result.
  void close_pass(std::size_t c, obs::WorkerSink* sink) {
    const CampaignConfig& cfg = configs[c];
    ConfigState& st = states[c];
    Pass& p = st.pass;
    CampaignResult& r = results[c];
    if (p.kind == PassKind::kScreen) {
      // Rank candidates by mean (descending, node id as the deterministic
      // tie-break) and refine the leaders.
      std::vector<std::pair<double, graph::NodeId>> screened;
      screened.reserve(p.entrants.size());
      for (std::uint32_t e = 0; e < p.entrants.size(); ++e) {
        screened.emplace_back(fold_slots(p.row(e)).moments.mean(), p.entrants[e]);
      }
      std::sort(screened.begin(), screened.end(), std::greater<>());
      screened.resize(std::min<std::size_t>(screened.size(), cfg.race.finalists));
      std::vector<graph::NodeId> finalists;
      for (const auto& [mean, u] : screened) finalists.push_back(u);
      std::vector<Block> refine = open_pass(c, PassKind::kRefine, std::move(finalists), {});
      if (recorder != nullptr) recorder->record_entrants(c, PassKind::kRefine, p.entrants);
      queue.push(std::move(refine));
      return;
    }
    if (p.whole) {
      // The result is the slowest entrant's full fold (a fixed source's
      // only one; among refined finalists, first-seen wins ties, matching
      // the historical adversary scan), plus the fastest finalist's mean.
      const std::uint64_t merge_begin = sink != nullptr ? sink->now_ns() : 0;
      for (std::uint32_t e = 0; e < p.entrants.size(); ++e) {
        PassPartial total = fold_slots(p.row(e));
        const double mean = total.summary->mean();
        if (e == 0 || mean > r.summary.mean()) {
          r.source = p.entrants[e];
          r.summary = std::move(*total.summary);
        }
        if (p.kind == PassKind::kRefine && (e == 0 || mean < r.best_mean)) {
          r.best_source = p.entrants[e];
          r.best_mean = mean;
        }
        if (total.curves) {
          r.curves = std::move(*total.curves);
          r.contacts = total.contacts;
        }
      }
      r.graph_name = st.graph->name();
      r.n = st.graph->num_nodes();
      if (sink != nullptr) {
        sink->span("merge", merge_begin, sink->now_ns(), static_cast<std::uint32_t>(c));
      }
      if (recorder != nullptr) recorder->record_done(c, r);
    }
    p.grid.clear();
    p.grid.shrink_to_fit();
    p.entrants.clear();
    st.graph.reset();
    st.weighted.reset();
    st.edges.reset();
    // File-backed graphs are not freed here: the campaign's shared cache
    // keeps the one mapping alive until the run ends, so only per-config
    // owned graphs count as frees.
    if (sink != nullptr && (cfg.prebuilt != nullptr || cfg.graph.family != "file")) {
      sink->metrics.graph_frees += 1;
    }
  }

  const std::vector<CampaignConfig>& configs;
  const CampaignOptions& options;
  const std::uint64_t block_size;
  const std::uint32_t shard_count;
  const std::uint32_t shard;  // 0-based
  CampaignRecorder* const recorder;  // null unless recording
  BlockQueue queue;
  std::vector<ConfigState> states;
  std::vector<CampaignResult> results;
  std::mutex file_graph_mutex;
  std::map<std::string, std::shared_ptr<const Graph>> file_graphs;
};

/// The scheduler core behind run_campaign and run_campaign_resumable:
/// validation, start-up from restored progress, the worker pool, and error
/// capture. `recording` switches on the snapshot layer (checkpoints,
/// shards, resume); without it the scheduler is the original zero-overhead
/// path.
CampaignOutcome run_campaign_impl(const std::vector<CampaignConfig>& configs,
                                  const CampaignOptions& options,
                                  const std::string& campaign_name, const Json* resume,
                                  bool recording) {
  const std::uint32_t shard_count = std::max<std::uint32_t>(options.shard_count, 1);
  if (options.shard_index < 1 || options.shard_index > shard_count) {
    throw std::runtime_error("campaign: shard index " + std::to_string(options.shard_index) +
                             " out of range 1.." + std::to_string(shard_count));
  }

  std::unique_ptr<CampaignRecorder> recorder;
  if (recording) {
    // Snapshots address configurations by id, so recorded campaigns need
    // unique ids (the spec parser already rejects collisions; this guards
    // API callers handing in configs directly).
    std::map<std::string, std::size_t> seen;
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const auto [it, inserted] = seen.emplace(resolved_config_id(configs[c], c), c);
      if (!inserted) {
        throw std::runtime_error("campaign: configurations " + std::to_string(it->second) +
                                 " and " + std::to_string(c) + " share the id '" + it->first +
                                 "' (checkpoints and shards address configs by id)");
      }
    }
    recorder = std::make_unique<CampaignRecorder>(configs, options, campaign_name);
  }
  std::vector<CampaignRecorder::Restored> restored(configs.size());
  if (resume != nullptr) restored = recorder->load(*resume);

  CampaignRun run(configs, options, options.shard_index - 1, recorder.get());
  std::vector<Block> initial;
  // For the worker-count heuristic only: a generous upper bound on how many
  // blocks the campaign can ever schedule (race passes expand lazily).
  std::size_t block_estimate = 0;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const CampaignConfig& cfg = configs[c];
    run.results[c] = campaign_result_skeleton(cfg, c);
    // Validate here (not in a worker, which would race to report it) so
    // API callers get the same guarantees the spec parser enforces.
    if (const std::string cfg_error = config_error(cfg); !cfg_error.empty()) {
      throw std::runtime_error("campaign: configuration '" + run.results[c].id +
                               "': " + cfg_error);
    }
    std::vector<Block> blocks = run.start(c, restored[c]);
    if (cfg.source_policy == SourcePolicy::kRace) {
      const std::size_t cand_bound = cfg.race.max_candidates != 0
                                         ? cfg.race.max_candidates
                                         : (cfg.prebuilt != nullptr ? cfg.prebuilt->num_nodes()
                                                                    : cfg.graph.n);
      block_estimate +=
          1 + cand_bound * (cfg.race.screen_trials / run.block_size + 1) +
          cfg.race.finalists * (pass_trials(cfg, PassKind::kRefine) / run.block_size + 1);
    } else {
      block_estimate += blocks.size();
    }
    initial.insert(initial.end(), blocks.begin(), blocks.end());
  }
  std::stable_sort(initial.begin(), initial.end(), [](const Block& a, const Block& b) {
    return queue_rank(a.kind) < queue_rank(b.kind);
  });

  unsigned workers = options.threads != 0 ? options.threads : std::thread::hardware_concurrency();
  if (workers == 0) workers = 1;
  workers = static_cast<unsigned>(std::min<std::size_t>(workers, block_estimate));

  // Telemetry is strictly observational: every hook below sits behind an
  // `if (tel)` (or a sink pointer), so a null sink is the exact pre-existing
  // code path and attached telemetry never influences scheduling decisions.
  obs::Telemetry* const tel = options.telemetry;
  if (tel != nullptr) {
    std::vector<std::string> ids;
    ids.reserve(run.results.size());
    for (const CampaignResult& r : run.results) ids.push_back(r.id);
    tel->begin(std::move(ids), std::max(workers, 1u),
               options.telemetry_label.empty() ? campaign_name : options.telemetry_label);
  }
  run.queue.push(std::move(initial));

  std::exception_ptr error;
  std::mutex error_mutex;
  std::atomic<bool> stopped{false};

  auto worker = [&](unsigned wid) {
    obs::WorkerSink* const sink = tel != nullptr ? &tel->sink(wid) : nullptr;
    std::uint64_t wait_begin = sink != nullptr ? sink->now_ns() : 0;
    Block block;
    while (run.queue.pop(block)) {
      const std::uint64_t started = sink != nullptr ? sink->now_ns() : 0;
      if (sink != nullptr) sink->metrics.idle_ns += started - wait_begin;
      if (tel != nullptr) tel->set_phase(kBlockPhaseName[static_cast<int>(block.kind)]);
      bool ok = false;
      try {
        run.run(block, sink);
        ok = true;
        if (recorder != nullptr && recorder->block_finished()) {
          // stop_after_blocks budget exhausted: drain the queue; in-flight
          // blocks still finish and record, so the final checkpoint below
          // loses nothing that was computed.
          stopped.store(true, std::memory_order_relaxed);
          run.queue.abort();
        }
      } catch (...) {
        {
          const std::scoped_lock lock(error_mutex);
          if (!error) error = std::current_exception();
        }
        run.queue.abort();
      }
      run.queue.finish_one();
      if (sink != nullptr) {
        const std::uint64_t finished = sink->now_ns();
        sink->metrics.busy_ns += finished - started;
        if (ok) {
          // Exact counters count *successful* blocks only; kPlan blocks have
          // begin == end, so trial attribution is uniform across kinds.
          sink->metrics.blocks_executed += 1;
          sink->metrics.trials_simulated += block.end - block.begin;
          obs::ConfigCost& cost = sink->per_config[block.config];
          cost.blocks += 1;
          cost.trials += block.end - block.begin;
          cost.busy_ns += finished - started;
          sink->span(kBlockSpanName[static_cast<int>(block.kind)], started, finished,
                     static_cast<std::uint32_t>(block.config),
                     static_cast<std::int64_t>(block.slot));
        }
        wait_begin = finished;
      }
      if (ok && tel != nullptr) tel->on_block_done();
    }
    if (sink != nullptr) sink->metrics.idle_ns += sink->now_ns() - wait_begin;
  };

  if (workers <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) pool.emplace_back(worker, i);
    for (auto& th : pool) th.join();
  }
  if (error) {
    if (tel != nullptr) tel->end();
    std::rethrow_exception(error);
  }

  CampaignOutcome outcome;
  outcome.results = std::move(run.results);
  outcome.complete = !stopped.load(std::memory_order_relaxed);
  if (recorder != nullptr) {
    outcome.blocks_done = recorder->blocks_done();
    outcome.snapshot = recorder->snapshot(outcome.complete);
    if (!options.checkpoint_file.empty()) recorder->write_checkpoint(outcome.complete);
  }
  if (tel != nullptr) tel->end();
  return outcome;
}

}  // namespace

std::vector<CampaignResult> run_campaign(const std::vector<CampaignConfig>& configs,
                                         const CampaignOptions& options) {
  // Strip the snapshot knobs so existing callers keep the original
  // zero-overhead scheduling path regardless of what they left in options.
  CampaignOptions plain = options;
  plain.shard_index = 1;
  plain.shard_count = 1;
  plain.checkpoint_file.clear();
  plain.stop_after_blocks = 0;
  return std::move(
      run_campaign_impl(configs, plain, "campaign", nullptr, /*recording=*/false).results);
}

CampaignOutcome run_campaign_resumable(const std::vector<CampaignConfig>& configs,
                                       const CampaignOptions& options,
                                       const std::string& campaign_name, const Json* resume) {
  return run_campaign_impl(configs, options, campaign_name, resume, /*recording=*/true);
}

// --- Spec parsing ------------------------------------------------------------
//
// Every spec key is one row of kSpecKeys: the blocks it may appear in, the
// CampaignConfig field it sets (whose type decides how the value is read),
// the value's range, and the block an object value is walked as.
// walk_block rejects a key without a row in its block and applies the rest;
// bench/README.md's "Spec keys" table lists the same rows.

namespace {

/// Where a key may appear (a bit set): a `configs` entry, `defaults`, or
/// one of the nested objects named after the rows that hold them.
enum Scope : unsigned {
  kEntry = 1u << 0,
  kDefaults = 1u << 1,
  kRace = 1u << 2,
  kGraph = 1u << 3,
  kDynamics = 1u << 4,
  kCurves = 1u << 5,
  kEngine = 1u << 6,
  kShared = kEntry | kDefaults,
};

using Cfg = CampaignConfig;
template <class T>
using FieldRef = T& (*)(Cfg&);

/// The field a row sets; its type decides how a value is read. Block rows
/// set none, except `curves`, whose presence sets `curves.enabled`.
using Field =
    std::variant<std::monostate, FieldRef<std::uint64_t>, FieldRef<std::uint32_t>,
                 FieldRef<double>, FieldRef<std::string>, FieldRef<bool>, FieldRef<EngineKind>,
                 FieldRef<core::Mode>, FieldRef<core::AsyncView>, FieldRef<core::AuxKind>,
                 FieldRef<SourcePolicy>, FieldRef<dynamics::ChurnModel>,
                 FieldRef<dynamics::WeightModel>>;

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Spec numbers are IEEE doubles, exact for integers up to 2^53: the cap
/// rumor_bench puts on its numeric flags too.
constexpr double kMaxExactInt = 9007199254740992.0;

struct Range {
  double lo = 0.0;
  double hi = kInf;
  bool lo_open = false;
  bool hi_open = false;
};

struct KeyRow {
  std::string_view key;
  unsigned blocks;
  Field field;
  /// Integers: [lo, min(hi, the field's max, 2^53)]. Numbers: as given.
  Range range{};
  /// An object value is walked as this block (0: no object form).
  unsigned nested = 0;
  /// Entries only: a scalar or an array, expanded by the cross product.
  bool axis = false;
  /// Missing is an error; a string value must be non-empty.
  bool required = false;
  /// The expected value, when the type and range do not say it.
  std::string_view what = {};
};

constexpr Range kAtLeastOne{1.0};
constexpr Range kUnit{0.0, 1.0};
constexpr Range kBelowOne{0.0, 1.0, false, true};
constexpr Range kPositive{0.0, kInf, true};

// Rows apply in table order, so the `race` block comes before the flat race
// keys (a flat key wins on conflict) and the `graph` object after the flat
// generator parameters (the object wins).
constexpr KeyRow kSpecKeys[] = {
    {"id", kEntry, [](Cfg& c) -> auto& { return c.id; }},
    {.key = "n", .blocks = kEntry, .field = [](Cfg& c) -> auto& { return c.graph.n; },
     .range = {2.0, 4294967295.0}, .axis = true},
    {.key = "engine", .blocks = kShared, .field = [](Cfg& c) -> auto& { return c.engine; },
     .nested = kEngine, .axis = true},
    {.key = "mode", .blocks = kShared, .field = [](Cfg& c) -> auto& { return c.mode; },
     .axis = true},
    {"view", kShared, [](Cfg& c) -> auto& { return c.view; }},
    {"aux", kShared, [](Cfg& c) -> auto& { return c.aux; }},
    {.key = "source", .blocks = kShared, .field = [](Cfg& c) -> auto& { return c.source_policy; },
     .what = "a node id in [0, 4294967295], \"fixed\" or \"race\""},
    {"trials", kShared, [](Cfg& c) -> auto& { return c.trials; }},
    {"seed", kShared, [](Cfg& c) -> auto& { return c.seed; }},
    {"hp_q", kShared, [](Cfg& c) -> auto& { return c.hp_q; }, kBelowOne},
    {"reservoir_capacity", kShared, [](Cfg& c) -> auto& { return c.reservoir_capacity; }},
    {"message_loss", kShared, [](Cfg& c) -> auto& { return c.message_loss; }, kBelowOne},
    {.key = "race", .blocks = kShared, .nested = kRace},
    {"screen_trials", kShared | kRace, [](Cfg& c) -> auto& { return c.race.screen_trials; },
     kAtLeastOne},
    {"finalists", kShared | kRace, [](Cfg& c) -> auto& { return c.race.finalists; }, kAtLeastOne},
    {"final_trials", kShared | kRace, [](Cfg& c) -> auto& { return c.race.final_trials; }},
    {"max_candidates", kShared | kRace, [](Cfg& c) -> auto& { return c.race.max_candidates; }},
    {"p", kShared | kGraph, [](Cfg& c) -> auto& { return c.graph.p; }, kUnit},
    {"degree", kShared | kGraph, [](Cfg& c) -> auto& { return c.graph.degree; }},
    {"beta", kShared | kGraph, [](Cfg& c) -> auto& { return c.graph.beta; }, kPositive},
    {"average_degree", kShared | kGraph, [](Cfg& c) -> auto& { return c.graph.average_degree; },
     kPositive},
    {"graph_seed", kShared | kGraph, [](Cfg& c) -> auto& { return c.graph.graph_seed; }},
    {.key = "graph", .blocks = kEntry, .field = [](Cfg& c) -> auto& { return c.graph.family; },
     .nested = kGraph, .required = true, .what = "a family name or an object with 'kind'"},
    {.key = "kind", .blocks = kGraph, .field = [](Cfg& c) -> auto& { return c.graph.family; },
     .required = true},
    {"path", kGraph, [](Cfg& c) -> auto& { return c.graph.path; }},
    {.key = "kind", .blocks = kEngine, .field = [](Cfg& c) -> auto& { return c.engine; },
     .required = true},
    {"lanes", kEngine, [](Cfg& c) -> auto& { return c.lanes; }, {1.0, core::kMaxBatchLanes}},
    {.key = "dynamics", .blocks = kShared, .nested = kDynamics},
    {"churn", kDynamics, [](Cfg& c) -> auto& { return c.dynamics.churn.model; }},
    {"birth", kDynamics, [](Cfg& c) -> auto& { return c.dynamics.churn.birth; }, kUnit},
    {"death", kDynamics, [](Cfg& c) -> auto& { return c.dynamics.churn.death; }, kUnit},
    {"rewire_p", kDynamics, [](Cfg& c) -> auto& { return c.dynamics.churn.rewire; }, kUnit},
    {"period", kDynamics, [](Cfg& c) -> auto& { return c.dynamics.churn.period; }, kAtLeastOne},
    {"weights", kDynamics, [](Cfg& c) -> auto& { return c.dynamics.weights.model; }},
    {"weight_alpha", kDynamics, [](Cfg& c) -> auto& { return c.dynamics.weights.alpha; },
     kPositive},
    {"dynamics_seed", kDynamics, [](Cfg& c) -> auto& { return c.dynamics.seed; }},
    {.key = "curves", .blocks = kShared, .field = [](Cfg& c) -> auto& { return c.curves.enabled; },
     .nested = kCurves},
    {"points", kCurves, [](Cfg& c) -> auto& { return c.curves.points; }, kAtLeastOne},
    {"time_bucket", kCurves, [](Cfg& c) -> auto& { return c.curves.time_bucket; }, kPositive},
};

const KeyRow* find_row(std::string_view key, unsigned blocks) {
  for (const KeyRow& row : kSpecKeys) {
    if (row.key == key && (row.blocks & blocks) != 0) return &row;
  }
  return nullptr;
}

const char* value_name(EngineKind e) { return engine_name(e); }
const char* value_name(core::Mode m) { return core::mode_name(m); }
const char* value_name(core::AsyncView v) { return core::async_view_name(v); }
const char* value_name(core::AuxKind a) { return core::aux_kind_name(a); }
const char* value_name(SourcePolicy p) { return source_policy_name(p); }
const char* value_name(dynamics::ChurnModel m) { return dynamics::churn_model_name(m); }
const char* value_name(dynamics::WeightModel m) { return dynamics::weight_model_name(m); }

/// Sets `field` to the enum value named `v`. Every name function answers
/// "?" past its enum's last value.
template <class E>
bool read_name(const Json& v, E& field) {
  if (!v.is_string()) return false;
  for (unsigned i = 0; std::string_view(value_name(static_cast<E>(i))) != "?"; ++i) {
    if (v.as_string() == value_name(static_cast<E>(i))) {
      field = static_cast<E>(i);
      return true;
    }
  }
  return false;
}

template <class T>
double int_max(const Range& range) {
  return std::min({range.hi, static_cast<double>(std::numeric_limits<T>::max()), kMaxExactInt});
}

template <class T>
bool read_int(const Json& v, const Range& range, T& field) {
  if (!v.is_number()) return false;
  const double x = v.as_number();
  if (x != std::floor(x) || x < range.lo || x > int_max<T>(range)) return false;
  field = static_cast<T>(x);
  return true;
}

/// Reads a scalar value into the row's field; false on a wrong type or an
/// out-of-range value.
bool read_value(const KeyRow& row, const Json& v, Cfg& cfg) {
  return std::visit(
      [&](auto ref) {
        if constexpr (std::is_same_v<decltype(ref), std::monostate>) {
          return false;  // a block row without an object
        } else {
          auto& field = ref(cfg);
          using T = std::remove_reference_t<decltype(field)>;
          if constexpr (std::is_same_v<T, bool>) {
            return false;
          } else if constexpr (std::is_same_v<T, double>) {
            const Range& r = row.range;
            if (!v.is_number()) return false;
            const double x = v.as_number();
            if (r.lo_open ? x <= r.lo : x < r.lo) return false;
            if (r.hi_open ? x >= r.hi : x > r.hi) return false;
            field = x;
            return true;
          } else if constexpr (std::is_same_v<T, std::string>) {
            if (!v.is_string() || (row.required && v.as_string().empty())) return false;
            field = v.as_string();
            return true;
          } else if constexpr (std::is_same_v<T, SourcePolicy>) {
            // A node id measures from that node under the fixed policy.
            if (!v.is_number()) return read_name(v, field);
            if (!read_int(v, row.range, cfg.source)) return false;
            field = SourcePolicy::kFixed;
            return true;
          } else if constexpr (std::is_enum_v<T>) {
            return read_name(v, field);
          } else {
            return read_int(v, row.range, field);
          }
        }
      },
      row.field);
}

std::string bound_text(double x) {
  return x == kMaxExactInt ? "2^53" : std::to_string(static_cast<std::uint64_t>(x));
}

/// What a row accepts, for its error message.
std::string expected(const KeyRow& row) {
  if (!row.what.empty()) return std::string(row.what);
  std::string text = std::visit(
      [&](auto ref) -> std::string {
        using Ref = decltype(ref);
        if constexpr (std::is_same_v<Ref, std::monostate> || std::is_same_v<Ref, FieldRef<bool>>) {
          return "";
        } else {
          using T = std::remove_reference_t<std::invoke_result_t<Ref, Cfg&>>;
          const Range& r = row.range;
          if constexpr (std::is_same_v<T, double>) {
            if (r.hi == kInf) return std::string("a number ") + (r.lo_open ? ">" : ">=") + " " +
                                     bound_text(r.lo);
            return "a number in " + std::string(r.lo_open ? "(" : "[") + bound_text(r.lo) +
                   ", " + bound_text(r.hi) + (r.hi_open ? ")" : "]");
          } else if constexpr (std::is_same_v<T, std::string>) {
            return row.required ? "a non-empty string" : "a string";
          } else if constexpr (std::is_enum_v<T>) {
            std::string names = "one of";
            for (unsigned i = 0; std::string_view(value_name(static_cast<T>(i))) != "?"; ++i) {
              names += std::string(i == 0 ? " " : ", ") + value_name(static_cast<T>(i));
            }
            return names;
          } else {
            return "an integer in [" + bound_text(r.lo) + ", " + bound_text(int_max<T>(r)) + "]";
          }
        }
      },
      row.field);
  if (row.nested == 0) return text;
  return text.empty() ? "an object" : text + " or an object";
}

std::string walk_block(const Json& obj, unsigned block, Cfg& cfg);

/// Applies one key's value: an object is walked as the row's block (errors
/// inside it are prefixed with the block's name), anything else is read
/// into the row's field.
std::string apply_key(const KeyRow& row, const Json& value, Cfg& cfg) {
  if (row.nested != 0 && value.is_object()) {
    if (std::string error = walk_block(value, row.nested, cfg); !error.empty()) {
      return std::string(row.key) + ": " + error;
    }
    if (const auto* enable = std::get_if<FieldRef<bool>>(&row.field)) (*enable)(cfg) = true;
    return {};
  }
  if (read_value(row, value, cfg)) return {};
  return "key '" + std::string(row.key) + "' must be " + expected(row);
}

/// Walks one object as `block`: rejects keys without a row there, applies
/// the present rows in table order (an entry leaves its axes to the cross
/// product), then checks the block's cross-key rules.
std::string walk_block(const Json& obj, unsigned block, Cfg& cfg) {
  for (const auto& [key, value] : obj.entries()) {
    if (find_row(key, block) != nullptr) continue;
    return find_row(key, ~0u) == nullptr ? "unknown key '" + key + "'"
                                         : "key '" + key + "' is not allowed here";
  }
  for (const KeyRow& row : kSpecKeys) {
    if ((row.blocks & block) == 0) continue;
    const Json* value = obj.find(row.key);
    if (value == nullptr) {
      if (row.required) return "missing required key '" + std::string(row.key) + "'";
      continue;
    }
    if (row.axis) {
      // An entry's axes are read per cell by the cross product; `defaults`
      // gives them one plain value (no per-cell engine object).
      if (block == kEntry) continue;
      if (value->is_object()) {
        return "key '" + std::string(row.key) + "' must be a name here (objects go in entries)";
      }
    }
    if (std::string error = apply_key(row, *value, cfg); !error.empty()) return error;
  }
  if (block == kGraph) {
    // A packed store knows its own shape; only kind "file" takes a path.
    if (cfg.graph.family == "file") {
      if (cfg.graph.path.empty()) return "kind 'file' needs a non-empty 'path'";
      for (const auto& [key, value] : obj.entries()) {
        if (key != "kind" && key != "path") {
          return "key '" + key +
                 "' is not allowed with kind 'file' (the store knows its own shape)";
        }
      }
    } else if (!cfg.graph.path.empty()) {
      return "key 'path' is only allowed with kind 'file'";
    }
  }
  if (block == kEngine && obj.find("lanes") != nullptr && cfg.engine != EngineKind::kBatchSync) {
    return "key 'lanes' is only allowed with kind 'batch_sync'";
  }
  return {};
}

/// A scalar-or-array key as its elements (one for a scalar, none when the
/// key is absent).
std::vector<const Json*> scalar_or_array(const Json& obj, std::string_view key) {
  std::vector<const Json*> out;
  const Json* v = obj.find(key);
  if (v == nullptr) return out;
  if (v->is_array()) {
    for (const Json& e : v->elements()) out.push_back(&e);
  } else {
    out.push_back(v);
  }
  return out;
}

}  // namespace

CampaignSpec parse_campaign_spec(const Json& doc) {
  CampaignSpec spec;
  if (!doc.is_object()) {
    spec.error = "campaign spec must be a JSON object";
    return spec;
  }
  // A misspelled top-level key ("defualts") would otherwise silently drop
  // everything under it.
  for (const auto& [key, value] : doc.entries()) {
    if (key != "name" && key != "defaults" && key != "configs") {
      spec.error = "unknown top-level key '" + key + "' (expected name, defaults, configs)";
      return spec;
    }
  }
  spec.name = "campaign";
  if (const Json* name = doc.find("name"); name != nullptr) {
    if (!name->is_string()) {
      spec.error = "key 'name' must be a string";
      return spec;
    }
    spec.name = name->as_string();
  }

  // Defaults applied to every config entry (each entry may override).
  CampaignConfig proto;
  if (const Json* defaults = doc.find("defaults"); defaults != nullptr) {
    if (!defaults->is_object()) {
      spec.error = "'defaults' must be an object";
      return spec;
    }
    if (std::string error = walk_block(*defaults, kDefaults, proto); !error.empty()) {
      spec.error = "defaults: " + error;
      return spec;
    }
  }

  const Json* entries = doc.find("configs");
  if (entries == nullptr || !entries->is_array() || entries->elements().empty()) {
    spec.error = "'configs' must be a non-empty array";
    return spec;
  }

  const KeyRow& n_row = *find_row("n", kEntry);
  const KeyRow& engine_row = *find_row("engine", kEntry);
  const KeyRow& mode_row = *find_row("mode", kEntry);
  // id -> the spec entry that first produced it. Collisions (explicit or
  // auto-derived) are rejected: checkpoints, shards, and merge address
  // configurations by id, so silently suffixing "#1" would make snapshot
  // identity depend on spec order.
  std::map<std::string, std::size_t> id_first;
  for (std::size_t e = 0; e < entries->elements().size(); ++e) {
    const Json& entry = entries->elements()[e];
    const std::string where = "configs[" + std::to_string(e) + "]";
    if (!entry.is_object()) {
      spec.error = where + " must be an object";
      return spec;
    }
    CampaignConfig base = proto;
    if (std::string error = walk_block(entry, kEntry, base); !error.empty()) {
      spec.error = where + ": " + error;
      return spec;
    }
    const bool file_graph = base.graph.family == "file";

    // "n", "engine", and "mode" may be arrays; expand their cross product.
    // File-backed cells have no "n" (the store knows its own), so their
    // n-dimension is a single pass-through slot.
    const auto ns = scalar_or_array(entry, "n");
    const auto engines = scalar_or_array(entry, "engine");
    const auto modes = scalar_or_array(entry, "mode");
    if (file_graph && !ns.empty()) {
      spec.error = where + ": key 'n' is not allowed with graph kind 'file' "
                           "(the store knows its own node count)";
      return spec;
    }
    if (!file_graph && ns.empty()) {
      spec.error = where + ": missing required key 'n'";
      return spec;
    }
    auto apply_axis = [](const KeyRow& row, const std::vector<const Json*>& values,
                         std::size_t i, CampaignConfig& cfg) {
      return values.empty() ? std::string() : apply_key(row, *values[i], cfg);
    };
    for (std::size_t ni = 0; ni < std::max<std::size_t>(ns.size(), 1); ++ni) {
      for (std::size_t ei = 0; ei < std::max<std::size_t>(engines.size(), 1); ++ei) {
        for (std::size_t mi = 0; mi < std::max<std::size_t>(modes.size(), 1); ++mi) {
          CampaignConfig cfg = base;
          std::string error = apply_axis(n_row, ns, ni, cfg);
          if (error.empty()) error = apply_axis(engine_row, engines, ei, cfg);
          if (error.empty()) error = apply_axis(mode_row, modes, mi, cfg);
          // The same rules run_campaign enforces, caught at parse time
          // where the message can cite the spec entry.
          if (error.empty()) error = config_error(cfg);
          if (!error.empty()) {
            spec.error = where + ": " + error;
            return spec;
          }
          std::string id = base.id;
          if (id.empty()) {
            std::string graph_tag = cfg.graph.family + "_n" + std::to_string(cfg.graph.n);
            if (file_graph) {
              // Tag by the store's file stem ("file-web" for "data/web.rgs");
              // two stores with one stem collide below — give explicit ids.
              std::string stem = cfg.graph.path;
              if (const auto slash = stem.find_last_of("/\\"); slash != std::string::npos) {
                stem = stem.substr(slash + 1);
              }
              if (const auto dot = stem.rfind('.'); dot != std::string::npos && dot > 0) {
                stem.resize(dot);
              }
              graph_tag = "file-" + stem;
            }
            id = graph_tag + "_" + engine_name(cfg.engine) + "_" + core::mode_name(cfg.mode);
            // Lane width is part of a batch cell's identity: two cells
            // differing only in lanes run different block grids.
            if (cfg.engine == EngineKind::kBatchSync) {
              id += "_lanes" + std::to_string(cfg.lanes);
            }
            if (cfg.source_policy == SourcePolicy::kRace) id += "_race";
            if (cfg.dynamics.churn.model != dynamics::ChurnModel::kNone) {
              id += std::string("_") + dynamics::churn_model_name(cfg.dynamics.churn.model);
            }
            if (cfg.dynamics.weights.model != dynamics::WeightModel::kNone) {
              id += std::string("_w-") + dynamics::weight_model_name(cfg.dynamics.weights.model);
            }
          }
          const auto [first, inserted] = id_first.emplace(id, e);
          if (!inserted) {
            spec.error = where + ": config id '" + id + "' collides with a cell of configs[" +
                         std::to_string(first->second) + "]" +
                         (base.id.empty() ? "; give the entries distinct explicit \"id\"s" : "");
            return spec;
          }
          cfg.id = id;
          spec.configs.push_back(std::move(cfg));
        }
      }
    }
  }
  return spec;
}

// --- Reporting ---------------------------------------------------------------

Json campaign_report(const CampaignResult& result, const std::string& campaign_name) {
  const stats::StreamingSummary& s = result.summary;
  Json report = Json::object();
  report.set("experiment", campaign_name + "/" + result.id);
  report.set("schema_version", kReportSchemaVersion);
  report.set("title", result.graph_name + " — " + result.engine + " " + result.mode + ", " +
                          std::to_string(result.trials) + " trials");

  Json params = Json::object();
  params.set("graph", result.graph_name);
  params.set("n", result.n);
  params.set("engine", result.engine);
  if (result.engine == "batch_sync") {
    // Lane width only appears for batch cells, so every pre-existing
    // report keeps its exact key set.
    params.set("lanes", static_cast<std::uint64_t>(result.lanes));
  }
  params.set("mode", result.mode);
  params.set("trials", result.trials);
  params.set("seed", result.seed);
  params.set("hp_q", result.hp_q);
  params.set("source_policy", source_policy_name(result.source_policy));
  if (!result.dynamics.is_static()) {
    // Dynamics parameters only appear when configured, so static reports
    // (and every pre-dynamics baseline) keep their exact key set.
    Json dyn = Json::object();
    dyn.set("churn", dynamics::churn_model_name(result.dynamics.churn.model));
    if (result.dynamics.churn.model == dynamics::ChurnModel::kMarkov) {
      dyn.set("birth", result.dynamics.churn.birth);
      dyn.set("death", result.dynamics.churn.death);
    } else if (result.dynamics.churn.model == dynamics::ChurnModel::kRewire) {
      dyn.set("rewire_p", result.dynamics.churn.rewire);
    }
    if (result.dynamics.churn.model != dynamics::ChurnModel::kNone) {
      dyn.set("period", result.dynamics.churn.period);
    }
    dyn.set("weights", dynamics::weight_model_name(result.dynamics.weights.model));
    if (result.dynamics.weights.model == dynamics::WeightModel::kHeavyTailed) {
      dyn.set("weight_alpha", result.dynamics.weights.alpha);
    }
    dyn.set("dynamics_seed", result.dynamics.seed);
    params.set("dynamics", std::move(dyn));
  }
  report.set("params", std::move(params));

  const auto ci = s.mean_ci();
  Json row = Json::object();
  row.set("graph", result.graph_name);
  row.set("n", result.n);
  row.set("trials", result.trials);
  row.set("mean", s.mean());
  row.set("stddev", s.stddev());
  row.set("stderr", s.stderr_mean());
  row.set("min", s.min());
  row.set("max", s.max());
  row.set("median", s.median());
  row.set("p95", s.quantile(0.95));
  row.set("hp_time", s.hp_time(result.hp_q));
  row.set("mean_ci_lower", ci.lower);
  row.set("mean_ci_upper", ci.upper);
  Json rows = Json::array();
  rows.push_back(std::move(row));
  report.set("rows", std::move(rows));

  Json stats = Json::object();
  stats.set("mean", s.mean());
  stats.set("stderr_mean", s.stderr_mean());
  stats.set("hp_time", s.hp_time(result.hp_q));
  if (result.source_policy == SourcePolicy::kRace) {
    // The summary above is the refined measurement of the worst source; the
    // best finalist quantifies how much source placement matters.
    stats.set("worst_source", result.source);
    stats.set("best_source", result.best_source);
    stats.set("best_mean", result.best_mean);
  }
  if (result.has_curves) {
    // Spread telemetry: mean/band informed-count curves on the config's
    // grid, the derived phase decomposition, and exact contact totals. Only
    // present when the config enabled curves, so plain reports keep their
    // exact pre-existing key set.
    const stats::CurveAccumulator& c = result.curves;
    const bool time_grid = result.engine == "async";
    const double step = time_grid ? result.curves_spec.time_bucket : 1.0;
    Json curves = Json::object();
    curves.set("grid", time_grid ? "time" : "rounds");
    curves.set("time_bucket", time_grid ? Json(result.curves_spec.time_bucket) : Json());
    curves.set("points", static_cast<std::uint64_t>(c.points()));
    curves.set("trials", c.trials());
    curves.set("max_len", c.max_len());
    // Fixed-source cells start with exactly one informed node; the
    // conservation check needs the count explicit.
    curves.set("sources", 1);
    Json mean = Json::array();
    Json stddev = Json::array();
    Json p10 = Json::array();
    Json p50 = Json::array();
    Json p90 = Json::array();
    for (std::size_t k = 0; k < c.points(); ++k) {
      mean.push_back(c.mean_at(k));
      stddev.push_back(c.stddev_at(k));
      p10.push_back(c.quantile_at(k, 0.10));
      p50.push_back(c.quantile_at(k, 0.50));
      p90.push_back(c.quantile_at(k, 0.90));
    }
    curves.set("mean", std::move(mean));
    curves.set("stddev", std::move(stddev));
    curves.set("p10", std::move(p10));
    curves.set("p50", std::move(p50));
    curves.set("p90", std::move(p90));
    // Phase decomposition of the mean curve: startup until 10% informed,
    // exponential growth until 90%, shrink until everyone (n - 0.5 guards
    // against float fuzz in the mean of integer counts). A threshold the
    // grid never reaches renders as null — the curve was cut short.
    const double nn = static_cast<double>(result.n);
    auto first_reach = [&](double threshold) -> Json {
      for (std::size_t k = 0; k < c.points(); ++k) {
        if (c.mean_at(k) >= threshold) return Json(static_cast<double>(k) * step);
      }
      return Json();
    };
    const Json startup_end = first_reach(0.1 * nn);
    const Json growth_end = first_reach(0.9 * nn);
    const Json spread_end = first_reach(nn - 0.5);
    Json phases = Json::object();
    phases.set("startup_end", startup_end);
    phases.set("growth_end", growth_end);
    phases.set("spread_end", spread_end);
    phases.set("startup_duration", startup_end);
    phases.set("growth_duration",
               !startup_end.is_null() && !growth_end.is_null()
                   ? Json(growth_end.as_number() - startup_end.as_number())
                   : Json());
    phases.set("shrink_duration", !growth_end.is_null() && !spread_end.is_null()
                                      ? Json(spread_end.as_number() - growth_end.as_number())
                                      : Json());
    curves.set("phases", std::move(phases));
    const stats::ContactTotals& t = result.contacts;
    Json contacts = Json::object();
    contacts.set("contacts", t.contacts);
    contacts.set("useful_push", t.useful_push);
    contacts.set("useful_pull", t.useful_pull);
    contacts.set("wasted_push", t.wasted_push);
    contacts.set("wasted_pull", t.wasted_pull);
    contacts.set("empty_contacts", t.empty_contacts);
    contacts.set("ticks", t.ticks);
    contacts.set("informed_total", t.informed_total);
    curves.set("contacts", std::move(contacts));
    stats.set("curves", std::move(curves));
  }
  report.set("stats", std::move(stats));

  report.set("notes",
             "Streaming summary: mean/min/max exact (merged Welford moments); median/p95/"
             "hp_time from a mergeable quantile sketch (rank error bounds documented in "
             "tests/test_streaming.cpp); CI bootstrapped from a bounded uniform reservoir.");
  report.set("build_info", build_info_json());
  return report;
}

}  // namespace rumor::sim
