// rumor/sim: crash-safe checkpoints, deterministic sharding, and the
// bit-identical merge layer for campaigns.
//
// A campaign reduces every configuration to mergeable accumulators whose
// block partials land in fixed slots (sim/campaign.cpp). This module
// persists that progress: a *snapshot* is a versioned JSON document holding
// each configuration's completed block partials (exact serialized
// accumulator state), its race phase (candidates / finalists), or its final
// result. The same document serves three flows:
//
//   * checkpoint / resume — run_campaign_resumable writes snapshots
//     periodically (atomic temp + fsync + rename); a resumed campaign
//     re-runs only the missing blocks and produces a final report
//     bit-identical to an uninterrupted run at any thread count;
//   * sharding — `--shard i/k` partitions the block space by a stable hash
//     of (config id, slot), independent of thread count and enqueue order
//     (race configurations hash by config id alone, so every successor
//     block of a plan block lands on the same shard), and emits a finished
//     partial snapshot;
//   * merge — merge_campaign_snapshots folds k partial snapshots into the
//     final results, validating format/version, spec hash, shard coverage
//     and overlap first; the merged reports are bit-identical to the
//     unsharded run's.
//
// Bit-identity rests on two facts: accumulator serialization round-trips
// exactly (stats/streaming.hpp state() / restore(), doubles rendered by the
// exact shortest-round-trip formatter of sim/experiment.cpp), and partials
// are always folded in slot order, so a resumed or merged fold performs the
// same merge sequence on bit-identical operands. All three flows share the
// pass model declared below, with CampaignRecorder.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/campaign.hpp"
#include "sim/experiment.hpp"

namespace rumor::sim {

/// Snapshot document identification. `version` bumps on any schema change;
/// loaders reject versions they do not understand.
inline constexpr const char* kSnapshotFormat = "rumor-campaign-checkpoint";
inline constexpr int kSnapshotVersion = 1;

/// Stable fingerprint of (campaign name, fully-resolved configurations) —
/// FNV-1a over a canonical rendering of every parameter that affects
/// results. Recorded in every snapshot as `spec_hash`; resume and merge
/// refuse snapshots whose hash does not match the spec they are given
/// (including CLI --trials/--seed/--scale overrides, which must be repeated
/// verbatim).
[[nodiscard]] std::string campaign_fingerprint(const std::string& campaign_name,
                                               const std::vector<CampaignConfig>& configs);

/// The shard partition rule: which 0-based shard owns block `slot` of the
/// configuration `config_id`. Race configurations pass whole_config = true
/// and are owned wholesale by one shard (their screen/refine successor
/// blocks must follow their plan block). Pure function of its arguments —
/// never of thread count, enqueue order, or completion order.
[[nodiscard]] std::uint32_t shard_of_block(const std::string& config_id, std::size_t slot,
                                           bool whole_config, std::uint32_t shard_count);

/// The configuration id run_campaign reports: cfg.id, or "cfg<index>" when
/// the spec left it empty.
[[nodiscard]] std::string resolved_config_id(const CampaignConfig& cfg, std::size_t index);

/// A snapshot document's header. read_snapshot_header is its one reader —
/// behind resume, merge and `rumor_bench --resume` (which adopts the
/// header's block size and shard when the flags are not repeated) — and
/// rejects, naming the key: a wrong format or version, a non-integer
/// number, block_size 0, and shard numbers outside
/// 1 <= shard_index <= shard_count <= 2^32-1.
struct SnapshotHeader {
  std::string campaign;
  std::string spec_hash;
  std::uint64_t block_size = 0;
  std::uint64_t sketch_capacity = 0;
  std::uint64_t reservoir_capacity = 0;
  std::uint32_t shard_index = 1;
  std::uint32_t shard_count = 1;
  bool finished = false;
  std::uint64_t blocks_done = 0;
};

/// Throws std::runtime_error prefixed by `ctx` on a malformed header.
[[nodiscard]] SnapshotHeader read_snapshot_header(const Json& doc, const std::string& ctx);

/// What run_campaign_resumable returns beyond the plain result vector.
struct CampaignOutcome {
  /// Ordered like the input configs. Configurations whose blocks this run
  /// did not finish (stopped early, or owned by other shards) carry only
  /// their metadata skeleton — their progress lives in `snapshot`.
  std::vector<CampaignResult> results;
  /// False when the run stopped early (CampaignOptions::stop_after_blocks).
  bool complete = true;
  /// Blocks completed by this run, including restored progress from resume.
  std::uint64_t blocks_done = 0;
  /// The final snapshot document (checkpoint / shard partial); a null Json
  /// when the run recorded nothing (no checkpoint, shard, stop, or resume).
  Json snapshot;
};

/// run_campaign with checkpoint / shard / resume support. `resume` is a
/// parsed snapshot document (nullptr = fresh start); it is validated
/// against the configs, options, and campaign name before any work is
/// scheduled, and a mismatch throws std::runtime_error naming the field.
/// The determinism contract of run_campaign extends across interruptions:
/// a resumed campaign's final report is bit-identical to an uninterrupted
/// run at any thread count.
[[nodiscard]] CampaignOutcome run_campaign_resumable(const std::vector<CampaignConfig>& configs,
                                                     const CampaignOptions& options,
                                                     const std::string& campaign_name,
                                                     const Json* resume = nullptr);

/// Folds k finished shard snapshots into the campaign's final results,
/// bit-identical to the unsharded run. Validates before merging, throwing
/// std::runtime_error on: format/version mismatch, campaign name or spec
/// hash mismatch, block size or capacity disagreement between snapshots,
/// wrong shard count, duplicate or missing shard indices, an unfinished
/// shard, a coverage gap (a block slot no shard recorded), or an overlap (a
/// slot or race result recorded by two shards) — each error names the
/// configuration and slot/shards involved.
[[nodiscard]] std::vector<CampaignResult> merge_campaign_snapshots(
    const std::vector<CampaignConfig>& configs, const std::string& campaign_name,
    const std::vector<Json>& snapshots);

/// The streaming-summary options a campaign gives configuration `cfg`
/// (per-config reservoir override, reservoir salted by the config seed).
/// One definition shared by the scheduler and the merge tool, so restored
/// summaries are always rebuilt with the exact construction parameters.
[[nodiscard]] stats::StreamingSummary::Options summary_options_for(
    const CampaignConfig& cfg, std::size_t sketch_capacity, std::size_t reservoir_capacity);

/// The curve-accumulator options a campaign gives configuration `cfg`
/// (grid length from the config's curve spec, sketch capacity shared with
/// the scalar summaries). Like summary_options_for, one definition shared
/// by the scheduler and the merge tool so restored curve partials are
/// always rebuilt with the exact construction parameters.
[[nodiscard]] stats::CurveAccumulator::Options curve_options_for(const CampaignConfig& cfg,
                                                                 std::size_t sketch_capacity);

/// Loads a campaign spec file and applies the rumor_bench CLI override
/// semantics (--trials replaces every trial count, --scale multiplies the
/// spec's own counts otherwise, --seed replaces every root seed), so a run,
/// its resume and its merge (rumor_bench --merge, which tools/campaign_merge
/// runs) resolve identical configs — a prerequisite for spec-hash
/// validation. Returns nullopt after printing a `prog`-prefixed diagnostic
/// to `err`.
[[nodiscard]] std::optional<CampaignSpec> load_campaign_spec_file(const std::string& path,
                                                                  std::uint64_t trials_override,
                                                                  std::uint64_t seed_override,
                                                                  unsigned scale, const char* prog,
                                                                  std::ostream& err);

/// Reads and parses one JSON file; nullopt (with a `prog`-prefixed
/// diagnostic on `err`) on a missing file or malformed document.
[[nodiscard]] std::optional<Json> read_json_file(const std::string& path, const char* prog,
                                                 std::ostream& err);

/// Stale-shard advisory for merge flows: snapshots carry an optional
/// `written_at` wall-clock stamp (unix seconds, recorded on every
/// checkpoint write); when the shards handed to a merge were written more
/// than an hour apart, each laggard gets a `prog`-prefixed warning on `err`
/// naming its file (`names` parallels `snapshots`). Advisory only — byte
/// determinism makes mixing old and new shards safe when the spec really is
/// unchanged, and the spec-hash check still rejects true mismatches — and
/// snapshots without the stamp (pre-dating it) are silently tolerated.
void report_stale_snapshots(const std::vector<Json>& snapshots,
                            const std::vector<std::string>& names, const char* prog,
                            std::ostream& err);

// --- The pass model (internal) ----------------------------------------------
//
// Declared here only so the scheduler (campaign.cpp) and the snapshot codec
// (checkpoint.cpp) share one definition; not part of the stable API.
//
// A configuration's trials run as *passes*. A pass is a grid of (entrant,
// slot) cells: entrant e measures from source entrants[e], slot s covers
// that entrant's trials [s * block, (s + 1) * block), and each cell's block
// leaves one PassPartial. A fixed-source configuration runs one kTrials
// pass whose one entrant is its source; a race runs a kScreen pass over its
// candidates, then a kRefine pass over the screen's finalists. The
// scheduler fills the grid, the recorder encodes each cell as one snapshot
// entry, resume and merge decode cells with one reader, and every fold (a
// pass's last block, a resume that re-fires it, a shard merge) goes through
// fold_slots.

/// Pass kinds, in the order a configuration runs them.
enum class PassKind : std::uint8_t { kTrials, kScreen, kRefine };

/// Trials per entrant: cfg.trials, the race's screen_trials, or its
/// final_trials (0 = cfg.trials).
[[nodiscard]] std::uint64_t pass_trials(const CampaignConfig& cfg, PassKind kind) noexcept;

/// Slots per entrant under the campaign block size (a batch cell's block
/// is one lane batch, see effective_block_size).
[[nodiscard]] std::size_t pass_slots(const CampaignConfig& cfg, PassKind kind,
                                     std::uint64_t block_size) noexcept;

/// One cell's accumulators. kScreen fills `moments`; kTrials and kRefine
/// fill `summary`, plus `curves` and `contacts` when the configuration
/// records curves. Unused accumulators stay empty (no allocation).
struct PassPartial {
  stats::RunningMoments moments;
  std::optional<stats::StreamingSummary> summary;
  std::optional<stats::CurveAccumulator> curves;
  stats::ContactTotals contacts;

  /// Adds trial `t`'s spreading time to whichever scalar accumulator the
  /// pass fills.
  void add(double value, std::uint64_t t) {
    if (summary) {
      summary->add(value, t);
    } else {
      moments.add(value);
    }
  }
  void merge(const PassPartial& other);
};

/// An (entrant, slot) cell address.
using PassCell = std::pair<std::uint32_t, std::size_t>;

/// Folds one entrant's slot partials in slot order, consuming them: the one
/// reduction behind every pass fold, resume and shard merge, so all of them
/// agree bit for bit.
[[nodiscard]] PassPartial fold_slots(std::span<PassPartial> slots);

/// Thread-safe campaign progress store: the machinery behind snapshots.
/// Internal to run_campaign_resumable, like the pass model. A snapshot
/// entry mirrors the configuration's current pass: its phase names the pass
/// ("trials", "screen", "refine"), a race pass lists its entrants
/// ("candidates", "finalists"), and each recorded cell is one element of
/// the pass's array ("slots", "screen", "refine") holding the cell's
/// address and its encoded partial. Partials are encoded outside the store
/// mutex and kept pre-serialized, so snapshot() is a pure render.
class CampaignRecorder {
 public:
  /// One configuration's progress restored from a snapshot: nothing yet,
  /// the pass under way (its entrants and recorded cells), or the final
  /// result.
  struct Restored {
    std::optional<PassKind> pass;
    std::vector<graph::NodeId> entrants;  // race passes: candidates or finalists
    std::map<PassCell, PassPartial> cells;
    std::optional<CampaignResult> result;
  };

  CampaignRecorder(const std::vector<CampaignConfig>& configs, const CampaignOptions& options,
                   std::string campaign_name);

  /// Validates `snapshot` against the configs/options/name and adopts it as
  /// the starting state (subsequent snapshots re-emit the restored
  /// progress). Returns per-config restored progress, indexed like configs.
  /// Throws std::runtime_error naming the first mismatch.
  [[nodiscard]] std::vector<Restored> load(const Json& snapshot);

  // Worker-side recording, all thread-safe.
  void record_graph(std::size_t config, const std::string& graph_name, std::uint64_t n);
  /// Opens a race pass: called before any of its blocks can run, so no
  /// snapshot holds a cell without the entrant list it indexes.
  void record_entrants(std::size_t config, PassKind kind,
                       const std::vector<graph::NodeId>& entrants);
  void record_cell(std::size_t config, PassKind kind, PassCell cell, const PassPartial& partial);
  void record_done(std::size_t config, const CampaignResult& result);

  /// Called by a worker after each completed block: advances the block
  /// counter, writes a periodic checkpoint when one is due, and returns
  /// true when the stop_after_blocks budget is exhausted (the caller then
  /// drains the queue). Throws std::runtime_error if a checkpoint write
  /// fails (a campaign that cannot persist progress should fail loudly).
  [[nodiscard]] bool block_finished();

  /// Serializes the full snapshot document. `finished` marks a snapshot
  /// whose owned work is complete — what merge requires of shard partials.
  [[nodiscard]] Json snapshot(bool finished) const;

  /// Writes snapshot(finished) to the options' checkpoint_file through the
  /// durable atomic-rename path. Throws std::runtime_error on failure.
  void write_checkpoint(bool finished) const;

  [[nodiscard]] std::uint64_t blocks_done() const;

 private:
  /// Mirror of one snapshot config entry.
  struct StoredConfig {
    std::string phase = "pending";
    std::string graph_name;
    std::uint64_t n = 0;
    bool has_graph = false;
    std::optional<std::vector<graph::NodeId>> entrants;  // race passes
    /// Per cell: the encoded partial and curve partial (null without curves).
    std::map<PassCell, std::pair<Json, Json>> cells;
    Json result;  // is_object() once done
  };

  const std::vector<CampaignConfig>& configs_;
  CampaignOptions options_;
  std::string campaign_name_;
  std::string spec_hash_;
  mutable std::mutex mutex_;
  /// Serializes checkpoint writes: concurrent periodic writers would share
  /// one pid-derived temp file and tear it. Separate from mutex_ so workers
  /// keep recording while a snapshot is on its way to disk.
  mutable std::mutex write_mutex_;
  std::vector<StoredConfig> store_;
  std::uint64_t blocks_done_ = 0;    // total, including progress restored by load()
  std::uint64_t session_blocks_ = 0; // completed by this process (drives the
                                     // checkpoint cadence and the stop budget)
};

}  // namespace rumor::sim
