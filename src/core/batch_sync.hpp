// rumor/core: the batch-lane synchronous engine — up to 64 trials per word.
//
// The paper's quantities are distributional, so every experiment runs the
// same (graph, mode, loss) configuration hundreds of times. run_sync walks
// the graph once *per trial*; this engine walks it once per *lane batch*,
// holding the informed bit of the same node across W <= 64 independent
// trials ("lanes") in one 64-bit word, structure-of-arrays style:
//
//   informed[v] bit l  =  node v is informed in lane l.
//
// Per round, each node draws contacts only for the lanes where the draw can
// matter (push: lanes whose caller is informed; pull: lanes whose caller is
// uninformed; push-pull: every live lane), iterated branch-free via
// countr_zero over the lane mask. Graph rows, degrees, and the informed
// words are touched once per node for all lanes together, and neighbor
// draws use 32-bit halves of each engine output, so per-trial traversal and
// RNG cost amortize across the batch. Round commits are word scans of the
// pending set; a lane that informs its last node is recorded and retired
// from the live mask without stalling the others.
//
// Randomness contract — distributional, NOT bit-identical: all lanes share
// ONE engine, drawn lane-major within each node, so the stream interleaves
// across trials in an order no sequence of run_sync calls reproduces. Each
// lane is still an exact execution of the Section 2 protocol (contacts
// uniform over neighbors, exchanges evaluated against the pre-round set,
// loss thinning per transmission), so per-lane spreading times are i.i.d.
// samples from run_sync's distribution. The acceptance oracle is the
// two-sample KS gate (dist::ks_two_sample_test); see docs/ENGINES.md for
// the full consumption model.
#pragma once

#include <cstdint>
#include <vector>

#include "core/trial.hpp"
#include "rng/rng.hpp"

namespace rumor::core {

/// Lane width ceiling: one informed bit per lane in a 64-bit word.
inline constexpr std::uint32_t kMaxBatchLanes = 64;

/// Shared knobs (core/trial.hpp): mode, max_ticks (rounds; 0 = run_sync's
/// default cap, applied to every lane), message_loss, and extra_sources
/// (seeded in every lane) are honored. probe and dynamics are unsupported —
/// run_batch_sync throws if they are set, so schedulers cannot silently
/// drop telemetry they asked for.
struct BatchSyncOptions : TrialOptions {
  /// Trials executed in this batch (1..kMaxBatchLanes).
  std::uint32_t lanes = kMaxBatchLanes;
};

/// Per-lane outcome of one batch execution.
struct BatchSyncResult {
  /// Lane count actually run (copied from the options).
  std::uint32_t lanes = 0;
  /// True iff every lane informed all nodes within the round cap.
  bool completed = false;
  /// rounds[l] = lane l's spreading time; the cap value for lanes that did
  /// not complete (mirrors run_sync's capped result).
  std::vector<std::uint64_t> rounds;
  /// Total rounds executed summed over lanes (feeds the obs metrics
  /// registry exactly like run_sync's per-trial round counts).
  std::uint64_t total_rounds = 0;
};

/// Runs `options.lanes` independent synchronous trials from `source` in one
/// lane-parallel pass. Precondition: source < g.num_nodes(); throws
/// std::invalid_argument on a lane count outside 1..kMaxBatchLanes and
/// std::runtime_error when probe / dynamics are set.
///
/// Determinism: the batch is a pure function of (graph, source, options,
/// engine state) — the campaign scheduler exploits this by pinning one
/// trial block to one lane batch, seeded as derive_stream(seed, first
/// trial index), so checkpoints and shards stay slot-addressable.
[[nodiscard]] BatchSyncResult run_batch_sync(const Graph& g, NodeId source, rng::Engine& eng,
                                             const BatchSyncOptions& options = {});

}  // namespace rumor::core
