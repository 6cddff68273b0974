// rumor/core: quasirandom rumor spreading (Doerr, Friedrich, Kuennemann,
// Sauerwald [11]).
//
// The paper's related work cites the quasirandom model's experimental
// analysis [11]: each node holds a fixed cyclic list of its neighbors
// (here: the CSR order) and chooses only a uniformly random *starting
// position*; successive contacts then proceed cyclically. The model needs
// O(log deg) random bits per node instead of O(log deg) per round, yet
// provably matches the fully random protocol's spreading time on the
// classical families — which bench E15 reproduces against our random
// engine.
#pragma once

#include "core/protocol.hpp"
#include "core/sync.hpp"
#include "core/trial.hpp"
#include "rng/rng.hpp"

namespace rumor::core {

/// Shared knobs (core/trial.hpp): mode, max_ticks (rounds; 0 = run_sync's
/// default cap), and probe are honored; message_loss,
/// extra_sources, and dynamics are ignored (the quasirandom model is
/// studied in its classical lossless single-source static form).
struct QuasirandomOptions : TrialOptions {};

/// Runs one synchronous quasirandom execution from `source`: node v's
/// contact in round r is neighbor (start_v + r - 1) mod deg(v), with
/// start_v uniform per node, drawn once.
[[nodiscard]] SyncResult run_quasirandom(const Graph& g, NodeId source, rng::Engine& eng,
                                         const QuasirandomOptions& options = {});

}  // namespace rumor::core
