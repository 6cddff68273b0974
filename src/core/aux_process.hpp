// rumor/core: the paper's auxiliary synchronous processes ppx and ppy.
//
// Definitions 5 and 7 introduce two synthetic round-based processes used as
// stepping stones between pp and pp-a. Both behave like pp on the push side
// (every informed node pushes to a uniformly random neighbor each round) but
// replace per-contact pulling with an aggregate pull probability that
// depends on the number k of informed neighbors of an uninformed node v:
//
//   ppx:  p = 1 - e^{-2k/deg(v)}  if k <  deg(v)/2
//         p = 1                   if k >= deg(v)/2
//   ppy:  p = 1 - e^{-2k/deg(v)}  always
//
// On success, v pulls from a uniformly random *informed* neighbor. These
// processes are not implementable protocols (a node cannot know its informed
// neighbors), but they are well-defined stochastic processes; the paper
// proves T(ppx) preceq T(pp) (Lemma 6) and sandwiches pp-a between them
// (Lemmas 9, 10). We implement their *marginal* definitions here — the
// coupled versions driven by shared randomness live in coupling_pull.hpp.
#pragma once

#include "core/protocol.hpp"
#include "core/trial.hpp"
#include "rng/rng.hpp"

namespace rumor::core {

// AuxKind (kPpx = Definition 5 with the deg/2 forced-pull rule, kPpy =
// Definition 7's plain aggregate pull probability) lives in core/trial.hpp
// so the unified dispatch can select the process without including this
// header.

/// Shared knobs (core/trial.hpp): max_ticks (rounds; 0 = run_sync's default
/// cap) and extra_sources are honored — extra sources let
/// tests pose exact one-round scenarios against the Definition 5/7 pull
/// formulas. mode, message_loss, probe, and dynamics are ignored: the aux
/// processes fix their own contact structure by definition.
struct AuxOptions : TrialOptions {
  AuxKind kind = AuxKind::kPpx;
};

/// Runs one execution of ppx or ppy from `source`.
[[nodiscard]] SyncResult run_aux(const Graph& g, NodeId source, rng::Engine& eng,
                                 const AuxOptions& options = {});

}  // namespace rumor::core
