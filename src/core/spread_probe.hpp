// rumor/core: protocol-level spread telemetry (the observability face of
// the engines, PR 9).
//
// A SpreadProbe is an optional, zero-cost-when-off hook every engine
// accepts through its options struct: when attached it counts each contact
// the protocol draws and classifies the transmissions it carries as useful
// (the first copy of the rumor to reach an uninformed node within the
// engine's commit window) or wasted (the target already knew, the message
// was lost, or another contact of the same window got there first), split
// by push/pull direction. Contacts that carry no transmission at all — both
// endpoints uninformed, or an informed callee in push mode — are empty.
//
// The classification never draws randomness and never changes what an
// engine does: an engine with a probe attached consumes the same RNG stream
// and returns the same result as one without, and with the probe detached
// the instrumented code compiles away (sync fast path) or reduces to one
// predictable null check (event loops). The invariant the accounting is
// built around, checked end-to-end by tools/spread_report.py:
//
//   useful_push + useful_pull == final informed count - |sources|
//
// exactly, per execution, because "useful" is defined as first-to-reach.
// The sender of a useful transmission is therefore the target's informer:
// with `informer` set, the probe records it, which yields the informing
// forest (informing_forest.hpp) from the engine's own loop.
#pragma once

#include "core/informed_set.hpp"
#include "core/protocol.hpp"

namespace rumor::core {

/// Per-execution contact and transmission counters. Merging probes is
/// field-wise addition, so per-trial counts fold into campaign totals
/// exactly (all integers, no rounding).
struct SpreadProbe {
  std::uint64_t contacts = 0;        ///< contact events observed (incl. empty)
  std::uint64_t useful_push = 0;     ///< push transmissions that first informed their target
  std::uint64_t useful_pull = 0;     ///< pull transmissions that first informed their target
  std::uint64_t wasted_push = 0;     ///< push transmissions that changed nothing
  std::uint64_t wasted_pull = 0;     ///< pull transmissions that changed nothing
  std::uint64_t empty_contacts = 0;  ///< contacts carrying no transmission either way
  /// Optional caller-owned array of one entry per node: each useful
  /// transmission stores its sender at the target's index. Null records
  /// nothing; merge() leaves it alone.
  NodeId* informer = nullptr;

  void merge(const SpreadProbe& other) noexcept {
    contacts += other.contacts;
    useful_push += other.useful_push;
    useful_pull += other.useful_pull;
    wasted_push += other.wasted_push;
    wasted_pull += other.wasted_pull;
    empty_contacts += other.empty_contacts;
  }

  [[nodiscard]] std::uint64_t useful() const noexcept { return useful_push + useful_pull; }
  [[nodiscard]] std::uint64_t wasted() const noexcept { return wasted_push + wasted_pull; }
};

/// A contact attempt with no partner to talk to (async tick of an isolated
/// node). The synchronous scans skip isolated nodes before drawing anything,
/// so they never record these.
inline void probe_empty_contact(SpreadProbe& probe) noexcept {
  ++probe.contacts;
  ++probe.empty_contacts;
}

/// Counts a useful transmission from `from` to `to`; records the informer.
inline void probe_useful(SpreadProbe& probe, std::uint64_t& counter, NodeId from,
                         NodeId to) noexcept {
  ++counter;
  if (probe.informer != nullptr) probe.informer[to] = from;
}

/// Classifies one contact v -> w of an *instant-commit* engine (the async
/// event loops): a transmission is useful iff its target is uninformed at
/// the event time and the message was not lost. Endpoint states are the
/// pre-event states; call before the engine stamps the target.
inline void probe_instant(SpreadProbe& probe, Mode mode, bool v_in, bool w_in, bool lost,
                          NodeId v, NodeId w) noexcept {
  ++probe.contacts;
  const bool push_tx = mode != Mode::kPull && v_in;
  const bool pull_tx = mode != Mode::kPush && w_in;
  if (!push_tx && !pull_tx) {
    ++probe.empty_contacts;
    return;
  }
  if (push_tx) {
    if (!w_in && !lost) {
      probe_useful(probe, probe.useful_push, v, w);
    } else {
      ++probe.wasted_push;
    }
  }
  if (pull_tx) {
    if (!v_in && !lost) {
      probe_useful(probe, probe.useful_pull, w, v);
    } else {
      ++probe.wasted_pull;
    }
  }
}

/// Classifies one contact of a *windowed-commit* engine (synchronous rounds,
/// discretized slices): a transmission is useful iff its target is
/// uninformed at the window start AND this is the first transmission of the
/// window to reach it. `pending` is the window's freshness set — the probe
/// marks the targets it deems useful, and the caller clears those marks at
/// the window commit. Endpoint states are the window-start states.
inline void probe_windowed(SpreadProbe& probe, Mode mode, bool v_in, bool w_in, bool lost,
                           NodeId v, NodeId w, InformedSet& pending) {
  ++probe.contacts;
  const bool push_tx = mode != Mode::kPull && v_in;
  const bool pull_tx = mode != Mode::kPush && w_in;
  if (!push_tx && !pull_tx) {
    ++probe.empty_contacts;
    return;
  }
  if (push_tx) {
    if (!w_in && !lost && pending.test_and_set(w)) {
      probe_useful(probe, probe.useful_push, v, w);
    } else {
      ++probe.wasted_push;
    }
  }
  if (pull_tx) {
    if (!v_in && !lost && pending.test_and_set(v)) {
      probe_useful(probe, probe.useful_pull, w, v);
    } else {
      ++probe.wasted_pull;
    }
  }
}

}  // namespace rumor::core
