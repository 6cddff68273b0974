// rumor/core: informing forests — who informed whom.
//
// Both of the paper's proofs argue along *informing paths* pi_v = v_0 = u,
// v_1, ..., v_l = v, where v_{i+1} first receives the rumor from v_i
// (Lemmas 9/10 decompose r_v over such a path). The forest is recorded by
// the engines themselves: the sender of a useful transmission is the
// target's informer (spread_probe.hpp), so attaching a forest to a probe
// and the probe to any probe-capable engine (sync and its reference, all
// three async views, discretized slices, quasirandom) yields the informing
// forest of that very execution — a spanning forest of the informed set,
// rooted at the sources — plus per-node path lengths.
#pragma once

#include <cstdint>
#include <vector>

#include "core/protocol.hpp"
#include "core/spread_probe.hpp"

namespace rumor::core {

/// Sentinel parent for the sources (and never-informed nodes).
inline constexpr NodeId kNoParent = static_cast<NodeId>(-1);

/// A spanning forest of "v was first informed by parent[v]".
struct InformingForest {
  std::vector<NodeId> parent;

  /// Resets `parent` to n unset entries and points `probe.informer` at it;
  /// attach the probe to an engine's options to record one execution. The
  /// pointer is valid until `parent` is reassigned or the forest destroyed.
  void attach(SpreadProbe& probe, NodeId n) {
    parent.assign(n, kNoParent);
    probe.informer = parent.data();
  }

  /// Number of informing hops from the source to v (0 for the source).
  /// Precondition: v was informed.
  [[nodiscard]] std::uint32_t path_length(NodeId v) const;

  /// Maximum path length over all informed nodes — the depth of the
  /// informing tree (the `l` in the paper's path decompositions).
  [[nodiscard]] std::uint32_t depth() const;
};

}  // namespace rumor::core
