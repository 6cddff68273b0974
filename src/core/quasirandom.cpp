#include "core/quasirandom.hpp"

#include <cassert>
#include <vector>

#include "core/informed_set.hpp"

namespace rumor::core {

SyncResult run_quasirandom(const Graph& g, NodeId source, rng::Engine& eng,
                           const QuasirandomOptions& options) {
  const NodeId n = g.num_nodes();
  assert(source < n);

  SyncResult result;
  result.informed_round.assign(n, kNeverRound);
  result.informed_round[source] = 0;
  NodeId informed_count = 1;

  // The model's only randomness: one starting slot per node.
  std::vector<std::uint32_t> start(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (g.degree(v) > 0) {
      start[v] = static_cast<std::uint32_t>(rng::uniform_below(eng, g.degree(v)));
    }
  }

  const std::uint64_t cap =
      options.max_ticks != 0 ? options.max_ticks : default_round_cap(n);

  std::vector<NodeId> newly;
  // Probe-only freshness marks for the current round (cleared at commit);
  // the protocol draws no randomness here, so the probe is purely passive.
  InformedSet probe_pending(options.probe != nullptr ? n : 0);
  for (std::uint64_t r = 1; informed_count < n && r <= cap; ++r) {
    newly.clear();
    auto informed_before = [&](NodeId v) { return result.informed_round[v] < r; };
    for (NodeId v = 0; v < n; ++v) {
      const auto deg = g.degree(v);
      if (deg == 0) continue;
      const auto slot = static_cast<std::uint32_t>((start[v] + (r - 1)) % deg);
      const NodeId w = g.neighbor_at(v, slot);
      const bool v_in = informed_before(v);
      const bool w_in = informed_before(w);
      if (options.probe != nullptr) {
        probe_windowed(*options.probe, options.mode, v_in, w_in, false, v, w, probe_pending);
      }
      if (v_in == w_in) continue;
      switch (options.mode) {
        case Mode::kPush:
          if (v_in && result.informed_round[w] == kNeverRound) newly.push_back(w);
          break;
        case Mode::kPull:
          if (w_in && result.informed_round[v] == kNeverRound) newly.push_back(v);
          break;
        case Mode::kPushPull:
          if (v_in) {
            if (result.informed_round[w] == kNeverRound) newly.push_back(w);
          } else {
            if (result.informed_round[v] == kNeverRound) newly.push_back(v);
          }
          break;
      }
    }
    for (NodeId v : newly) {
      if (result.informed_round[v] == kNeverRound) {
        result.informed_round[v] = r;
        ++informed_count;
      }
      if (options.probe != nullptr) probe_pending.reset(v);
    }
    result.rounds = r;
  }

  result.completed = (informed_count == n);
  if (!result.completed) result.rounds = cap;
  return result;
}

}  // namespace rumor::core
