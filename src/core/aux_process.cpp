#include "core/aux_process.hpp"

#include <cassert>
#include <cmath>
#include <vector>

#include "core/sync.hpp"

namespace rumor::core {

SyncResult run_aux(const Graph& g, NodeId source, rng::Engine& eng, const AuxOptions& options) {
  const NodeId n = g.num_nodes();
  assert(source < n);

  SyncResult result;
  result.informed_round.assign(n, kNeverRound);
  result.informed_round[source] = 0;
  NodeId informed_count = 1;
  for (NodeId extra : options.extra_sources) {
    assert(extra < n);
    if (result.informed_round[extra] == kNeverRound) {
      result.informed_round[extra] = 0;
      ++informed_count;
    }
  }

  // k[v] = number of informed neighbors of v, maintained incrementally:
  // when a node becomes informed we bump each neighbor's count (total work
  // O(m) across the run).
  std::vector<std::uint32_t> informed_neighbors(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (result.informed_round[v] != kNeverRound) {
      for (NodeId w : g.neighbors(v)) ++informed_neighbors[w];
    }
  }

  const std::uint64_t cap =
      options.max_ticks != 0 ? options.max_ticks : default_round_cap(n);

  std::vector<NodeId> newly_informed;
  for (std::uint64_t r = 1; informed_count < n && r <= cap; ++r) {
    newly_informed.clear();
    auto informed_before = [&](NodeId v) { return result.informed_round[v] < r; };

    for (NodeId v = 0; v < n; ++v) {
      if (g.degree(v) == 0) continue;
      if (informed_before(v)) {
        // Push side: identical to pp.
        const NodeId w = g.random_neighbor(v, eng);
        if (result.informed_round[w] == kNeverRound) newly_informed.push_back(w);
      } else {
        // Pull side: aggregate probability from Definition 5 / 7.
        const std::uint32_t k = informed_neighbors[v];
        if (k == 0) continue;
        const auto deg = g.degree(v);
        double p = -std::expm1(-2.0 * static_cast<double>(k) / static_cast<double>(deg));
        if (options.kind == AuxKind::kPpx && 2 * k >= deg) p = 1.0;
        if (p < 1.0 && !rng::bernoulli(eng, p)) continue;
        // Definition 5/7 lets v pull from a uniformly random informed
        // neighbor; which one is irrelevant to the state evolution (v just
        // becomes informed), so the informer is not materialized.
        if (result.informed_round[v] == kNeverRound) newly_informed.push_back(v);
      }
    }
    for (NodeId v : newly_informed) {
      if (result.informed_round[v] == kNeverRound) {
        result.informed_round[v] = r;
        ++informed_count;
        for (NodeId w : g.neighbors(v)) ++informed_neighbors[w];
      }
    }
    result.rounds = r;
  }

  result.completed = (informed_count == n);
  if (!result.completed) result.rounds = cap;
  return result;
}

}  // namespace rumor::core
