#include "core/informing_forest.hpp"

#include <algorithm>
#include <cassert>

namespace rumor::core {

std::uint32_t InformingForest::path_length(NodeId v) const {
  std::uint32_t hops = 0;
  while (parent[v] != kNoParent) {
    v = parent[v];
    ++hops;
    assert(hops <= parent.size() && "cycle in informing forest");
  }
  return hops;
}

std::uint32_t InformingForest::depth() const {
  std::uint32_t deepest = 0;
  for (NodeId v = 0; v < parent.size(); ++v) {
    if (parent[v] != kNoParent) deepest = std::max(deepest, path_length(v));
  }
  return deepest;
}

}  // namespace rumor::core
