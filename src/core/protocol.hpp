// rumor/core: shared vocabulary for the rumor-spreading protocols.
//
// The paper (Section 2) studies randomized rumor spreading on a connected
// undirected graph G: a source u knows a rumor at time 0, and nodes contact
// uniformly random neighbors to exchange it, either in synchronized rounds
// (pp) or at the ticks of independent rate-1 Poisson clocks (pp-a). This
// header defines the communication modes and the result types shared by the
// synchronous and asynchronous engines.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph.hpp"

namespace rumor::core {

using graph::Graph;
using graph::NodeId;

/// Which direction(s) the rumor may travel when caller v contacts callee w.
enum class Mode : std::uint8_t {
  /// Informed caller hands the rumor to its callee.
  kPush,
  /// Uninformed caller receives the rumor from an informed callee.
  kPull,
  /// Both of the above (the paper's main object of study).
  kPushPull,
};

[[nodiscard]] constexpr const char* mode_name(Mode m) noexcept {
  switch (m) {
    case Mode::kPush: return "push";
    case Mode::kPull: return "pull";
    case Mode::kPushPull: return "push-pull";
  }
  return "?";
}

/// Sentinel for "never informed".
inline constexpr std::uint64_t kNeverRound = std::numeric_limits<std::uint64_t>::max();
inline constexpr double kNeverTime = std::numeric_limits<double>::infinity();

/// Result of one synchronous execution.
struct SyncResult {
  /// Rounds until every node was informed (valid iff `completed`).
  std::uint64_t rounds = 0;
  /// False if the round cap was hit first (disconnected graph or tiny cap).
  bool completed = false;
  /// Round in which each node was informed; source gets 0, never-informed
  /// nodes get kNeverRound.
  std::vector<std::uint64_t> informed_round;
};

/// Result of one asynchronous execution.
struct AsyncResult {
  /// Time units until every node was informed (valid iff `completed`).
  double time = 0.0;
  /// Total clock ticks (protocol steps) consumed.
  std::uint64_t steps = 0;
  bool completed = false;
  /// Time at which each node was informed; source gets 0.0, never-informed
  /// nodes get kNeverTime.
  std::vector<double> informed_time;
};

}  // namespace rumor::core
