// rumor/core: spread-trajectory utilities.
//
// The social-network literature the paper builds on ([9], [16]) mostly
// measures the time for the rumor to reach a *fraction* of the nodes rather
// than all of them (asynchronous push-pull beats synchronous on power-law
// networks in exactly that metric). These helpers derive fraction-reach
// times and informed-count curves from the per-node inform rounds/times
// every engine already records — the one home of every stamps-to-curve
// derivation (the campaign's stats.curves included).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/protocol.hpp"

namespace rumor::core {

/// First round by which at least ceil(fraction * n) nodes were informed, per
/// a SyncResult's informed_round vector. Returns kNeverRound if the run
/// never reached that fraction. Precondition: 0 < fraction <= 1.
[[nodiscard]] std::uint64_t round_to_fraction(std::span<const std::uint64_t> informed_round,
                                              double fraction);

/// First time by which at least ceil(fraction * n) nodes were informed, per
/// an AsyncResult's informed_time vector. Returns kNeverTime if unreached.
[[nodiscard]] double time_to_fraction(std::span<const double> informed_time, double fraction);

/// The full informed-count trajectory of an asynchronous run, sampled at the
/// inform events: sorted inform times (the k-th entry is the time the
/// (k+1)-th node was informed). Never-informed nodes are omitted.
[[nodiscard]] std::vector<double> async_trajectory(std::span<const double> informed_time);

/// The per-round informed-count curve of a round-based run:
/// curve[r] = |{v : informed_round[v] <= r}| for r = 0..rounds.
[[nodiscard]] std::vector<NodeId> informed_round_curve(
    std::span<const std::uint64_t> informed_round, std::uint64_t rounds);

/// The bucketed informed-count curve of a timed run:
/// curve[k] = |{v : informed_time[v] <= k * bucket}|, with just enough
/// buckets that the last entry covers the latest (finite) inform time.
/// Nodes never informed (kNeverTime) are not counted by any bucket.
/// Precondition: bucket > 0.
[[nodiscard]] std::vector<NodeId> informed_time_curve(std::span<const double> informed_time,
                                                      double bucket);

}  // namespace rumor::core
