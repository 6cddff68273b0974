#include "core/trajectory.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace rumor::core {

namespace {

std::size_t target_count(std::size_t n, double fraction) {
  assert(fraction > 0.0 && fraction <= 1.0);
  const auto target = static_cast<std::size_t>(std::ceil(fraction * static_cast<double>(n)));
  return std::max<std::size_t>(1, std::min(target, n));
}

}  // namespace

std::uint64_t round_to_fraction(std::span<const std::uint64_t> informed_round, double fraction) {
  const std::size_t target = target_count(informed_round.size(), fraction);
  std::vector<std::uint64_t> rounds(informed_round.begin(), informed_round.end());
  std::nth_element(rounds.begin(), rounds.begin() + static_cast<std::ptrdiff_t>(target - 1),
                   rounds.end());
  return rounds[target - 1];
}

double time_to_fraction(std::span<const double> informed_time, double fraction) {
  const std::size_t target = target_count(informed_time.size(), fraction);
  std::vector<double> times(informed_time.begin(), informed_time.end());
  std::nth_element(times.begin(), times.begin() + static_cast<std::ptrdiff_t>(target - 1),
                   times.end());
  return times[target - 1];
}

std::vector<double> async_trajectory(std::span<const double> informed_time) {
  std::vector<double> times;
  times.reserve(informed_time.size());
  for (double t : informed_time) {
    if (t != kNeverTime) times.push_back(t);
  }
  std::sort(times.begin(), times.end());
  return times;
}

std::vector<NodeId> informed_round_curve(std::span<const std::uint64_t> informed_round,
                                         std::uint64_t rounds) {
  std::vector<NodeId> curve(static_cast<std::size_t>(rounds) + 1, 0);
  for (const std::uint64_t r : informed_round) {
    if (r <= rounds) ++curve[static_cast<std::size_t>(r)];
  }
  for (std::size_t i = 1; i < curve.size(); ++i) curve[i] += curve[i - 1];
  return curve;
}

std::vector<NodeId> informed_time_curve(std::span<const double> informed_time, double bucket) {
  // Minimal k with k * bucket >= t, computed with an explicit fix-up so the
  // curve matches the comparison-based definition exactly (ceil of the
  // division alone can land one bucket off after float rounding).
  auto bucket_of = [bucket](double t) {
    if (t <= 0.0) return std::uint64_t{0};
    auto k = static_cast<std::uint64_t>(std::ceil(t / bucket));
    while (k > 0 && static_cast<double>(k - 1) * bucket >= t) --k;
    while (static_cast<double>(k) * bucket < t) ++k;
    return k;
  };
  std::uint64_t buckets = 0;
  for (const double t : informed_time) {
    if (t != kNeverTime) buckets = std::max(buckets, bucket_of(t));
  }
  std::vector<NodeId> curve(static_cast<std::size_t>(buckets) + 1, 0);
  for (const double t : informed_time) {
    if (t != kNeverTime) ++curve[static_cast<std::size_t>(bucket_of(t))];
  }
  for (std::size_t i = 1; i < curve.size(); ++i) curve[i] += curve[i - 1];
  return curve;
}

}  // namespace rumor::core
