// Algorithm 2: binary-search partition for line-structure curves.
//
// On a clustered curve, f is non-decreasing and g non-increasing, so f - g
// crosses zero once.  The search finds the left-most cut l* with
// f(l*) >= g(l*) in O(log k) probes, and reports the paper's two partition
// types (l*-1, l*) together with the mixing ratio
//   ratio = floor( (f(l*) - g(l*)) / (g(l*-1) - f(l*-1)) )
// — the number of jobs cut at l*-1 per job cut at l* that balances the
// accumulated computation and communication (Theorem 5.3's construction).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "partition/profile_curve.h"

namespace jps::partition {

/// Output of Alg. 2.
struct CutDecision {
  /// Left-most index with f >= g.
  std::size_t l_star = 0;
  /// l_star - 1 (the communication-heavy partition type); nullopt when
  /// l_star == 0, i.e. even the cloud-only cut is computation-heavy.
  std::optional<std::size_t> l_minus;
  /// Jobs at l_minus per job at l_star (paper's floor formula); 0 when the
  /// single cut l_star already balances or l_minus is absent.
  std::int64_t ratio = 0;
  /// Binary-search iterations used (tests assert the O(log k) bound).
  int iterations = 0;
};

/// Alg. 2's search over monotone (f, g) lanes: the left-most index with
/// f >= g (the last index when no earlier one qualifies), in O(log k)
/// probes, counted into `*iterations` when given.  binary_search_cut and
/// core::decide both search with it.
[[nodiscard]] std::size_t l_star_index(std::span<const double> f,
                                       std::span<const double> g,
                                       int* iterations = nullptr);

/// Run Alg. 2 on a monotone curve.  Throws std::invalid_argument when the
/// curve is not monotone (cluster it first) or empty.
[[nodiscard]] CutDecision binary_search_cut(const ProfileCurve& curve);

/// Reference linear scan for the same l*; used by tests and the overhead
/// ablation. O(k).
[[nodiscard]] CutDecision linear_scan_cut(const ProfileCurve& curve);

}  // namespace jps::partition
