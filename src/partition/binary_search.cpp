#include "partition/binary_search.h"

#include <cmath>
#include <stdexcept>

namespace jps::partition {

namespace {

void validate(const ProfileCurve& curve) {
  if (curve.size() == 0)
    throw std::invalid_argument("binary_search_cut: empty curve");
  if (!curve.is_monotone())
    throw std::invalid_argument(
        "binary_search_cut: curve is not monotone; cluster it first");
  // The local-only cut has g = 0 <= f, so a crossing always exists.
}

// Fill l_minus and ratio once l_star is known.
CutDecision finish(const ProfileCurve& curve, std::size_t l_star,
                   int iterations) {
  CutDecision d;
  d.l_star = l_star;
  d.iterations = iterations;
  if (l_star == 0) return d;  // no communication-heavy type exists

  d.l_minus = l_star - 1;
  const double surplus = curve.f(l_star) - curve.g(l_star);       // >= 0
  const double deficit = curve.g(l_star - 1) - curve.f(l_star - 1);  // > 0
  if (deficit > 0.0 && surplus > 0.0) {
    d.ratio = static_cast<std::int64_t>(std::floor(surplus / deficit));
  }
  return d;
}

}  // namespace

std::size_t l_star_index(std::span<const double> f, std::span<const double> g,
                         int* iterations) {
  std::size_t lo = 0;
  std::size_t hi = f.size() - 1;
  // Invariant: f(hi) >= g(hi); if lo > 0 then f(lo-1) < g(lo-1).
  while (lo < hi) {
    if (iterations != nullptr) ++*iterations;
    const std::size_t mid = (lo + hi) / 2;
    if (f[mid] < g[mid]) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

CutDecision binary_search_cut(const ProfileCurve& curve) {
  validate(curve);
  int iterations = 0;
  const std::size_t l_star =
      l_star_index(curve.f_lane(), curve.g_lane(), &iterations);
  return finish(curve, l_star, iterations);
}

CutDecision linear_scan_cut(const ProfileCurve& curve) {
  validate(curve);
  std::size_t l_star = curve.size() - 1;
  int iterations = 0;
  for (std::size_t i = 0; i < curve.size(); ++i) {
    ++iterations;
    if (curve.f(i) >= curve.g(i)) {
      l_star = i;
      break;
    }
  }
  return finish(curve, l_star, iterations);
}

}  // namespace jps::partition
