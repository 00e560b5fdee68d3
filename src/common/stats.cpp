#include "mdtask/common/stats.h"

#include <algorithm>

namespace mdtask {

double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double percentile(std::vector<double> xs, double p) noexcept {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) return xs.front();
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

}  // namespace mdtask
