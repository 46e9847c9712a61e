// Order statistics used by every metric the benchmark prints.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace ftbench {

/// Nearest-rank percentile, q in (0, 100]: the smallest sample with at
/// least q% of the samples at or below it (the rule the engine's own
/// scheduler_stats() uses). 0 for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// Median; the mean of the two middle samples for even counts.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

}  // namespace ftbench
