// Batch summary statistics used by the benchmark harness.
#pragma once

#include <span>
#include <vector>

namespace mdtask {

/// Arithmetic mean of a sample; 0 for empty input.
double mean(std::span<const double> xs) noexcept;
/// Linear-interpolated percentile, p in [0,100]. Sorts a copy.
double percentile(std::vector<double> xs, double p) noexcept;

}  // namespace mdtask
