#pragma once
// Small statistics helpers used by the screenshot outlier filter (§3.3),
// the correlation module and the regression baselines.

#include <span>
#include <vector>

namespace dpr::util {

double mean(std::span<const double> xs);
double variance(std::span<const double> xs);   // population variance
double stddev(std::span<const double> xs);
double median(std::vector<double> xs);          // by value: sorts a copy

/// Median absolute deviation (raw, not scaled to sigma) about `center`,
/// the median of `xs` the caller already holds (`median(xs)`).
double mad(std::vector<double> xs, double center);

}  // namespace dpr::util
