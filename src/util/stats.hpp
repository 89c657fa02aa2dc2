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

/// Mean absolute error between predictions and targets (GP fitness, §3.5).
/// Mismatched sizes return NaN (never 0.0, which would read as perfect).
double mean_absolute_error(std::span<const double> pred,
                           std::span<const double> target);

/// Mean squared error. Mismatched sizes return NaN.
double mean_squared_error(std::span<const double> pred,
                          std::span<const double> target);

/// Pearson correlation coefficient; returns 0 when either side is constant.
double pearson(std::span<const double> xs, std::span<const double> ys);

}  // namespace dpr::util
