#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

namespace dpr::util {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  const std::size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid),
                   xs.end());
  double hi = xs[mid];
  if (xs.size() % 2 == 1) return hi;
  std::nth_element(xs.begin(),
                   xs.begin() + static_cast<std::ptrdiff_t>(mid) - 1,
                   xs.end());
  return (xs[mid - 1] + hi) / 2.0;
}

double mad(std::vector<double> xs, double center) {
  if (xs.empty()) return 0.0;
  for (double& x : xs) x = std::abs(x - center);
  return median(std::move(xs));
}

double mean_absolute_error(std::span<const double> pred,
                           std::span<const double> target) {
  // A size mismatch is a caller bug, and 0.0 would read as a *perfect*
  // score; NaN poisons downstream comparisons instead of silently winning
  // them.
  if (pred.size() != target.size()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (pred.empty()) return 0.0;
  double s = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    s += std::abs(pred[i] - target[i]);
  }
  return s / static_cast<double>(pred.size());
}

double mean_squared_error(std::span<const double> pred,
                          std::span<const double> target) {
  if (pred.size() != target.size()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (pred.empty()) return 0.0;
  double s = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const double d = pred[i] - target[i];
    s += d * d;
  }
  return s / static_cast<double>(pred.size());
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  if (xs.size() != ys.size() || xs.size() < 2) return 0.0;
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace dpr::util
