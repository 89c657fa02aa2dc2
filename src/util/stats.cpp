#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace dpr::util {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

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

}  // namespace dpr::util
