#include "cps/planner.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace dpr::cps {

long manhattan(const Point& a, const Point& b) {
  return std::labs(a.x - b.x) + std::labs(a.y - b.y);
}

long tour_length(const Point& start, const std::vector<Point>& points,
                 const std::vector<std::size_t>& order) {
  if (order.empty()) return 0;
  long total = manhattan(start, points[order.front()]);
  for (std::size_t i = 1; i < order.size(); ++i) {
    total += manhattan(points[order[i - 1]], points[order[i]]);
  }
  // Close the tour back to the first visited ESV (§3.1).
  total += manhattan(points[order.back()], points[order.front()]);
  return total;
}

std::vector<std::size_t> plan_nearest_neighbor(
    const Point& start, const std::vector<Point>& points) {
  std::vector<std::size_t> order;
  std::vector<bool> visited(points.size(), false);
  Point current = start;
  for (std::size_t step = 0; step < points.size(); ++step) {
    long best = std::numeric_limits<long>::max();
    std::size_t pick = points.size();
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (visited[i]) continue;
      const long d = manhattan(current, points[i]);
      if (d < best) {
        best = d;
        pick = i;
      }
    }
    visited[pick] = true;
    order.push_back(pick);
    current = points[pick];
  }
  return order;
}

std::vector<std::size_t> plan_random(const std::vector<Point>& points,
                                     util::Rng& rng) {
  std::vector<std::size_t> order(points.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Fisher-Yates with the deterministic Rng.
  for (std::size_t i = order.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

std::vector<std::size_t> plan_brute_force(
    const Point& start, const std::vector<Point>& points) {
  if (points.size() > 10) {
    throw std::invalid_argument("brute force limited to 10 points");
  }
  std::vector<std::size_t> order(points.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<std::size_t> best = order;
  long best_len = tour_length(start, points, order);
  while (std::next_permutation(order.begin(), order.end())) {
    const long len = tour_length(start, points, order);
    if (len < best_len) {
      best_len = len;
      best = order;
    }
  }
  return best;
}

}  // namespace dpr::cps
