#pragma once
// Click-sequence planner (§3.1): the set of ESV coordinates to click is a
// travelling-salesman instance under the Manhattan metric (the stylus
// moves axis-aligned at fixed speed). The paper uses the nearest-neighbor
// heuristic; random order and exact brute force are provided for the
// planner row of the paper table.

#include <cstddef>
#include <vector>

#include "util/rng.hpp"

namespace dpr::cps {

struct Point {
  int x = 0;
  int y = 0;
};

/// Manhattan distance (matches the pen kinematics).
long manhattan(const Point& a, const Point& b);

/// Total tour length visiting `order` from `start` and returning to the
/// first visited point (the paper's tour "returns to the origin ESV").
long tour_length(const Point& start, const std::vector<Point>& points,
                 const std::vector<std::size_t>& order);

/// Nearest-neighbor heuristic from `start`; O(n^2).
std::vector<std::size_t> plan_nearest_neighbor(
    const Point& start, const std::vector<Point>& points);

/// Uniformly random order (the baseline the paper compares against).
std::vector<std::size_t> plan_random(const std::vector<Point>& points,
                                     util::Rng& rng);

/// Exact solution by exhaustive permutation; feasible for n <= 10.
std::vector<std::size_t> plan_brute_force(
    const Point& start, const std::vector<Point>& points);

}  // namespace dpr::cps
