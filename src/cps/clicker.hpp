#pragma once
// Robotic clicker (stylus-pen actuator, §3.1): moves straight along the
// coordinate axes at a fixed speed, so travel time between two targets is
// the Manhattan distance over the pen speed — which is why the planner
// optimizes a travelling-salesman tour over the click targets.

#include "util/clock.hpp"

namespace dpr::cps {

struct ClickEvent {
  util::SimTime timestamp = 0;  // when the click landed (global time)
  int x = 0, y = 0;
};

class RoboticClicker {
 public:
  /// Axis-aligned pen speed and press duration.
  static constexpr double kSpeedPxPerS = 900.0;
  static constexpr util::SimTime kDwell = 120 * util::kMillisecond;

  explicit RoboticClicker(util::SimClock& clock) : clock_(clock) {}

  /// Move to (x, y) and click, advancing the clock by travel + dwell.
  ClickEvent move_and_click(int x, int y);

  /// Travel time for a hypothetical move from the current position.
  util::SimTime travel_time(int x, int y) const;

  int x() const { return x_; }
  int y() const { return y_; }

 private:
  util::SimClock& clock_;
  int x_ = 0, y_ = 0;
};

}  // namespace dpr::cps
