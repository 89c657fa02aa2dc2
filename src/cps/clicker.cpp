#include "cps/clicker.hpp"

#include <cmath>
#include <cstdlib>

namespace dpr::cps {

util::SimTime RoboticClicker::travel_time(int x, int y) const {
  const double manhattan = std::abs(x - x_) + std::abs(y - y_);
  return static_cast<util::SimTime>(manhattan / kSpeedPxPerS *
                                    static_cast<double>(util::kSecond));
}

ClickEvent RoboticClicker::move_and_click(int x, int y) {
  const util::SimTime travel = travel_time(x, y);
  clock_.advance(travel + kDwell);
  total_travel_ += travel;
  x_ = x;
  y_ = y;
  const ClickEvent event{clock_.now(), x, y};
  log_.push_back(event);
  return event;
}

}  // namespace dpr::cps
