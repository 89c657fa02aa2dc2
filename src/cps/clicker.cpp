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
  clock_.advance(travel_time(x, y) + kDwell);
  x_ = x;
  y_ = y;
  return ClickEvent{clock_.now(), x, y};
}

}  // namespace dpr::cps
