#include "util/clock.hpp"

#include <cassert>
#include <cmath>

namespace dpr::util {

void SimClock::advance(SimTime delta) {
  assert(delta >= 0);
  now_ += delta;
}

void SimClock::advance_to(SimTime t) {
  if (t > now_) now_ = t;
}

SimTime DeviceClock::local_time(SimTime global) const {
  const double scaled =
      static_cast<double>(global) * (1.0 + drift_ppm_ * 1e-6);
  return static_cast<SimTime>(std::llround(scaled)) + offset_;
}

}  // namespace dpr::util
