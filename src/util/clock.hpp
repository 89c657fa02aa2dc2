#pragma once
// Simulated time base shared by every component of the cyber-physical rig.
//
// The paper aligns diagnostic-message timestamps with UI-video timestamps
// (§3.5 step 1, §9.4). To reproduce clock-skew effects we model each device
// (CAN sniffer laptop, camera smartphone) as a DeviceClock with its own
// offset/drift relative to one global SimClock.

#include <cstdint>

namespace dpr::util {

/// Monotonic simulated time in microseconds since experiment start.
using SimTime = std::int64_t;

constexpr SimTime kMicrosecond = 1;
constexpr SimTime kMillisecond = 1000;
constexpr SimTime kSecond = 1000 * kMillisecond;

/// Central simulated clock. Components advance it explicitly; there is no
/// wall-clock dependence anywhere in the pipeline.
class SimClock {
 public:
  SimTime now() const { return now_; }

  void advance(SimTime delta);

  /// Jump directly to an absolute time; must not move backwards.
  void advance_to(SimTime t);

 private:
  SimTime now_ = 0;
};

/// A device-local clock with fixed offset and linear drift against the
/// global SimClock. `local = global * (1 + drift_ppm*1e-6) + offset`.
class DeviceClock {
 public:
  DeviceClock() = default;
  DeviceClock(SimTime offset, double drift_ppm)
      : offset_(offset), drift_ppm_(drift_ppm) {}

  SimTime local_time(SimTime global) const;

 private:
  SimTime offset_ = 0;
  double drift_ppm_ = 0.0;
};

}  // namespace dpr::util
