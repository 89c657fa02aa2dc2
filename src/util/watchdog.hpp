#pragma once
// Cooperative phase watchdog: a monotonic (wall-clock) deadline plus an
// optional sim-time deadline that long-running loops poll. Nothing here is
// preemptive — a hung phase only dies because its inner loops check the
// watchdog — which keeps the campaign pipeline free of signals and thread
// kills.
//
// The deadlines are plain members. The campaign arms the watchdog before
// a phase fans its GP jobs out and disarms it only after the fan-out has
// returned; the pool's mutex and the loop's completion count order both
// writes against every job's reads of expired().

#include <chrono>
#include <stdexcept>
#include <string>

#include "util/clock.hpp"

namespace dpr::util {

/// Thrown by Watchdog::poll() when the armed phase ran past its budget.
/// FleetRunner turns this into a `phase_timeout(<phase>)` failure slot.
class DeadlineExceeded : public std::runtime_error {
 public:
  explicit DeadlineExceeded(std::string phase);
  const std::string& phase() const { return phase_; }

 private:
  std::string phase_;
};

/// Per-phase deadline driver. arm() names the phase and starts the clock;
/// poll() throws DeadlineExceeded once the budget is spent. Inner loops
/// that want to stop early instead of throwing (GP generations) read
/// expired().
class Watchdog {
 public:
  Watchdog() = default;

  /// Arm the wall-clock budget, plus an optional sim-time budget (seconds
  /// of *sim* time; 0 disables) checked against `clock`. Either budget
  /// running out throws the same phase_timeout(<phase>). The sim budget
  /// catches the inverse failure of the wall-clock one: a phase burning
  /// sim-hours (e.g. waiting out bus sleeps) while still making real-time
  /// progress.
  void arm(std::string phase, double budget_s, double sim_budget_s = 0.0,
           const SimClock* clock = nullptr);

  void disarm();

  bool armed() const { return budget_s_ > 0.0 || sim_budget_s_ > 0.0; }

  /// True when an armed wall-clock or sim-time budget has run out; an
  /// unarmed watchdog never expires.
  bool expired() const;

  /// Throws DeadlineExceeded when expired().
  void poll() const;

 private:
  std::string phase_;
  double budget_s_ = 0.0;
  double sim_budget_s_ = 0.0;
  std::chrono::steady_clock::time_point deadline_{};
  const SimClock* sim_clock_ = nullptr;
  SimTime sim_deadline_ = 0;
};

}  // namespace dpr::util
