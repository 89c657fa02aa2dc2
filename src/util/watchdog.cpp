#include "util/watchdog.hpp"

namespace dpr::util {

DeadlineExceeded::DeadlineExceeded(std::string phase)
    : std::runtime_error("phase_timeout(" + phase + ")"),
      phase_(std::move(phase)) {}

void Watchdog::arm(std::string phase, double budget_s, double sim_budget_s,
                   const SimClock* clock) {
  phase_ = std::move(phase);
  budget_s_ = budget_s;
  sim_budget_s_ = (clock != nullptr) ? sim_budget_s : 0.0;
  sim_clock_ = clock;
  if (budget_s_ > 0.0) {
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::duration<double>(budget_s_));
  }
  if (sim_budget_s_ > 0.0) {
    sim_deadline_ =
        clock->now() + static_cast<SimTime>(sim_budget_s_ * kSecond);
  }
}

void Watchdog::disarm() {
  budget_s_ = 0.0;
  sim_budget_s_ = 0.0;
}

bool Watchdog::expired() const {
  if (sim_budget_s_ > 0.0 && sim_clock_->now() >= sim_deadline_) return true;
  return budget_s_ > 0.0 && std::chrono::steady_clock::now() >= deadline_;
}

void Watchdog::poll() const {
  if (expired()) throw DeadlineExceeded(phase_);
}

}  // namespace dpr::util
