#pragma once
// Controllable vehicle components (actuators) and the IO-control state
// machine of §4.5: freeze current state (0x02) -> short-term adjustment
// (0x03 + control state) -> return control to ECU (0x00).
//
// The actuator counts its activations so experiments (Table 13) can
// verify that a replayed request actually triggered the component.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/hex.hpp"

namespace dpr::vehicle {

class Actuator {
 public:
  enum class Phase { kEcuControlled, kFrozen, kAdjusting };

  Actuator() = default;
  explicit Actuator(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  Phase phase() const { return phase_; }
  bool active() const { return phase_ == Phase::kAdjusting; }
  const util::Bytes& control_state() const { return control_state_; }
  std::size_t activations() const { return activations_; }

  /// UDS-style IO-control parameter dispatch (first ECR byte). Returns
  /// the control-status bytes for the positive response, or nullopt if
  /// the transition is invalid (e.g. adjustment without a prior freeze).
  std::optional<util::Bytes> apply(std::uint8_t io_control_param,
                                   std::span<const std::uint8_t> state);

 private:
  std::string name_;
  Phase phase_ = Phase::kEcuControlled;
  util::Bytes control_state_;
  std::size_t activations_ = 0;
};

}  // namespace dpr::vehicle
