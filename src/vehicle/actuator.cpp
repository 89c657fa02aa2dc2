#include "vehicle/actuator.hpp"

namespace dpr::vehicle {

std::optional<util::Bytes> Actuator::apply(
    std::uint8_t io_control_param, std::span<const std::uint8_t> state) {
  switch (io_control_param) {
    case 0x00: {  // returnControlToEcu
      phase_ = Phase::kEcuControlled;
      control_state_.clear();
      return util::Bytes{0x00};
    }
    case 0x01: {  // resetToDefault
      phase_ = Phase::kEcuControlled;
      control_state_.clear();
      return util::Bytes{0x01};
    }
    case 0x02: {  // freezeCurrentState ("prepare to control", §4.5)
      phase_ = Phase::kFrozen;
      return util::Bytes{0x02};
    }
    case 0x03: {  // shortTermAdjustment ("start controlling")
      if (phase_ == Phase::kEcuControlled) {
        // Real ECUs demand the freeze first; reject out-of-sequence
        // adjustments so the 3-message pattern is observable in traffic.
        return std::nullopt;
      }
      phase_ = Phase::kAdjusting;
      control_state_.assign(state.begin(), state.end());
      ++activations_;
      util::Bytes status{0x03};
      status.insert(status.end(), state.begin(), state.end());
      return status;
    }
    default:
      return std::nullopt;
  }
}

}  // namespace dpr::vehicle
