#pragma once
// OBD-port sniffer: passively records every frame on the bus with the
// capture device's local timestamp (the capture laptop has its own clock,
// modeled by a DeviceClock — §9.4 alignment exists because of this skew).

#include <utility>
#include <vector>

#include "can/bus.hpp"
#include "can/frame.hpp"
#include "util/clock.hpp"

namespace dpr::can {

class Sniffer {
 public:
  /// Attaches to `bus`; timestamps are translated through `device_clock`
  /// (pass a default-constructed clock for a perfectly synced sniffer).
  Sniffer(CanBus& bus, util::DeviceClock device_clock = {});

  const std::vector<TimestampedFrame>& capture() const { return capture_; }
  /// Hand the recorded frames over, leaving the capture empty.
  std::vector<TimestampedFrame> take() { return std::exchange(capture_, {}); }
  std::size_t size() const { return capture_.size(); }
  void clear() { capture_.clear(); }

  /// Start/stop recording (attached but paused sniffers drop frames).
  void set_recording(bool on) { recording_ = on; }

 private:
  util::DeviceClock device_clock_;
  std::vector<TimestampedFrame> capture_;
  bool recording_ = true;
};

}  // namespace dpr::can
