#pragma once
// Transport-agnostic message link.
//
// UDS runs over ISO-TP; KWP 2000 runs over ISO-TP, VW TP 2.0 or the BMW
// framing variant (Table 1). Application-layer clients and servers talk
// through this interface so the same diagnostic logic composes with every
// transport.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace dpr::util {

class MessageLink {
 public:
  using Handler = std::function<void(const std::vector<std::uint8_t>&)>;

  virtual ~MessageLink() = default;

  /// Queue a complete application-layer message for transmission.
  virtual void send(std::span<const std::uint8_t> payload) = 0;

  /// Register the callback invoked with each reassembled incoming message.
  virtual void set_message_handler(Handler handler) = 0;
};

}  // namespace dpr::util
