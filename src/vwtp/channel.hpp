#pragma once
// Active TP 2.0 channel endpoint: performs channel setup on the broadcast
// id, exchanges channel parameters, then transfers messages with the
// ACK-windowed data opcodes. One side is the tester, the peer is the ECU.

#include <functional>

#include "can/bus.hpp"
#include "util/link.hpp"
#include "vwtp/vwtp.hpp"

namespace dpr::vwtp {

using MessageHandler = util::MessageLink::Handler;

struct ChannelConfig {
  can::CanId tx_id;  // id this side transmits data frames on
  can::CanId rx_id;  // id this side receives data frames on
};

/// A connected TP 2.0 data channel (post-setup). The broadcast handshake
/// is modeled by ChannelSetup below; a Channel assumes negotiated ids.
class Channel : public util::MessageLink {
 public:
  Channel(can::CanBus& bus, ChannelConfig config);

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void set_message_handler(MessageHandler handler) override {
    handler_ = std::move(handler);
  }

  /// Segment and queue a full diagnostic message.
  void send(std::span<const std::uint8_t> payload) override;

  struct Stats {
    std::size_t messages_sent = 0;
    std::size_t messages_received = 0;
    std::size_t acks_sent = 0;
    std::size_t acks_received = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  void on_frame(const can::CanFrame& frame);

  can::CanBus& bus_;
  ChannelConfig config_;
  MessageHandler handler_;
  Stats stats_;
  Reassembler reassembler_;
  std::uint8_t tx_sequence_ = 0;
};

/// Channel-setup handshake on the broadcast id (0x200 + ECU offset).
/// The tester proposes ids; the ECU answers with the negotiated pair.
struct SetupResult {
  can::CanId tester_tx;  // tester -> ECU data id
  can::CanId tester_rx;  // ECU -> tester data id
};

/// Encode the tester's setup request: [dest, 0xC0, rx lo, rx hi, tx lo,
/// tx hi, app type].
can::CanFrame encode_setup_request(std::uint8_t dest_ecu,
                                   can::CanId proposed_rx,
                                   std::uint8_t app_type = 0x01);

/// Encode the ECU's positive setup response carrying the negotiated ids.
can::CanFrame encode_setup_response(std::uint8_t dest_ecu, can::CanId ecu_rx,
                                    can::CanId ecu_tx);

std::optional<SetupResult> decode_setup_response(const can::CanFrame& frame);

}  // namespace dpr::vwtp
