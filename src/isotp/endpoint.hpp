#pragma once
// Active ISO-TP endpoint: participates in the flow-control handshake.
//
// The diagnostic tool and every ECU own one Endpoint each. An endpoint is
// bound to a (tx id, rx id) pair on a shared CanBus: it segments outgoing
// messages, waits for the peer's flow control before streaming consecutive
// frames (honoring block size and STmin), answers incoming first frames
// with flow control, and reassembles incoming messages.

#include <functional>
#include <string>

#include "can/bus.hpp"
#include "isotp/isotp.hpp"
#include "util/hex.hpp"
#include "util/link.hpp"

namespace dpr::isotp {

/// Invoked with each fully reassembled incoming message.
using MessageHandler = util::MessageLink::Handler;

struct EndpointConfig {
  can::CanId tx_id;        // id this endpoint transmits on
  can::CanId rx_id;        // id this endpoint listens to
  std::uint8_t block_size = 8;   // advertised in our FC frames
  std::uint8_t st_min_ms = 0;    // advertised separation time
  std::size_t max_rx_length = kMaxMessageLength;  // overflow above this
  /// N_Bs: how long a segmented send may wait for the peer's FC before a
  /// later send() aborts it (e.g. when the FC frame was dropped).
  util::SimTime n_bs_timeout = util::kSecond;
};

class Endpoint : public util::MessageLink {
 public:
  Endpoint(can::CanBus& bus, EndpointConfig config);

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  void set_message_handler(MessageHandler handler) override {
    handler_ = std::move(handler);
  }

  /// Queue a message for transmission. Single-frame messages go out
  /// immediately; longer messages emit FF and then stream CFs as flow
  /// control arrives. While one is in flight, a send is refused until it
  /// has waited N_Bs for flow control, then aborts it and goes out.
  void send(std::span<const std::uint8_t> payload) override;

  bool send_in_progress() const { return tx_.active; }

  struct Stats {
    std::size_t messages_sent = 0;
    std::size_t messages_received = 0;
    std::size_t fc_sent = 0;
    std::size_t fc_wait_received = 0;
    std::size_t overflows = 0;
    std::size_t sequence_errors = 0;
    std::size_t duplicate_frames = 0;  // retransmitted CFs ignored
    std::size_t tx_aborted = 0;        // stale sends reaped after N_Bs
    std::size_t tx_rejected = 0;       // sends refused while tx in flight
  };
  const Stats& stats() const { return stats_; }

 private:
  void on_frame(const can::CanFrame& frame);
  void handle_flow_control(const FlowControl& fc);
  void stream_block();

  can::CanBus& bus_;
  EndpointConfig config_;
  MessageHandler handler_;
  Stats stats_;

  // Transmit state.
  struct TxState {
    bool active = false;
    bool awaiting_fc = false;
    util::Bytes payload;
    std::size_t offset = 0;
    std::uint8_t sequence = 1;
    std::uint8_t block_size = 0;     // from peer FC; 0 = unlimited
    std::uint8_t st_min_ms = 0;      // from peer FC
    std::size_t frames_in_block = 0;
    util::SimTime fc_deadline = 0;   // N_Bs expiry while awaiting FC
  } tx_;

  // Receive state.
  struct RxState {
    bool active = false;
    std::size_t total_length = 0;
    std::uint8_t next_sequence = 1;
    std::size_t frames_since_fc = 0;
    bool any_cf = false;  // a retransmitted CF is only recognizable after 1
    util::Bytes buffer;
  } rx_;
};

}  // namespace dpr::isotp
