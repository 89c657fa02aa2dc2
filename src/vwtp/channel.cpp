#include "vwtp/channel.hpp"

namespace dpr::vwtp {

Channel::Channel(can::CanBus& bus, ChannelConfig config)
    : bus_(bus), config_(config) {
  // Exact-id subscription; the id check stays for the extended flag,
  // which the value-based filter does not compare.
  bus_.attach(
      [this](const can::CanFrame& frame, util::SimTime) {
        if (frame.id() == config_.rx_id) on_frame(frame);
      },
      can::IdFilter::exact(config_.rx_id));
}

void Channel::send(std::span<const std::uint8_t> payload) {
  // ACK windows are honored by the peer replying asynchronously; the data
  // frames are queued up-front (the bus preserves order per sender).
  for (auto& frame : segment_message(config_.tx_id, payload, tx_sequence_)) {
    bus_.send(frame);
  }
  tx_sequence_ = static_cast<std::uint8_t>(
      (tx_sequence_ + (payload.size() + 6) / 7) & 0x0F);
  ++stats_.messages_sent;
}

void Channel::on_frame(const can::CanFrame& frame) {
  const auto kind = classify(frame);
  if (!kind) return;

  if (*kind == FrameKind::kAck) {
    ++stats_.acks_received;
    return;
  }
  if (*kind == FrameKind::kChannelParamsRequest) {
    // Echo the proposed parameters back as accepted.
    util::Bytes params(frame.data().begin(), frame.data().end());
    params[0] = 0xA1;
    bus_.send(can::CanFrame(config_.tx_id, params));
    return;
  }
  if (*kind != FrameKind::kData) return;

  const auto info = decode_data(frame);
  if (!info) return;
  const bool ack_due = expects_ack(info->op);
  if (auto message = reassembler_.feed(frame)) {
    ++stats_.messages_received;
    if (ack_due) {
      bus_.send(encode_ack(config_.tx_id,
                           static_cast<std::uint8_t>((info->sequence + 1) &
                                                     0x0F)));
      ++stats_.acks_sent;
    }
    if (handler_) handler_(*message);
    return;
  }
  if (ack_due) {
    bus_.send(encode_ack(
        config_.tx_id,
        static_cast<std::uint8_t>((info->sequence + 1) & 0x0F)));
    ++stats_.acks_sent;
  }
}

can::CanFrame encode_setup_request(std::uint8_t dest_ecu,
                                   can::CanId proposed_rx,
                                   std::uint8_t app_type) {
  util::Bytes data{dest_ecu,
                   0xC0,
                   static_cast<std::uint8_t>(proposed_rx.value & 0xFF),
                   static_cast<std::uint8_t>((proposed_rx.value >> 8) & 0x07),
                   0x00,
                   0x10,  // "tx id invalid: ECU decides"
                   app_type};
  return can::CanFrame(can::CanId{kBroadcastId, false}, data);
}

can::CanFrame encode_setup_response(std::uint8_t dest_ecu, can::CanId ecu_rx,
                                    can::CanId ecu_tx) {
  util::Bytes data{0x00,
                   0xD0,
                   static_cast<std::uint8_t>(ecu_rx.value & 0xFF),
                   static_cast<std::uint8_t>((ecu_rx.value >> 8) & 0x07),
                   static_cast<std::uint8_t>(ecu_tx.value & 0xFF),
                   static_cast<std::uint8_t>((ecu_tx.value >> 8) & 0x07),
                   0x01};
  return can::CanFrame(can::CanId{kBroadcastId + dest_ecu, false}, data);
}

std::optional<SetupResult> decode_setup_response(const can::CanFrame& frame) {
  if (classify(frame) != FrameKind::kChannelSetupResponse) return std::nullopt;
  if (frame.dlc() < 7) return std::nullopt;
  SetupResult result;
  // The ECU's rx id is the tester's tx id and vice versa.
  result.tester_tx = can::CanId{
      static_cast<std::uint32_t>(frame.byte(2) | (frame.byte(3) << 8)),
      false};
  result.tester_rx = can::CanId{
      static_cast<std::uint32_t>(frame.byte(4) | (frame.byte(5) << 8)),
      false};
  return result;
}

}  // namespace dpr::vwtp
