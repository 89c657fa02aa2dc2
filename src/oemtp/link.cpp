#include "oemtp/link.hpp"

namespace dpr::oemtp {

BmwLink::BmwLink(can::CanBus& bus, BmwLinkConfig config)
    : bus_(bus), config_(config) {
  // Exact-id subscription; the id check stays for the extended flag,
  // which the value-based filter does not compare.
  bus_.attach(
      [this](const can::CanFrame& frame, util::SimTime) {
        if (frame.id() != config_.rx_id) return;
        if (auto message = reassembler_.feed(frame)) {
          if (message->ecu_id != config_.own_address) return;
          if (handler_) handler_(message->payload);
        }
      },
      can::IdFilter::exact(config_.rx_id));
}

void BmwLink::send(std::span<const std::uint8_t> payload) {
  for (auto& frame :
       segment_bmw(config_.tx_id, config_.peer_address, payload)) {
    bus_.send(frame);
  }
}

}  // namespace dpr::oemtp
