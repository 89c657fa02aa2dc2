#include "isotp/endpoint.hpp"

#include <stdexcept>

namespace dpr::isotp {

Endpoint::Endpoint(can::CanBus& bus, EndpointConfig config)
    : bus_(bus), config_(config) {
  // Exact-id subscription: the bus only routes rx_id frames here. The
  // id check stays — it also compares the extended flag, which the
  // value-based filter does not.
  bus_.attach(
      [this](const can::CanFrame& frame, util::SimTime) {
        if (frame.id() == config_.rx_id) on_frame(frame);
      },
      can::IdFilter::exact(config_.rx_id));
}

void Endpoint::send(std::span<const std::uint8_t> payload) {
  if (tx_.active) {
    if (config_.stall_policy == StallPolicy::kThrow) {
      throw std::logic_error("ISO-TP send while previous message in flight");
    }
    if (tx_.awaiting_fc && bus_.clock().now() >= tx_.fc_deadline) {
      // The peer's flow control never arrived (N_Bs expired): reap the
      // stale transfer so this transaction can proceed.
      ++stats_.tx_aborted;
      tx_ = TxState{};
    } else {
      // Still legitimately in flight; refuse and let the transaction
      // layer retry after its own timeout.
      ++stats_.tx_rejected;
      return;
    }
  }
  if (payload.empty() || payload.size() > kMaxMessageLength) {
    throw std::invalid_argument("ISO-TP payload must be 1..4095 bytes");
  }
  if (payload.size() <= kMaxSingleFramePayload) {
    bus_.send(encode_single(config_.tx_id, payload, config_.pad_frames));
    ++stats_.messages_sent;
    return;
  }
  tx_.active = true;
  tx_.awaiting_fc = true;
  tx_.payload.assign(payload.begin(), payload.end());
  tx_.offset = 6;
  tx_.sequence = 1;
  tx_.frames_in_block = 0;
  tx_.fc_deadline = bus_.clock().now() + config_.n_bs_timeout;
  bus_.send(encode_first(config_.tx_id, payload));
}

void Endpoint::handle_flow_control(const FlowControl& fc) {
  if (!tx_.active) return;
  switch (fc.status) {
    case FlowStatus::kOverflow:
      ++stats_.overflows;
      tx_ = TxState{};
      return;
    case FlowStatus::kWait:
      ++stats_.fc_wait_received;
      tx_.awaiting_fc = true;
      tx_.fc_deadline = bus_.clock().now() + config_.n_bs_timeout;
      return;
    case FlowStatus::kContinueToSend:
      tx_.awaiting_fc = false;
      tx_.block_size = fc.block_size;
      tx_.st_min_ms = fc.st_min;
      tx_.frames_in_block = 0;
      stream_block();
      return;
  }
}

void Endpoint::stream_block() {
  while (tx_.active && !tx_.awaiting_fc && tx_.offset < tx_.payload.size()) {
    // STmin pacing: the bus clock advances by the mandated gap before each
    // consecutive frame is queued.
    if (tx_.st_min_ms != 0 && tx_.st_min_ms <= 0x7F) {
      bus_.clock().advance(static_cast<util::SimTime>(tx_.st_min_ms) *
                           util::kMillisecond);
    }
    bus_.send(encode_consecutive(config_.tx_id, tx_.payload, tx_.offset,
                                 tx_.sequence, config_.pad_frames));
    tx_.offset += 7;
    tx_.sequence = static_cast<std::uint8_t>((tx_.sequence + 1) & 0x0F);
    if (tx_.block_size != 0 && ++tx_.frames_in_block >= tx_.block_size) {
      tx_.awaiting_fc = true;  // peer must re-authorize with another FC
      tx_.fc_deadline = bus_.clock().now() + config_.n_bs_timeout;
    }
  }
  if (tx_.offset >= tx_.payload.size()) {
    tx_ = TxState{};
    ++stats_.messages_sent;
  }
}

void Endpoint::on_frame(const can::CanFrame& frame) {
  const auto type = classify(frame);
  if (!type) return;

  switch (*type) {
    case FrameType::kFlowControl: {
      if (auto fc = decode_flow_control(frame)) handle_flow_control(*fc);
      return;
    }
    case FrameType::kSingle: {
      if (auto payload = decode_single(frame)) {
        ++stats_.messages_received;
        if (handler_) handler_(*payload);
      }
      return;
    }
    case FrameType::kFirst: {
      auto info = decode_first(frame);
      if (!info) return;
      if (info->total_length > config_.max_rx_length) {
        ++stats_.overflows;
        bus_.send(encode_flow_control(
            config_.tx_id, FlowControl{FlowStatus::kOverflow, 0, 0},
            config_.pad_frames));
        ++stats_.fc_sent;
        return;
      }
      rx_.active = true;
      rx_.total_length = info->total_length;
      rx_.buffer = std::move(info->initial_payload);
      rx_.next_sequence = 1;
      rx_.frames_since_fc = 0;
      bus_.send(encode_flow_control(
          config_.tx_id,
          FlowControl{FlowStatus::kContinueToSend, config_.block_size,
                      config_.st_min_ms},
          config_.pad_frames));
      ++stats_.fc_sent;
      return;
    }
    case FrameType::kConsecutive: {
      if (!rx_.active) return;
      auto info = decode_consecutive(frame);
      if (!info) return;
      if (info->sequence != rx_.next_sequence) {
        // A retransmitted copy of the CF we just consumed is harmless —
        // ignore it instead of tearing the transfer down.
        const std::uint8_t prev_sequence =
            static_cast<std::uint8_t>((rx_.next_sequence + 15) & 0x0F);
        if (rx_.any_cf && info->sequence == prev_sequence) {
          ++stats_.duplicate_frames;
          return;
        }
        ++stats_.sequence_errors;
        rx_ = RxState{};
        return;
      }
      rx_.any_cf = true;
      rx_.next_sequence =
          static_cast<std::uint8_t>((rx_.next_sequence + 1) & 0x0F);
      const std::size_t remaining = rx_.total_length - rx_.buffer.size();
      const std::size_t take = std::min(remaining, info->payload.size());
      rx_.buffer.insert(
          rx_.buffer.end(), info->payload.begin(),
          info->payload.begin() + static_cast<std::ptrdiff_t>(take));
      if (rx_.buffer.size() >= rx_.total_length) {
        util::Bytes message = std::move(rx_.buffer);
        rx_ = RxState{};
        ++stats_.messages_received;
        if (handler_) handler_(message);
        return;
      }
      if (config_.block_size != 0 &&
          ++rx_.frames_since_fc >= config_.block_size) {
        rx_.frames_since_fc = 0;
        bus_.send(encode_flow_control(
            config_.tx_id,
            FlowControl{FlowStatus::kContinueToSend, config_.block_size,
                        config_.st_min_ms},
            config_.pad_frames));
        ++stats_.fc_sent;
      }
      return;
    }
  }
}

}  // namespace dpr::isotp
