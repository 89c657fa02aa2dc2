#include "isotp/isotp.hpp"

#include <algorithm>
#include <stdexcept>

namespace dpr::isotp {

std::optional<FrameType> classify(const can::CanFrame& frame) {
  if (frame.dlc() == 0) return std::nullopt;
  const std::uint8_t pci = frame.byte(0) >> 4;
  if (pci > 0x3) return std::nullopt;
  return static_cast<FrameType>(pci);
}

can::CanFrame encode_single(can::CanId id,
                            std::span<const std::uint8_t> payload,
                            bool pad) {
  if (payload.size() > kMaxSingleFramePayload) {
    throw std::invalid_argument("single frame payload exceeds 7 bytes");
  }
  util::Bytes data;
  data.push_back(static_cast<std::uint8_t>(payload.size()));
  data.insert(data.end(), payload.begin(), payload.end());
  can::CanFrame frame(id, data);
  if (pad) frame.pad_to_8();
  return frame;
}

can::CanFrame encode_first(can::CanId id,
                           std::span<const std::uint8_t> payload) {
  if (payload.size() <= kMaxSingleFramePayload ||
      payload.size() > kMaxMessageLength) {
    throw std::invalid_argument("first frame requires payload of 8..4095");
  }
  util::Bytes data;
  data.push_back(static_cast<std::uint8_t>(0x10 | (payload.size() >> 8)));
  data.push_back(static_cast<std::uint8_t>(payload.size() & 0xFF));
  data.insert(data.end(), payload.begin(), payload.begin() + 6);
  return can::CanFrame(id, data);
}

can::CanFrame encode_consecutive(can::CanId id,
                                 std::span<const std::uint8_t> payload,
                                 std::size_t offset, std::uint8_t sequence) {
  if (offset >= payload.size()) {
    throw std::invalid_argument("consecutive frame offset past payload end");
  }
  util::Bytes data;
  data.push_back(static_cast<std::uint8_t>(0x20 | (sequence & 0x0F)));
  const std::size_t n = std::min<std::size_t>(7, payload.size() - offset);
  data.insert(data.end(), payload.begin() + static_cast<std::ptrdiff_t>(offset),
              payload.begin() + static_cast<std::ptrdiff_t>(offset + n));
  can::CanFrame frame(id, data);
  frame.pad_to_8();
  return frame;
}

can::CanFrame encode_flow_control(can::CanId id, const FlowControl& fc) {
  util::Bytes data{
      static_cast<std::uint8_t>(0x30 | static_cast<std::uint8_t>(fc.status)),
      fc.block_size, fc.st_min};
  can::CanFrame frame(id, data);
  frame.pad_to_8();
  return frame;
}

std::optional<util::Bytes> decode_single(const can::CanFrame& frame) {
  if (classify(frame) != FrameType::kSingle) return std::nullopt;
  const std::size_t len = frame.byte(0) & 0x0F;
  if (len == 0 || len > kMaxSingleFramePayload || len + 1 > frame.dlc()) {
    return std::nullopt;
  }
  auto data = frame.data();
  return util::Bytes(data.begin() + 1, data.begin() + 1 + len);
}

std::optional<FirstFrameInfo> decode_first(const can::CanFrame& frame) {
  if (classify(frame) != FrameType::kFirst) return std::nullopt;
  // A classical-CAN FF is 8 bytes, but extended-addressed variants (BMW,
  // §3.2) yield 7-byte inner slices after the address byte is stripped.
  if (frame.dlc() < 3) return std::nullopt;
  FirstFrameInfo info;
  info.total_length =
      (static_cast<std::size_t>(frame.byte(0) & 0x0F) << 8) | frame.byte(1);
  // Standard ISO-TP first frames carry > 7 bytes; the BMW extended-
  // addressing variant (§3.2) segments from 7 bytes up, since its single
  // frames hold at most 6. Accept both.
  if (info.total_length < 7) return std::nullopt;
  auto data = frame.data();
  info.initial_payload.assign(data.begin() + 2, data.end());
  return info;
}

std::optional<ConsecutiveFrameInfo> decode_consecutive(
    const can::CanFrame& frame) {
  if (classify(frame) != FrameType::kConsecutive) return std::nullopt;
  if (frame.dlc() < 2) return std::nullopt;
  ConsecutiveFrameInfo info;
  info.sequence = frame.byte(0) & 0x0F;
  auto data = frame.data();
  info.payload.assign(data.begin() + 1, data.end());
  return info;
}

std::optional<FlowControl> decode_flow_control(const can::CanFrame& frame) {
  if (classify(frame) != FrameType::kFlowControl) return std::nullopt;
  if (frame.dlc() < 3) return std::nullopt;
  const std::uint8_t status = frame.byte(0) & 0x0F;
  if (status > 0x2) return std::nullopt;
  return FlowControl{static_cast<FlowStatus>(status), frame.byte(1),
                     frame.byte(2)};
}

std::vector<can::CanFrame> segment_message(
    can::CanId id, std::span<const std::uint8_t> payload) {
  std::vector<can::CanFrame> frames;
  if (payload.size() <= kMaxSingleFramePayload) {
    frames.push_back(encode_single(id, payload));
    return frames;
  }
  frames.push_back(encode_first(id, payload));
  std::uint8_t sequence = 1;
  for (std::size_t offset = 6; offset < payload.size(); offset += 7) {
    frames.push_back(encode_consecutive(id, payload, offset, sequence));
    sequence = static_cast<std::uint8_t>((sequence + 1) & 0x0F);
  }
  return frames;
}

void Reassembler::fail(Error e) {
  last_error_ = e;
  ++error_count_;
  expecting_ = false;
  any_consecutive_ = false;
  buffer_.clear();
}

void Reassembler::reset() {
  expecting_ = false;
  total_length_ = 0;
  next_sequence_ = 0;
  any_consecutive_ = false;
  buffer_.clear();
  last_error_ = Error::kNone;
}

std::optional<util::Bytes> Reassembler::feed(const can::CanFrame& frame) {
  const auto type = classify(frame);
  if (!type) return std::nullopt;

  switch (*type) {
    case FrameType::kSingle: {
      if (expecting_) fail(Error::kInterruptedFirstFrame);
      return decode_single(frame);
    }
    case FrameType::kFirst: {
      if (expecting_) fail(Error::kInterruptedFirstFrame);
      auto info = decode_first(frame);
      if (!info) return std::nullopt;
      expecting_ = true;
      total_length_ = info->total_length;
      buffer_ = std::move(info->initial_payload);
      next_sequence_ = 1;
      any_consecutive_ = false;
      return std::nullopt;
    }
    case FrameType::kConsecutive: {
      auto info = decode_consecutive(frame);
      if (!info) return std::nullopt;
      // Tolerate a retransmitted copy of the CF just consumed (a bus
      // duplicating frames must not cost the sniffer the message); this
      // also covers a duplicated final CF arriving after completion.
      const std::uint8_t prev_sequence =
          static_cast<std::uint8_t>((next_sequence_ + 15) & 0x0F);
      if (any_consecutive_ && info->sequence == prev_sequence) {
        ++duplicate_frames_;
        return std::nullopt;
      }
      if (!expecting_) {
        fail(Error::kUnexpectedConsecutive);
        return std::nullopt;
      }
      if (info->sequence != next_sequence_) {
        fail(Error::kSequenceMismatch);
        return std::nullopt;
      }
      any_consecutive_ = true;
      next_sequence_ = static_cast<std::uint8_t>((next_sequence_ + 1) & 0x0F);
      const std::size_t remaining = total_length_ - buffer_.size();
      const std::size_t take = std::min(remaining, info->payload.size());
      buffer_.insert(buffer_.end(), info->payload.begin(),
                     info->payload.begin() + static_cast<std::ptrdiff_t>(take));
      if (buffer_.size() >= total_length_) {
        expecting_ = false;
        return std::move(buffer_);
      }
      return std::nullopt;
    }
    case FrameType::kFlowControl:
      // Passive observer: FC frames carry no payload (§3.2 step 1 drops
      // them before assembly).
      return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace dpr::isotp
