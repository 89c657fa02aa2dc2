#pragma once
// VW Transport Protocol 2.0 (TP 2.0) — the Volkswagen-group transport used
// to carry KWP 2000 over CAN (§2.3.1, Table 1, and §3.2).
//
// Frame taxonomy (first payload byte):
//   * Channel setup   — exchanged on the broadcast id 0x200 (+ ecu offset):
//                       opcode byte 1 is 0xC0 (request) / 0xD0 (positive).
//   * Channel params  — 0xA0 request / 0xA1 response, 0xA3 break,
//                       0xA8 disconnect, on the negotiated data ids.
//   * Data            — high nibble 0x0..0x3, low nibble = 4-bit sequence:
//                       bit0 of the opcode nibble set   -> last frame
//                       bit1 of the opcode nibble clear -> ACK expected
//   * ACK             — high nibble 0x9 (ready) / 0xB (not ready), low
//                       nibble = next expected sequence.
//
// Unlike ISO-TP, data frames carry no length field: receivers detect the
// end of a message from the last-frame opcode (the very property §3.2
// step 2 has to handle when assembling payloads).

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "can/frame.hpp"
#include "util/hex.hpp"

namespace dpr::vwtp {

/// Broadcast id on which channel setup requests are sent.
constexpr std::uint32_t kBroadcastId = 0x200;

enum class FrameKind {
  kChannelSetupRequest,
  kChannelSetupResponse,
  kChannelParamsRequest,
  kChannelParamsResponse,
  kDisconnect,
  kBreak,
  kData,
  kAck,
};

/// Data-frame opcodes (high nibble of byte 0).
enum class DataOp : std::uint8_t {
  kMoreExpectAck = 0x0,
  kLastExpectAck = 0x1,
  kMoreNoAck = 0x2,
  kLastNoAck = 0x3,
};

constexpr bool is_last(DataOp op) {
  return op == DataOp::kLastExpectAck || op == DataOp::kLastNoAck;
}
constexpr bool expects_ack(DataOp op) {
  return op == DataOp::kMoreExpectAck || op == DataOp::kLastExpectAck;
}

/// Classify a frame that belongs to a TP 2.0 conversation.
std::optional<FrameKind> classify(const can::CanFrame& frame);

/// True for the frame kinds §3.2 step 1 screens out (they carry no
/// diagnostic payload): setup, params, break, disconnect, ACK.
bool is_control_frame(FrameKind kind);

struct DataFrameInfo {
  DataOp op = DataOp::kMoreExpectAck;
  std::uint8_t sequence = 0;
  util::Bytes payload;  // up to 7 bytes
};
std::optional<DataFrameInfo> decode_data(const can::CanFrame& frame);

can::CanFrame encode_data(can::CanId id, DataOp op, std::uint8_t sequence,
                          std::span<const std::uint8_t> chunk);

can::CanFrame encode_ack(can::CanId id, std::uint8_t next_sequence,
                         bool ready = true);

/// Split `payload` into the TP 2.0 data-frame sequence: intermediate
/// frames use kMoreNoAck, the final frame kLastExpectAck, sequence numbers
/// start at `first_sequence` and wrap at 16.
std::vector<can::CanFrame> segment_message(
    can::CanId id, std::span<const std::uint8_t> payload,
    std::uint8_t first_sequence = 0);

/// Passive reassembler for one direction of a TP 2.0 conversation: data
/// frames are concatenated until a last-frame opcode arrives (§3.2 step 2).
class Reassembler {
 public:
  std::optional<util::Bytes> feed(const can::CanFrame& frame);

  std::size_t sequence_errors() const { return sequence_errors_; }
  void reset();

 private:
  util::Bytes buffer_;
  bool have_sequence_ = false;
  std::uint8_t next_sequence_ = 0;
  std::size_t sequence_errors_ = 0;
};

}  // namespace dpr::vwtp
