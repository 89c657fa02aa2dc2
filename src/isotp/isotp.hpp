#pragma once
// ISO 15765-2 (ISO-TP) framing: single frames, first frames, consecutive
// frames and flow-control frames (Fig. 7 of the paper).
//
// This header provides the *stateless* pieces: frame classification,
// encoding of each frame type, message segmentation, and a passive
// Reassembler that rebuilds long messages from a frame stream. The active
// endpoint (which participates in the flow-control handshake) lives in
// endpoint.hpp.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "can/frame.hpp"
#include "util/hex.hpp"

namespace dpr::isotp {

/// Protocol control information (high nibble of byte 0).
enum class FrameType : std::uint8_t {
  kSingle = 0x0,
  kFirst = 0x1,
  kConsecutive = 0x2,
  kFlowControl = 0x3,
};

/// Flow-control status (low nibble of byte 0 of an FC frame).
enum class FlowStatus : std::uint8_t {
  kContinueToSend = 0x0,
  kWait = 0x1,
  kOverflow = 0x2,
};

struct FlowControl {
  FlowStatus status = FlowStatus::kContinueToSend;
  std::uint8_t block_size = 0;  // 0 = no further FC required
  std::uint8_t st_min = 0;      // ms (values <= 0x7F)
};

/// Largest payload that fits a single frame on classical CAN.
constexpr std::size_t kMaxSingleFramePayload = 7;
/// Largest message ISO-TP can carry with a 12-bit FF length field.
constexpr std::size_t kMaxMessageLength = 4095;

/// Classify a CAN frame by its PCI nibble. Returns nullopt for frames that
/// cannot be ISO-TP (empty payload or reserved PCI).
std::optional<FrameType> classify(const can::CanFrame& frame);

/// --- Frame encoders -----------------------------------------------------

can::CanFrame encode_single(can::CanId id,
                            std::span<const std::uint8_t> payload,
                            bool pad = true);

/// First frame of a segmented message; copies the first 6 payload bytes.
can::CanFrame encode_first(can::CanId id,
                           std::span<const std::uint8_t> payload);

/// Consecutive frame carrying up to 7 bytes starting at `offset`;
/// `sequence` is the 4-bit sequence number (1..15 wrapping to 0). Padded
/// to 8 bytes, like flow control frames.
can::CanFrame encode_consecutive(can::CanId id,
                                 std::span<const std::uint8_t> payload,
                                 std::size_t offset, std::uint8_t sequence);

can::CanFrame encode_flow_control(can::CanId id, const FlowControl& fc);

/// --- Frame decoders -----------------------------------------------------

/// Payload of a single frame (nullopt if malformed).
std::optional<util::Bytes> decode_single(const can::CanFrame& frame);

struct FirstFrameInfo {
  std::size_t total_length = 0;
  util::Bytes initial_payload;  // the first 6 bytes
};
std::optional<FirstFrameInfo> decode_first(const can::CanFrame& frame);

struct ConsecutiveFrameInfo {
  std::uint8_t sequence = 0;
  util::Bytes payload;  // up to 7 bytes (may include padding at the tail)
};
std::optional<ConsecutiveFrameInfo> decode_consecutive(
    const can::CanFrame& frame);

std::optional<FlowControl> decode_flow_control(const can::CanFrame& frame);

/// Segment `payload` into the frame sequence a sender transmits (SF, or
/// FF followed by CFs). Flow-control pacing is the endpoint's concern.
std::vector<can::CanFrame> segment_message(
    can::CanId id, std::span<const std::uint8_t> payload);

/// --- Passive reassembly --------------------------------------------------
//
// Rebuilds messages from an observed frame stream for one direction (one
// CAN id). This is exactly what the frames-analysis module does with
// sniffed traffic: it never sends FC frames, it only watches (§3.2 step 2).

class Reassembler {
 public:
  enum class Error {
    kNone,
    kUnexpectedConsecutive,   // CF with no FF in progress
    kSequenceMismatch,        // CF sequence number out of order
    kInterruptedFirstFrame,   // new SF/FF while a message was in progress
  };

  /// Feed one frame; returns a completed message payload when the frame
  /// finishes a message (single frames complete immediately).
  std::optional<util::Bytes> feed(const can::CanFrame& frame);

  bool in_progress() const { return expecting_; }
  Error last_error() const { return last_error_; }
  std::size_t errors() const { return error_count_; }
  /// Retransmitted copies of the just-consumed CF, ignored without error.
  std::size_t duplicate_frames() const { return duplicate_frames_; }
  void reset();

 private:
  bool expecting_ = false;
  std::size_t total_length_ = 0;
  std::uint8_t next_sequence_ = 0;
  bool any_consecutive_ = false;
  std::size_t duplicate_frames_ = 0;
  util::Bytes buffer_;
  Error last_error_ = Error::kNone;
  std::size_t error_count_ = 0;

  void fail(Error e);
};

}  // namespace dpr::isotp
