#pragma once
// CAN 2.0 data frames (§2.2).
//
// A frame carries an 11-bit (standard) or 29-bit (extended) identifier and
// up to 8 data bytes. Lower identifier values win bus arbitration.

#include <array>
#include <compare>
#include <cstdint>
#include <span>
#include <string>

#include "util/clock.hpp"
#include "util/hex.hpp"

namespace dpr::can {

/// CAN identifier. Standard ids are <= 0x7FF; extended ids use 29 bits.
struct CanId {
  std::uint32_t value = 0;
  bool extended = false;

  friend auto operator<=>(const CanId&, const CanId&) = default;
};

constexpr std::uint32_t kMaxStandardId = 0x7FF;
constexpr std::uint32_t kMaxExtendedId = 0x1FFFFFFF;

/// A classic CAN 2.0 data frame: id + 0..8 payload bytes.
class CanFrame {
 public:
  CanFrame() = default;
  CanFrame(CanId id, std::span<const std::uint8_t> data);
  CanFrame(std::uint32_t id, std::initializer_list<std::uint8_t> data);

  CanId id() const { return id_; }
  std::span<const std::uint8_t> data() const {
    return {data_.data(), dlc_};
  }
  std::uint8_t dlc() const { return static_cast<std::uint8_t>(dlc_); }

  /// Byte accessor; `i` must be < dlc().
  std::uint8_t byte(std::size_t i) const { return data_[i]; }

  /// The fill byte of padded frames (classical CAN tools pad ISO-TP
  /// frames with 0x00 or 0xAA; this bus's tools use 0x00).
  static constexpr std::uint8_t kPadByte = 0x00;

  /// Pad the payload with kPadByte up to the full 8 bytes.
  void pad_to_8();

  std::string to_string() const;

  friend bool operator==(const CanFrame&, const CanFrame&) = default;

 private:
  CanId id_{};
  std::array<std::uint8_t, 8> data_{};
  std::size_t dlc_ = 0;
};

/// A frame captured on the bus with its arbitration-complete timestamp.
struct TimestampedFrame {
  util::SimTime timestamp = 0;
  CanFrame frame;

  friend bool operator==(const TimestampedFrame&,
                         const TimestampedFrame&) = default;
};

}  // namespace dpr::can
