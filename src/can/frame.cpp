#include "can/frame.hpp"

#include <sstream>
#include <stdexcept>

namespace dpr::can {

CanFrame::CanFrame(CanId id, std::span<const std::uint8_t> data) : id_(id) {
  if (data.size() > 8) {
    throw std::invalid_argument("CAN frame payload exceeds 8 bytes");
  }
  if (id.extended ? id.value > kMaxExtendedId : id.value > kMaxStandardId) {
    throw std::invalid_argument("CAN identifier out of range");
  }
  dlc_ = data.size();
  std::copy(data.begin(), data.end(), data_.begin());
}

CanFrame::CanFrame(std::uint32_t id, std::initializer_list<std::uint8_t> data)
    : CanFrame(CanId{id, id > kMaxStandardId},
               std::span<const std::uint8_t>(data.begin(), data.size())) {}

void CanFrame::pad_to_8() {
  for (std::size_t i = dlc_; i < data_.size(); ++i) data_[i] = kPadByte;
  dlc_ = data_.size();
}

std::string CanFrame::to_string() const {
  std::ostringstream out;
  out << std::hex << std::uppercase << id_.value << std::dec << " ["
      << dlc_ << "] " << util::to_hex(data());
  return out.str();
}

}  // namespace dpr::can
