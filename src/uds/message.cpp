#include "uds/message.hpp"

#include <stdexcept>

namespace dpr::uds {

namespace {
constexpr std::uint8_t sid(Service s) { return static_cast<std::uint8_t>(s); }
}  // namespace

util::Bytes encode_session_control(std::uint8_t session_type) {
  return {sid(Service::kDiagnosticSessionControl), session_type};
}

util::Bytes encode_tester_present(bool suppress) {
  return {sid(Service::kTesterPresent),
          static_cast<std::uint8_t>(suppress ? kSuppressPositiveResponse
                                             : 0x00)};
}

util::Bytes encode_read_data_by_identifier(std::span<const Did> dids) {
  if (dids.empty()) {
    throw std::invalid_argument("0x22 request requires at least one DID");
  }
  util::Bytes out{sid(Service::kReadDataByIdentifier)};
  for (Did did : dids) util::append_u16(out, did);
  return out;
}

util::Bytes encode_io_control(Did did, IoControlParameter param,
                              std::span<const std::uint8_t> control_state) {
  util::Bytes out{sid(Service::kIoControlByIdentifier)};
  util::append_u16(out, did);
  out.push_back(static_cast<std::uint8_t>(param));
  out.insert(out.end(), control_state.begin(), control_state.end());
  return out;
}

util::Bytes encode_negative_response(Service service, Nrc nrc) {
  return {kNegativeResponseSid, sid(service), static_cast<std::uint8_t>(nrc)};
}

util::Bytes encode_read_data_response(std::span<const DataRecord> records) {
  util::Bytes out{static_cast<std::uint8_t>(
      sid(Service::kReadDataByIdentifier) + kPositiveOffset)};
  for (const auto& rec : records) {
    util::append_u16(out, rec.did);
    out.insert(out.end(), rec.data.begin(), rec.data.end());
  }
  return out;
}

util::Bytes encode_io_control_response(Did did, IoControlParameter param,
                                       std::span<const std::uint8_t> state) {
  util::Bytes out{static_cast<std::uint8_t>(
      sid(Service::kIoControlByIdentifier) + kPositiveOffset)};
  util::append_u16(out, did);
  out.push_back(static_cast<std::uint8_t>(param));
  out.insert(out.end(), state.begin(), state.end());
  return out;
}

std::optional<NegativeResponse> decode_negative_response(
    std::span<const std::uint8_t> payload) {
  if (payload.size() < 3 || payload[0] != kNegativeResponseSid) {
    return std::nullopt;
  }
  return NegativeResponse{payload[1], static_cast<Nrc>(payload[2])};
}

bool is_positive_response(std::span<const std::uint8_t> payload,
                          Service service) {
  return !payload.empty() &&
         payload[0] == static_cast<std::uint8_t>(sid(service) +
                                                 kPositiveOffset);
}

std::optional<std::vector<Did>> decode_read_data_request(
    std::span<const std::uint8_t> payload) {
  if (payload.size() < 3 || payload[0] != sid(Service::kReadDataByIdentifier))
    return std::nullopt;
  if ((payload.size() - 1) % 2 != 0) return std::nullopt;
  std::vector<Did> dids;
  for (std::size_t i = 1; i + 1 < payload.size(); i += 2) {
    dids.push_back(util::read_u16(payload, i));
  }
  return dids;
}

std::optional<std::vector<DataRecord>> decode_read_data_response(
    std::span<const std::uint8_t> payload, std::span<const Did> requested,
    const std::function<std::optional<std::size_t>(Did)>& length_of) {
  if (!is_positive_response(payload, Service::kReadDataByIdentifier)) {
    return std::nullopt;
  }
  std::vector<DataRecord> records;
  std::size_t pos = 1;
  for (Did expected : requested) {
    if (pos + 2 > payload.size()) return std::nullopt;
    const Did did = util::read_u16(payload, pos);
    if (did != expected) return std::nullopt;
    pos += 2;
    const auto len = length_of(did);
    if (!len || pos + *len > payload.size()) return std::nullopt;
    records.push_back(DataRecord{
        did, util::Bytes(payload.begin() + static_cast<std::ptrdiff_t>(pos),
                         payload.begin() +
                             static_cast<std::ptrdiff_t>(pos + *len))});
    pos += *len;
  }
  if (pos != payload.size()) return std::nullopt;
  return records;
}

std::optional<IoControlRequest> decode_io_control_request(
    std::span<const std::uint8_t> payload) {
  if (payload.size() < 4 || payload[0] != sid(Service::kIoControlByIdentifier))
    return std::nullopt;
  if (payload[3] > 0x03) return std::nullopt;
  IoControlRequest req;
  req.did = util::read_u16(payload, 1);
  req.param = static_cast<IoControlParameter>(payload[3]);
  req.control_state.assign(payload.begin() + 4, payload.end());
  return req;
}

}  // namespace dpr::uds
