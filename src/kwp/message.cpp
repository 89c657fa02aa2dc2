#include "kwp/message.hpp"

namespace dpr::kwp {

util::Bytes encode_start_session(std::uint8_t session_type) {
  return {kStartDiagnosticSession, session_type};
}

util::Bytes encode_read_by_local_id(std::uint8_t local_id) {
  return {kReadDataByLocalId, local_id};
}

util::Bytes encode_tester_present(bool suppress) {
  return {kTesterPresent, suppress ? kResponseSuppressed : kResponseRequired};
}

util::Bytes encode_io_control_local(std::uint8_t local_id,
                                    std::span<const std::uint8_t> ecr) {
  util::Bytes out;
  out.reserve(2 + ecr.size());
  out.push_back(kIoControlByLocalId);
  out.push_back(local_id);
  out.insert(out.end(), ecr.begin(), ecr.end());
  return out;
}

util::Bytes encode_io_control_common(std::uint16_t common_id,
                                     std::span<const std::uint8_t> ecr) {
  util::Bytes out{kIoControlByCommonId};
  util::append_u16(out, common_id);
  out.insert(out.end(), ecr.begin(), ecr.end());
  return out;
}

util::Bytes encode_negative_response(std::uint8_t requested_sid,
                                     std::uint8_t code) {
  return {kNegativeResponseSid, requested_sid, code};
}

util::Bytes encode_read_response(std::uint8_t local_id,
                                 std::span<const EsvRecord> records) {
  util::Bytes out{static_cast<std::uint8_t>(kReadDataByLocalId +
                                            kPositiveOffset),
                  local_id};
  for (const auto& rec : records) {
    out.push_back(rec.formula_type);
    out.push_back(rec.x0);
    out.push_back(rec.x1);
  }
  return out;
}

util::Bytes encode_io_local_response(std::uint8_t local_id,
                                     std::span<const std::uint8_t> status) {
  util::Bytes out;
  out.reserve(2 + status.size());
  out.push_back(
      static_cast<std::uint8_t>(kIoControlByLocalId + kPositiveOffset));
  out.push_back(local_id);
  out.insert(out.end(), status.begin(), status.end());
  return out;
}

util::Bytes encode_io_common_response(std::uint16_t common_id,
                                      std::span<const std::uint8_t> status) {
  util::Bytes out{
      static_cast<std::uint8_t>(kIoControlByCommonId + kPositiveOffset)};
  util::append_u16(out, common_id);
  out.insert(out.end(), status.begin(), status.end());
  return out;
}

std::optional<ReadRequest> decode_read_request(
    std::span<const std::uint8_t> payload) {
  if (payload.size() != 2 || payload[0] != kReadDataByLocalId) {
    return std::nullopt;
  }
  return ReadRequest{payload[1]};
}

std::optional<ReadResponse> decode_read_response(
    std::span<const std::uint8_t> payload) {
  if (payload.size() < 5 ||
      payload[0] != kReadDataByLocalId + kPositiveOffset) {
    return std::nullopt;
  }
  if ((payload.size() - 2) % 3 != 0) return std::nullopt;
  ReadResponse resp;
  resp.local_id = payload[1];
  for (std::size_t i = 2; i + 2 < payload.size(); i += 3) {
    resp.records.push_back(
        EsvRecord{payload[i], payload[i + 1], payload[i + 2]});
  }
  return resp;
}

std::optional<IoLocalRequest> decode_io_local_request(
    std::span<const std::uint8_t> payload) {
  if (payload.size() < 3 || payload[0] != kIoControlByLocalId) {
    return std::nullopt;
  }
  IoLocalRequest req;
  req.local_id = payload[1];
  req.ecr.assign(payload.begin() + 2, payload.end());
  return req;
}

std::optional<IoCommonRequest> decode_io_common_request(
    std::span<const std::uint8_t> payload) {
  if (payload.size() < 4 || payload[0] != kIoControlByCommonId) {
    return std::nullopt;
  }
  IoCommonRequest req;
  req.common_id = util::read_u16(payload, 1);
  req.ecr.assign(payload.begin() + 3, payload.end());
  return req;
}

bool is_positive_response(std::span<const std::uint8_t> payload,
                          std::uint8_t request_sid) {
  return !payload.empty() &&
         payload[0] == static_cast<std::uint8_t>(request_sid +
                                                 kPositiveOffset);
}

}  // namespace dpr::kwp
