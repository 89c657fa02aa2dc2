#include "kwp/server.hpp"

namespace dpr::kwp {

namespace {
// ISO 14230-3 response codes.
constexpr std::uint8_t kServiceNotSupported = 0x11;
constexpr std::uint8_t kSubFunctionNotSupported = 0x12;
constexpr std::uint8_t kRequestOutOfRange = 0x31;
}  // namespace

void Server::add_local_id(std::uint8_t local_id, LocalIdReader reader) {
  local_ids_[local_id] = std::move(reader);
}

void Server::add_io_local(std::uint8_t local_id, IoHandler handler) {
  io_local_[local_id] = std::move(handler);
}

void Server::add_io_common(std::uint16_t common_id, IoHandler handler) {
  io_common_[common_id] = std::move(handler);
}

void Server::add_dtc(std::uint16_t code, std::uint8_t status) {
  dtcs_.push_back(Dtc{code, status});
}

util::Bytes Server::handle(std::span<const std::uint8_t> request) {
  if (request.empty()) return {};
  session_.on_request();
  switch (request[0]) {
    case kStartDiagnosticSession: {
      if (request.size() != 2) {
        return encode_negative_response(request[0],
                                        kSubFunctionNotSupported);
      }
      session_.enter(request[1]);
      return {static_cast<std::uint8_t>(kStartDiagnosticSession +
                                        kPositiveOffset),
              request[1]};
    }
    case kReadDtcsByStatus: {
      // [0x18, mode, groupHi, groupLo] -> [0x58, count, (code16, status)*].
      if (request.size() != 4) {
        return encode_negative_response(kReadDtcsByStatus,
                                        kSubFunctionNotSupported);
      }
      util::Bytes out{static_cast<std::uint8_t>(kReadDtcsByStatus +
                                                kPositiveOffset),
                      static_cast<std::uint8_t>(dtcs_.size())};
      for (const auto& dtc : dtcs_) {
        util::append_u16(out, dtc.code);
        out.push_back(dtc.status);
      }
      return out;
    }
    case kClearDiagnosticInformation: {
      // [0x14, groupHi, groupLo]; 0xFF00 clears all groups.
      if (request.size() != 3) {
        return encode_negative_response(kClearDiagnosticInformation,
                                        kSubFunctionNotSupported);
      }
      dtcs_.clear();
      return {static_cast<std::uint8_t>(kClearDiagnosticInformation +
                                        kPositiveOffset),
              request[1], request[2]};
    }
    case kReadEcuIdentification: {
      if (request.size() != 2 || identification_.empty()) {
        return encode_negative_response(kReadEcuIdentification,
                                        kRequestOutOfRange);
      }
      util::Bytes out{static_cast<std::uint8_t>(kReadEcuIdentification +
                                                kPositiveOffset),
                      request[1]};
      out.insert(out.end(), identification_.begin(), identification_.end());
      return out;
    }
    case kReadDataByLocalId: {
      const auto req = decode_read_request(request);
      if (!req) {
        return encode_negative_response(kReadDataByLocalId,
                                        kSubFunctionNotSupported);
      }
      const auto it = local_ids_.find(req->local_id);
      if (it == local_ids_.end()) {
        return encode_negative_response(kReadDataByLocalId,
                                        kRequestOutOfRange);
      }
      return encode_read_response(req->local_id, it->second());
    }
    case kTesterPresent: {
      // [0x3E, responseRequired]: 0x01 answers {0x7E}, 0x02 suppresses
      // the positive response. Either form refreshed the S3 timer above.
      if (request.size() != 2 || (request[1] != kResponseRequired &&
                                  request[1] != kResponseSuppressed)) {
        return encode_negative_response(kTesterPresent,
                                        kSubFunctionNotSupported);
      }
      if (request[1] == kResponseSuppressed) return {};
      return {static_cast<std::uint8_t>(kTesterPresent + kPositiveOffset)};
    }
    case kIoControlByLocalId: {
      const auto req = decode_io_local_request(request);
      if (!req) {
        return encode_negative_response(kIoControlByLocalId,
                                        kSubFunctionNotSupported);
      }
      if (session_.s3_armed() && !session_.in_session()) {
        return encode_negative_response(
            kIoControlByLocalId, kNrcServiceNotSupportedInActiveSession);
      }
      const auto it = io_local_.find(req->local_id);
      if (it == io_local_.end()) {
        return encode_negative_response(kIoControlByLocalId,
                                        kRequestOutOfRange);
      }
      const auto status = it->second(req->ecr);
      if (!status) {
        return encode_negative_response(kIoControlByLocalId,
                                        kRequestOutOfRange);
      }
      return encode_io_local_response(req->local_id, *status);
    }
    case kIoControlByCommonId: {
      const auto req = decode_io_common_request(request);
      if (!req) {
        return encode_negative_response(kIoControlByCommonId,
                                        kSubFunctionNotSupported);
      }
      if (session_.s3_armed() && !session_.in_session()) {
        return encode_negative_response(
            kIoControlByCommonId, kNrcServiceNotSupportedInActiveSession);
      }
      const auto it = io_common_.find(req->common_id);
      if (it == io_common_.end()) {
        return encode_negative_response(kIoControlByCommonId,
                                        kRequestOutOfRange);
      }
      const auto status = it->second(req->ecr);
      if (!status) {
        return encode_negative_response(kIoControlByCommonId,
                                        kRequestOutOfRange);
      }
      return encode_io_common_response(req->common_id, *status);
    }
    default:
      return encode_negative_response(request[0], kServiceNotSupported);
  }
}

}  // namespace dpr::kwp
