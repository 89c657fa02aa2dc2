#include "uds/server.hpp"

namespace dpr::uds {

void Server::add_did(Did did, std::size_t length, DidReader reader) {
  dids_[did] = DidEntry{length, std::move(reader)};
}

void Server::add_io_did(Did did, IoHandler handler, bool requires_session) {
  io_dids_[did] = IoEntry{std::move(handler), requires_session};
}

void Server::add_dtc(std::uint32_t code, std::uint8_t status) {
  dtcs_.push_back(Dtc{code & 0xFFFFFF, status});
}

util::Bytes Server::handle(std::span<const std::uint8_t> request) {
  if (request.empty()) return {};
  session_.on_request();
  switch (request[0]) {
    case 0x10:
      return handle_session_control(request);
    case 0x11:
      return handle_ecu_reset(request);
    case 0x14:
      return handle_clear_dtc(request);
    case 0x19:
      return handle_read_dtc(request);
    case 0x22:
      return handle_read_data(request);
    case 0x2F:
      return handle_io_control(request);
    case 0x3E:
      return handle_tester_present(request);
    default:
      return encode_negative_response(static_cast<Service>(request[0]),
                                      Nrc::kServiceNotSupported);
  }
}

util::Bytes Server::handle_session_control(
    std::span<const std::uint8_t> req) {
  if (req.size() != 2) {
    return encode_negative_response(Service::kDiagnosticSessionControl,
                                    Nrc::kIncorrectMessageLength);
  }
  if (req[1] == 0x00 || req[1] > 0x04) {
    return encode_negative_response(Service::kDiagnosticSessionControl,
                                    Nrc::kSubFunctionNotSupported);
  }
  session_.enter(req[1]);
  return {static_cast<std::uint8_t>(0x10 + kPositiveOffset), req[1],
          0x00, 0x32, 0x01, 0xF4};  // P2/P2* timing record
}

util::Bytes Server::handle_tester_present(
    std::span<const std::uint8_t> req) {
  if (req.size() != 2 ||
      (req[1] & static_cast<std::uint8_t>(~kSuppressPositiveResponse)) !=
          0x00) {
    return encode_negative_response(Service::kTesterPresent,
                                    Nrc::kSubFunctionNotSupported);
  }
  // suppressPositiveResponse: the keepalive refreshed the S3 timer above;
  // an empty answer is dropped by respond()/the transport binding.
  if (req[1] & kSuppressPositiveResponse) return {};
  return {static_cast<std::uint8_t>(0x3E + kPositiveOffset), 0x00};
}

util::Bytes Server::handle_ecu_reset(std::span<const std::uint8_t> req) {
  if (req.size() != 2) {
    return encode_negative_response(Service::kEcuReset,
                                    Nrc::kIncorrectMessageLength);
  }
  session_.enter(util::EcuSession::kDefaultSession);
  return {static_cast<std::uint8_t>(0x11 + kPositiveOffset), req[1]};
}

util::Bytes Server::handle_read_data(std::span<const std::uint8_t> req) {
  const auto dids = decode_read_data_request(req);
  if (!dids) {
    return encode_negative_response(Service::kReadDataByIdentifier,
                                    Nrc::kIncorrectMessageLength);
  }
  std::vector<DataRecord> records;
  for (Did did : *dids) {
    const auto it = dids_.find(did);
    if (it == dids_.end()) {
      return encode_negative_response(Service::kReadDataByIdentifier,
                                      Nrc::kRequestOutOfRange);
    }
    util::Bytes data = it->second.reader();
    data.resize(it->second.length, 0x00);  // enforce declared length
    records.push_back(DataRecord{did, std::move(data)});
  }
  return encode_read_data_response(records);
}

util::Bytes Server::handle_read_dtc(std::span<const std::uint8_t> req) {
  // 0x19 0x02 <statusMask>: reportDTCByStatusMask.
  if (req.size() != 3 || req[1] != 0x02) {
    return encode_negative_response(static_cast<Service>(0x19),
                                    Nrc::kSubFunctionNotSupported);
  }
  const std::uint8_t mask = req[2];
  util::Bytes out{0x59, 0x02, 0x2F};  // DTCStatusAvailabilityMask
  for (const auto& dtc : dtcs_) {
    if ((dtc.status & mask) == 0) continue;
    out.push_back(static_cast<std::uint8_t>(dtc.code >> 16));
    out.push_back(static_cast<std::uint8_t>(dtc.code >> 8));
    out.push_back(static_cast<std::uint8_t>(dtc.code));
    out.push_back(dtc.status);
  }
  return out;
}

util::Bytes Server::handle_clear_dtc(std::span<const std::uint8_t> req) {
  // 0x14 <groupOfDTC: 3 bytes>; 0xFFFFFF clears everything.
  if (req.size() != 4) {
    return encode_negative_response(static_cast<Service>(0x14),
                                    Nrc::kIncorrectMessageLength);
  }
  const std::uint32_t group = (static_cast<std::uint32_t>(req[1]) << 16) |
                              (static_cast<std::uint32_t>(req[2]) << 8) |
                              req[3];
  if (group == 0xFFFFFF) {
    dtcs_.clear();
  } else {
    std::erase_if(dtcs_, [group](const Dtc& d) { return d.code == group; });
  }
  return {0x54};
}

util::Bytes Server::handle_io_control(std::span<const std::uint8_t> req) {
  const auto parsed = decode_io_control_request(req);
  if (!parsed) {
    return encode_negative_response(Service::kIoControlByIdentifier,
                                    Nrc::kIncorrectMessageLength);
  }
  const auto it = io_dids_.find(parsed->did);
  if (it == io_dids_.end()) {
    return encode_negative_response(Service::kIoControlByIdentifier,
                                    Nrc::kRequestOutOfRange);
  }
  if (it->second.requires_session && !session_.in_session()) {
    // With the S3 timer armed, the precise ISO 14229 answer is 0x7F
    // serviceNotSupportedInActiveSession — the pattern the supervisor
    // keys session-loss detection on. A bare session keeps the legacy
    // conditionsNotCorrect answer.
    return encode_negative_response(
        Service::kIoControlByIdentifier,
        session_.s3_armed() ? Nrc::kServiceNotSupportedInActiveSession
                            : Nrc::kConditionsNotCorrect);
  }
  const auto status =
      it->second.handler(parsed->param, parsed->control_state);
  if (!status) {
    return encode_negative_response(Service::kIoControlByIdentifier,
                                    Nrc::kRequestOutOfRange);
  }
  return encode_io_control_response(parsed->did, parsed->param, *status);
}

}  // namespace dpr::uds
