#include "kwp/server.hpp"

#include <algorithm>

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

void Server::enable_security(
    std::function<util::Bytes(const util::Bytes&)> key_fn) {
  key_fn_ = std::move(key_fn);
  unlocked_ = false;
}

bool Server::locked_out() const {
  return sessions_armed_ && clock_->now() < lockout_until_;
}

void Server::bind(util::MessageLink& link) {
  link.set_message_handler([this, &link](const util::Bytes& request) {
    for (const util::Bytes& response : respond(request)) {
      link.send(response);
    }
  });
}

void Server::enable_faults(const FaultProfile& profile, util::Rng rng) {
  faults_ = profile;
  fault_rng_ = rng;
}

void Server::enable_sessions(const SessionProfile& profile,
                             const util::SimClock& clock) {
  session_profile_ = profile;
  clock_ = &clock;
  sessions_armed_ = true;
  last_activity_ = clock.now();
}

void Server::enable_resets(const ResetProfile& profile,
                           const util::SimClock& clock,
                           util::CounterRng stream) {
  if (!profile.enabled()) return;  // zero rate: stay draw-free
  reset_profile_ = profile;
  clock_ = &clock;
  reset_stream_ = stream;
  resets_armed_ = true;
}

std::vector<util::Bytes> Server::respond(
    std::span<const std::uint8_t> request) {
  if (request.empty()) return {};
  if (resets_armed_) {
    // Same draw order as uds::Server: reboot draw first, silence window
    // swallows requests without a draw.
    const util::SimTime now = clock_->now();
    if (now < silent_until_) return {};
    if (reset_stream_.at(reset_events_++).chance(reset_profile_.reset_rate)) {
      session_started_ = false;
      unlocked_ = false;
      pending_seed_.clear();
      key_attempts_ = 0;
      lockout_until_ = -1;
      silent_until_ = now + reset_profile_.boot_time;
      ++resets_;
      return {};
    }
  }
  std::vector<util::Bytes> responses;
  if (faults_.enabled()) {
    if (faults_.busy_rate > 0.0 && fault_rng_.chance(faults_.busy_rate)) {
      // Busy ECUs refuse without processing; the tester must resend.
      responses.push_back(
          encode_negative_response(request[0], kNrcBusyRepeatRequest));
      return responses;
    }
    if (faults_.pending_rate > 0.0 &&
        fault_rng_.chance(faults_.pending_rate)) {
      const auto n = fault_rng_.uniform_int(
          1, std::max(1, faults_.max_pending));
      for (std::int64_t i = 0; i < n; ++i) {
        responses.push_back(
            encode_negative_response(request[0], kNrcResponsePending));
      }
    }
  }
  util::Bytes answer = handle(request);
  if (!answer.empty()) responses.push_back(std::move(answer));
  return responses;
}

util::Bytes Server::handle(std::span<const std::uint8_t> request) {
  if (request.empty()) return {};
  if (sessions_armed_) {
    const util::SimTime now = clock_->now();
    if (session_started_ &&
        now - last_activity_ > session_profile_.s3_timeout) {
      session_started_ = false;
      ++s3_expiries_;
    }
    last_activity_ = now;
  }
  switch (request[0]) {
    case kStartDiagnosticSession: {
      if (request.size() != 2) {
        return encode_negative_response(request[0],
                                        kSubFunctionNotSupported);
      }
      session_started_ = true;
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
    case kSecurityAccess:
      return handle_security_access(request);
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
      if (sessions_armed_ && !session_started_) {
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
      if (sessions_armed_ && !session_started_) {
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

util::Bytes Server::handle_security_access(
    std::span<const std::uint8_t> req) {
  // Mirrors uds::Server::handle_security_access byte for byte (KWP 2000
  // shares the ISO 14229 NRC values): odd level requests a seed, even level
  // sends the key, and with sessions armed the attempt counter trips a
  // 0x36/0x37 delay-timer lockout.
  if (!key_fn_) {
    return encode_negative_response(kSecurityAccess, kServiceNotSupported);
  }
  if (req.size() < 2) {
    return encode_negative_response(kSecurityAccess,
                                    kSubFunctionNotSupported);
  }
  if (locked_out()) {
    return encode_negative_response(kSecurityAccess,
                                    kNrcRequiredTimeDelayNotExpired);
  }
  const std::uint8_t level = req[1];
  if (level % 2 == 1) {  // requestSeed
    pending_seed_ = {0x12, 0x34, 0x56, 0x78};
    util::Bytes out{static_cast<std::uint8_t>(kSecurityAccess +
                                              kPositiveOffset),
                    level};
    out.insert(out.end(), pending_seed_.begin(), pending_seed_.end());
    return out;
  }
  // sendKey
  if (pending_seed_.empty()) {
    return encode_negative_response(kSecurityAccess,
                                    kNrcRequestSequenceError);
  }
  const util::Bytes expected = key_fn_(pending_seed_);
  const util::Bytes provided(req.begin() + 2, req.end());
  pending_seed_.clear();
  if (provided != expected) {
    if (sessions_armed_ &&
        ++key_attempts_ >= session_profile_.max_key_attempts) {
      key_attempts_ = 0;
      lockout_until_ = clock_->now() + session_profile_.lockout_delay;
      return encode_negative_response(kSecurityAccess,
                                      kNrcExceedNumberOfAttempts);
    }
    return encode_negative_response(kSecurityAccess, kNrcInvalidKey);
  }
  key_attempts_ = 0;
  unlocked_ = true;
  return {static_cast<std::uint8_t>(kSecurityAccess + kPositiveOffset),
          level};
}

}  // namespace dpr::kwp
