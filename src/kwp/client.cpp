#include "kwp/client.hpp"

namespace dpr::kwp {

bool Client::start_session(std::uint8_t session_type) {
  const auto resp = transact(encode_start_session(session_type));
  return resp && is_positive_response(*resp, kStartDiagnosticSession);
}

bool Client::tester_present(bool suppress) {
  if (suppress) {
    // No response is coming for the suppressed form; send and drain.
    send_only(encode_tester_present(true));
    return true;
  }
  const auto resp = transact(encode_tester_present(false));
  return resp && is_positive_response(*resp, kTesterPresent);
}

std::optional<ReadResponse> Client::read_local_id(std::uint8_t local_id) {
  const auto resp = transact(encode_read_by_local_id(local_id));
  if (!resp) return std::nullopt;
  return decode_read_response(*resp);
}

std::optional<util::Bytes> Client::io_control_local(
    std::uint8_t local_id, std::span<const std::uint8_t> ecr) {
  const auto resp = transact(encode_io_control_local(local_id, ecr));
  // Positive format is [0x70, local id, status...]; never slice a
  // truncated (corrupted) response past its end.
  if (!resp || !is_positive_response(*resp, kIoControlByLocalId) ||
      resp->size() < 2) {
    return std::nullopt;
  }
  return util::Bytes(resp->begin() + 2, resp->end());
}

}  // namespace dpr::kwp
