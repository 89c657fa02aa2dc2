#include "uds/client.hpp"

namespace dpr::uds {

bool Client::start_session(std::uint8_t session_type) {
  const auto resp = transact(encode_session_control(session_type));
  return resp &&
         is_positive_response(*resp, Service::kDiagnosticSessionControl);
}

bool Client::tester_present(bool suppress) {
  if (suppress) {
    // No response is coming, so the retry loop would only burn its
    // timeout budget.
    send_only(encode_tester_present(true));
    return true;
  }
  const auto resp = transact(encode_tester_present(false));
  return resp && is_positive_response(*resp, Service::kTesterPresent);
}

std::optional<std::vector<DataRecord>> Client::read_data(
    std::span<const Did> dids,
    const std::function<std::optional<std::size_t>(Did)>& length_of) {
  const auto resp = transact(encode_read_data_by_identifier(dids));
  if (!resp) return std::nullopt;
  return decode_read_data_response(*resp, dids, length_of);
}

std::optional<util::Bytes> Client::io_control(
    Did did, IoControlParameter param,
    std::span<const std::uint8_t> control_state) {
  const auto resp = transact(encode_io_control(did, param, control_state));
  // Positive format is [0x6F, did hi, did lo, param, state...].
  if (!resp || !is_positive_response(*resp, Service::kIoControlByIdentifier) ||
      resp->size() < 4) {
    return std::nullopt;
  }
  return util::Bytes(resp->begin() + 4, resp->end());
}

}  // namespace dpr::uds
