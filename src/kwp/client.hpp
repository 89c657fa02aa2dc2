#pragma once
// KWP 2000 client (tester side): the service helpers of ISO 14230-3 on
// top of util::TransactClient, the send, pump and retry loop it shares
// with uds::Client.

#include <optional>

#include "kwp/message.hpp"
#include "util/transact.hpp"

namespace dpr::kwp {

class Client : public util::TransactClient {
 public:
  using util::TransactClient::TransactClient;

  bool start_session(std::uint8_t session_type = 0x89);

  /// 0x3E keepalive, mirroring uds::Client::tester_present: the suppressed
  /// form sends without waiting for a response, the required form probes
  /// ECU liveness.
  bool tester_present(bool suppress = false);

  /// 0x21: read the ESV records of a local identifier.
  std::optional<ReadResponse> read_local_id(std::uint8_t local_id);

  /// 0x30: control via local identifier; returns the control status.
  std::optional<util::Bytes> io_control_local(
      std::uint8_t local_id, std::span<const std::uint8_t> ecr);
};

}  // namespace dpr::kwp
