#pragma once
// UDS client: the tester side (professional diagnostic tool). The send,
// pump and retry loop is util::TransactClient's; this class adds the
// §2.3.2 service helpers on top.

#include <functional>
#include <optional>

#include "uds/message.hpp"
#include "util/transact.hpp"

namespace dpr::uds {

class Client : public util::TransactClient {
 public:
  using util::TransactClient::TransactClient;

  bool start_session(std::uint8_t session_type);

  /// 0x3E keepalive. The suppressed form (the supervisor's steady-state
  /// keepalive) sends and pumps without expecting any response; the
  /// non-suppressed form doubles as an is-the-ECU-back liveness probe and
  /// reports whether a positive response arrived.
  bool tester_present(bool suppress = false);

  /// 0x22 for several DIDs; parses the response with the tool's knowledge
  /// of each DID's data length.
  std::optional<std::vector<DataRecord>> read_data(
      std::span<const Did> dids,
      const std::function<std::optional<std::size_t>(Did)>& length_of);

  /// 0x2F: returns the control-status bytes of a positive response.
  std::optional<util::Bytes> io_control(
      Did did, IoControlParameter param,
      std::span<const std::uint8_t> control_state = {});
};

}  // namespace dpr::uds
