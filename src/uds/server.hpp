#pragma once
// UDS server: the ISO 14229 services of a simulated ECU. Owns a registry
// of readable data identifiers (0x22) and controllable IO identifiers
// (0x2F), gates IO control on the ECU's diagnostic session the way a real
// ECU does, and produces byte-exact positive/negative responses. The
// session itself (level, S3 timer, reboots, fault envelope) is the ECU's
// util::EcuSession, which a KWP server on the same ECU shares.

#include <functional>
#include <map>
#include <optional>

#include "uds/message.hpp"
#include "util/ecu_session.hpp"
#include "util/link.hpp"

namespace dpr::uds {

/// Produces the current raw data bytes for one DID.
using DidReader = std::function<util::Bytes()>;

/// Handles an IO-control action; returns the control-status bytes echoed in
/// the positive response, or nullopt to signal requestOutOfRange.
using IoHandler = std::function<std::optional<util::Bytes>(
    IoControlParameter, std::span<const std::uint8_t> control_state)>;

class Server {
 public:
  explicit Server(util::EcuSession& session) : session_(session) {}

  /// Register a readable DID with fixed-length data.
  void add_did(Did did, std::size_t length, DidReader reader);

  /// Register a controllable DID (0x2F target). If `requires_session` the
  /// ECU rejects IO control outside an extended diagnostic session, like
  /// real ECUs do.
  void add_io_did(Did did, IoHandler handler, bool requires_session = true);

  /// Stored diagnostic trouble code (ISO 14229 0x19 / 0x14).
  struct Dtc {
    std::uint32_t code = 0;     // 3-byte DTC
    std::uint8_t status = 0x2F; // status byte (testFailed | confirmed...)
  };
  void add_dtc(std::uint32_t code, std::uint8_t status = 0x2F);
  const std::vector<Dtc>& dtcs() const { return dtcs_; }

  /// Process one request, producing exactly one response message.
  util::Bytes handle(std::span<const std::uint8_t> request);

  /// The session's full response sequence for one request (see
  /// util::EcuSession::respond).
  std::vector<util::Bytes> respond(std::span<const std::uint8_t> request) {
    return session_.respond(request, [this](auto req) { return handle(req); });
  }

  /// Bind to a transport: incoming messages are handled and the response
  /// sequence is sent back on the same link.
  void bind(util::MessageLink& link) {
    session_.bind(link, [this](auto req) { return handle(req); });
  }

 private:
  util::Bytes handle_session_control(std::span<const std::uint8_t> req);
  util::Bytes handle_tester_present(std::span<const std::uint8_t> req);
  util::Bytes handle_ecu_reset(std::span<const std::uint8_t> req);
  util::Bytes handle_read_data(std::span<const std::uint8_t> req);
  util::Bytes handle_io_control(std::span<const std::uint8_t> req);
  util::Bytes handle_read_dtc(std::span<const std::uint8_t> req);
  util::Bytes handle_clear_dtc(std::span<const std::uint8_t> req);

  struct DidEntry {
    std::size_t length = 0;
    DidReader reader;
  };
  struct IoEntry {
    IoHandler handler;
    bool requires_session = true;
  };

  util::EcuSession& session_;
  std::map<Did, DidEntry> dids_;
  std::map<Did, IoEntry> io_dids_;
  std::vector<Dtc> dtcs_;
};

}  // namespace dpr::uds
