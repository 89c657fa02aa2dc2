#pragma once
// KWP 2000 server: the ISO 14230-3 services of a simulated ECU. Holds the
// local-id registry (each local id yields 1..m 3-byte ESV records per
// Fig. 3) and the IO-control registries for local and common identifiers.
// The session itself is the ECU's util::EcuSession, which a UDS server on
// the same ECU shares.

#include <functional>
#include <map>
#include <optional>

#include "kwp/message.hpp"
#include "util/ecu_session.hpp"
#include "util/link.hpp"

namespace dpr::kwp {

/// Produces the current ESV records for one local identifier.
using LocalIdReader = std::function<std::vector<EsvRecord>()>;

/// Handles an ECU-control record; returns the control status bytes for the
/// positive response, or nullopt to reject with requestOutOfRange.
using IoHandler =
    std::function<std::optional<util::Bytes>(std::span<const std::uint8_t>)>;

class Server {
 public:
  explicit Server(util::EcuSession& session) : session_(session) {}

  void add_local_id(std::uint8_t local_id, LocalIdReader reader);
  void add_io_local(std::uint8_t local_id, IoHandler handler);
  void add_io_common(std::uint16_t common_id, IoHandler handler);

  /// ECU identification data returned by readEcuIdentification (0x1A) —
  /// part numbers / VIN / coding, typically a long multi-frame response.
  void set_identification(util::Bytes data) {
    identification_ = std::move(data);
  }

  /// Stored DTC (ISO 14230-3 0x18 readDTCsByStatus / 0x14 clear).
  struct Dtc {
    std::uint16_t code = 0;
    std::uint8_t status = 0xE0;
  };
  void add_dtc(std::uint16_t code, std::uint8_t status = 0xE0);
  const std::vector<Dtc>& dtcs() const { return dtcs_; }

  /// Process one request, producing exactly one response message.
  util::Bytes handle(std::span<const std::uint8_t> request);

  /// The session's full response sequence for one request (see
  /// util::EcuSession::respond).
  std::vector<util::Bytes> respond(std::span<const std::uint8_t> request) {
    return session_.respond(request, [this](auto req) { return handle(req); });
  }

  /// Bind to a transport (request in, responses out on the same link).
  void bind(util::MessageLink& link) {
    session_.bind(link, [this](auto req) { return handle(req); });
  }

 private:
  util::EcuSession& session_;
  std::map<std::uint8_t, LocalIdReader> local_ids_;
  std::map<std::uint8_t, IoHandler> io_local_;
  std::map<std::uint16_t, IoHandler> io_common_;
  util::Bytes identification_;
  std::vector<Dtc> dtcs_;
};

}  // namespace dpr::kwp
