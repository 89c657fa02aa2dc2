#pragma once
// Simulated ECU: owns one diagnostic session, the protocol servers that
// share it (UDS / KWP / OBD-II), the raw signal stores behind every
// readable identifier, and the actuators behind every controllable
// identifier. Bound to the CAN bus through whichever transport the vehicle
// uses (ISO-TP, VW TP 2.0, or BMW framing).

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "can/bus.hpp"
#include "isotp/endpoint.hpp"
#include "kwp/server.hpp"
#include "uds/server.hpp"
#include "util/clock.hpp"
#include "util/ecu_session.hpp"
#include "util/fault.hpp"
#include "util/link.hpp"
#include "util/rng.hpp"
#include "vehicle/actuator.hpp"
#include "vehicle/catalog.hpp"

namespace dpr::vehicle {

/// The end of an ECU's diagnostic conversation a link serves.
enum class LinkSide { kTester, kEcu };

/// The `transport` link between the tester and `ecu`, seen from `side`:
/// an ISO-TP endpoint, a VW TP 2.0 data channel (on the ids the setup
/// handshake negotiates) or a BMW framing link, sending on the ECU's
/// request id and listening on its response id from the tester side, the
/// other way round from the ECU side. Constructing the link attaches its
/// listener to `bus`.
std::unique_ptr<util::MessageLink> make_link(can::CanBus& bus,
                                             TransportKind transport,
                                             const EcuSpec& ecu,
                                             LinkSide side);

class EcuSim {
 public:
  /// `spec` describes this ECU; `car` supplies protocol/transport context.
  /// `faults`, when enabled, arms the session with 0x78/0x21 fault
  /// behaviour on an independent stream derived from the fault seed.
  EcuSim(const EcuSpec& spec, const CarSpec& car, can::CanBus& bus,
         util::SimClock& clock, util::Rng rng,
         const util::FaultConfig& faults = {});

  EcuSim(const EcuSim&) = delete;
  EcuSim& operator=(const EcuSim&) = delete;

  const std::string& name() const { return spec_.name; }
  const EcuSpec& spec() const { return spec_; }

  /// Current physical value of a UDS signal (ground truth for scoring).
  std::optional<double> physical_value(uds::Did did) const;

  /// Current physical value of one KWP ESV (block, index).
  std::optional<double> kwp_physical_value(std::uint8_t local_id,
                                           std::size_t index) const;

  /// Actuator behind a DID / local id, if any.
  const Actuator* actuator(std::uint16_t id) const;
  Actuator* actuator(std::uint16_t id);

  /// The tester-side ids to reach this ECU.
  std::uint32_t request_id() const { return spec_.request_id; }
  std::uint32_t response_id() const { return spec_.response_id; }

  /// Spontaneous reboots / S3 session expiries.
  std::uint64_t resets() const { return session_.resets(); }
  std::uint64_t s3_expiries() const { return session_.s3_expiries(); }

  /// True while the ECU is inside a reboot silence window. The NM node for
  /// this ECU keys on it: a rebooting ECU vanishes from the ring (deaf and
  /// mute) until the boot completes.
  bool offline(util::SimTime now) const {
    return now < session_.silent_until();
  }

 private:
  void install_uds_signals(util::Rng& rng);
  void install_kwp_blocks(util::Rng& rng);
  void install_actuators();
  void install_obd(util::Rng& rng);
  void attach_transport(can::CanBus& bus);
  void dispatch(const util::Bytes& request);

  EcuSpec spec_;
  const CarSpec& car_;
  util::SimClock& clock_;

  // One session, shared by both service families: declared first, so it
  // outlives the servers that hold it.
  util::EcuSession session_;
  uds::Server uds_server_{session_};
  kwp::Server kwp_server_{session_};

  // Signal stores.
  struct UdsSignal {
    UdsSignalSpec spec;
    std::unique_ptr<RawSignal> source;        // combined (or high byte)
    std::unique_ptr<RawSignal> low_source;    // independent low byte
  };

  std::vector<std::uint8_t> sample_uds_raw(const UdsSignal& sig) const;
  std::map<uds::Did, UdsSignal> uds_signals_;

  struct KwpEsv {
    KwpEsvSpec spec;
    std::unique_ptr<RawSignal> x0_source;  // null when X0 is constant
    std::unique_ptr<RawSignal> x1_source;
  };
  struct KwpBlock {
    KwpLocalIdSpec spec;
    std::vector<KwpEsv> esvs;
  };
  std::map<std::uint8_t, KwpBlock> kwp_blocks_;

  // OBD-II mode-01 state (engine ECUs only).
  struct ObdSignal {
    std::uint8_t pid = 0;
    std::unique_ptr<RawSignal> source;
  };
  std::vector<ObdSignal> obd_signals_;

  std::map<std::uint16_t, Actuator> actuators_;

  // The car's transport, then the 0x7DF functional OBD listener.
  std::unique_ptr<util::MessageLink> link_;
  std::unique_ptr<isotp::Endpoint> obd_link_;
};

}  // namespace dpr::vehicle
