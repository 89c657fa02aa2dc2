#pragma once
// KWP 2000 server: application layer of a KWP ECU. Holds the local-id
// registry (each local id yields 1..m 3-byte ESV records per Fig. 3) and
// the IO-control registries for local and common identifiers.

#include <functional>
#include <map>
#include <optional>

#include "kwp/message.hpp"
#include "util/clock.hpp"
#include "util/counter_rng.hpp"
#include "util/link.hpp"
#include "util/rng.hpp"

namespace dpr::kwp {

/// Produces the current ESV records for one local identifier.
using LocalIdReader = std::function<std::vector<EsvRecord>()>;

/// Handles an ECU-control record; returns the control status bytes for the
/// positive response, or nullopt to reject with requestOutOfRange.
using IoHandler =
    std::function<std::optional<util::Bytes>(std::span<const std::uint8_t>)>;

class Server {
 public:
  void add_local_id(std::uint8_t local_id, LocalIdReader reader);
  void add_io_local(std::uint8_t local_id, IoHandler handler);
  void add_io_common(std::uint16_t common_id, IoHandler handler);

  /// Security-access seed/key (ISO 14230-3 0x27), mirroring
  /// uds::Server::enable_security: the key function maps seed -> expected
  /// key; wrong keys count toward the attempt lockout when sessions are
  /// armed (same 0x35/0x36/0x37 byte values as ISO 14229).
  void enable_security(std::function<util::Bytes(const util::Bytes&)> key_fn);

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

  /// Server-side fault behaviour, mirroring uds::Server::FaultProfile:
  /// 0x78 responsePending stalls before the answer, 0x21 busyRepeatRequest
  /// refusals instead of it (same ISO 14230 byte values).
  struct FaultProfile {
    double pending_rate = 0.0;
    int max_pending = 2;
    double busy_rate = 0.0;

    bool enabled() const { return pending_rate > 0.0 || busy_rate > 0.0; }
  };
  void enable_faults(const FaultProfile& profile, util::Rng rng);

  /// S3 session timer, mirroring uds::Server::enable_sessions: the started
  /// diagnostic session expires after `s3_timeout` of inactivity, and with
  /// the timer armed the IO-control services demand a running session (NRC
  /// 0x7F), which is what the diagtool supervisor keys recovery on. The
  /// armed timer also activates the security-access attempt lockout:
  /// `max_key_attempts` wrong keys answer NRC 0x36 and refuse further 0x27
  /// requests with NRC 0x37 until `lockout_delay` expires.
  struct SessionProfile {
    util::SimTime s3_timeout = 5 * util::kSecond;
    int max_key_attempts = 3;
    util::SimTime lockout_delay = 10 * util::kSecond;
  };
  void enable_sessions(const SessionProfile& profile,
                       const util::SimClock& clock);

  /// Deterministic ECU reboots, mirroring uds::Server::enable_resets: the
  /// n-th non-silent request draws event n of the counter stream.
  struct ResetProfile {
    double reset_rate = 0.0;
    util::SimTime boot_time = 300 * util::kMillisecond;

    bool enabled() const { return reset_rate > 0.0; }
  };
  void enable_resets(const ResetProfile& profile, const util::SimClock& clock,
                     util::CounterRng stream);

  std::uint64_t resets() const { return resets_; }
  std::uint64_t s3_expiries() const { return s3_expiries_; }
  /// Security lockout currently in force (for tests).
  bool locked_out() const;
  /// Exclusive end of the current reboot silence window, or -1 when the
  /// ECU is up (see uds::Server::silent_until).
  util::SimTime silent_until() const { return silent_until_; }

  /// Full response sequence for one request; exactly {handle(request)}
  /// unless faults are enabled.
  std::vector<util::Bytes> respond(std::span<const std::uint8_t> request);

  /// Bind to a transport (request in, responses out on the same link).
  void bind(util::MessageLink& link);

  bool session_started() const { return session_started_; }
  bool unlocked() const { return unlocked_; }

 private:
  util::Bytes handle_security_access(std::span<const std::uint8_t> req);

  std::map<std::uint8_t, LocalIdReader> local_ids_;
  std::map<std::uint8_t, IoHandler> io_local_;
  std::map<std::uint16_t, IoHandler> io_common_;
  util::Bytes identification_;
  std::vector<Dtc> dtcs_;
  bool session_started_ = false;
  std::function<util::Bytes(const util::Bytes&)> key_fn_;
  util::Bytes pending_seed_;
  bool unlocked_ = false;
  FaultProfile faults_;
  util::Rng fault_rng_;

  // Stateful-failure machinery; inert until enable_sessions/enable_resets.
  const util::SimClock* clock_ = nullptr;
  SessionProfile session_profile_;
  bool sessions_armed_ = false;
  ResetProfile reset_profile_;
  util::CounterRng reset_stream_;
  std::uint64_t reset_events_ = 0;  ///< non-silent requests seen so far
  bool resets_armed_ = false;
  util::SimTime last_activity_ = 0;
  util::SimTime silent_until_ = -1;
  util::SimTime lockout_until_ = -1;  ///< security lockout delay timer
  int key_attempts_ = 0;
  std::uint64_t resets_ = 0;
  std::uint64_t s3_expiries_ = 0;
};

}  // namespace dpr::kwp
