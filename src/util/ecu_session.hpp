#pragma once
// The diagnostic session of one simulated ECU, shared by every service
// family the ECU speaks. A UDS car whose actuators run over KWP's 0x30
// service enters its session with UDS `10 03` and controls with KWP
// `30 ...`: both requests see the same session, the same S3 timer, the
// same reboot draws and the same 0x21/0x78 fault envelope.
//
// Everything is inert until armed, and an unarmed session performs no
// RNG draws, so clean runs stay bit-identical to a build without it.

#include <cstdint>
#include <span>
#include <vector>

#include "util/clock.hpp"
#include "util/counter_rng.hpp"
#include "util/hex.hpp"
#include "util/link.hpp"
#include "util/rng.hpp"

namespace dpr::util {

/// ISO 14229-2's S3 server timer: an armed session falls back to the
/// default session after this much inactivity.
inline constexpr SimTime kS3Timeout = 5 * kSecond;
/// How long a rebooting ECU stays bus-silent.
inline constexpr SimTime kResetBootTime = 300 * kMillisecond;

class EcuSession {
 public:
  /// Session level 0x01 is the default session: no diagnostic session runs.
  static constexpr std::uint8_t kDefaultSession = 0x01;

  /// Server-side fault behaviour: with probability `busy_rate` the ECU
  /// refuses with NRC 0x21 busyRepeatRequest (the request is NOT
  /// processed); otherwise, with probability `pending_rate`, it stalls with
  /// 1..kMaxPending NRC 0x78 responsePending messages before the answer.
  struct FaultProfile {
    double pending_rate = 0.0;
    double busy_rate = 0.0;

    bool enabled() const { return pending_rate > 0.0 || busy_rate > 0.0; }
  };
  void enable_faults(const FaultProfile& profile, Rng rng);

  /// S3 timer: a non-default session falls back to the default session
  /// after kS3Timeout of inactivity (any handled request refreshes the
  /// timer, which is what TesterPresent keepalives are for). Armed, it
  /// also makes the gated services answer NRC 0x7F
  /// serviceNotSupportedInActiveSession outside a session.
  void enable_s3(const SimClock& clock);

  /// Deterministic reboots: with probability `reset_rate` per request the
  /// ECU drops its session and goes bus-silent (no response at all) until
  /// kResetBootTime has elapsed. The n-th *non-silent* request draws event
  /// n of the counter stream, so any request's reboot fate can be
  /// re-derived in O(1); requests swallowed by the boot window consume no
  /// event. A zero rate is never armed, so clean runs perform zero draws.
  void enable_resets(double reset_rate, const SimClock& clock,
                     CounterRng stream);

  /// The full response sequence for one request: `handle(request)`'s
  /// answer, possibly preceded by 0x78 markers or replaced by a 0x21
  /// refusal, or nothing while the ECU reboots. Per request the draws come
  /// in a fixed order: the reboot draw, the busy draw, the pending count.
  /// Without faults this is exactly {handle(request)} (minus an empty
  /// answer, which suppressed-response requests produce).
  template <typename Handle>
  std::vector<Bytes> respond(std::span<const std::uint8_t> request,
                             Handle&& handle) {
    std::vector<Bytes> responses;
    if (request.empty() || !admit(request[0], responses)) return responses;
    Bytes answer = handle(request);
    if (!answer.empty()) responses.push_back(std::move(answer));
    return responses;
  }

  /// Serve `handle` on a transport: each incoming request's response
  /// sequence is sent back on the same link.
  template <typename Handle>
  void bind(MessageLink& link, Handle handle) {
    link.set_message_handler([this, &link, handle](const Bytes& request) {
      for (const Bytes& response : respond(request, handle)) {
        link.send(response);
      }
    });
  }

  /// The lazy S3 check: a session whose timer ran out fell back to the
  /// default session; it is observed here, and the timer restarts. Every
  /// service calls this at the top of its handle().
  void on_request();

  void enter(std::uint8_t level) { level_ = level; }
  bool in_session() const { return level_ != kDefaultSession; }
  bool s3_armed() const { return s3_armed_; }

  /// Reboots performed / S3 timeouts that dropped a session.
  std::uint64_t resets() const { return resets_; }
  std::uint64_t s3_expiries() const { return s3_expiries_; }
  /// Exclusive end of the current reboot silence window, or -1 when the
  /// ECU is up. NM nodes use this to model a rebooting ECU vanishing from
  /// the ring (deaf and mute until the boot completes).
  SimTime silent_until() const { return silent_until_; }

 private:
  /// The reboot and fault envelope of one request with service id `sid`:
  /// false when the request must not be handled (swallowed by a reboot,
  /// or refused as busy into `responses`); true after queueing any 0x78
  /// markers into `responses`.
  bool admit(std::uint8_t sid, std::vector<Bytes>& responses);

  /// The most 0x78 markers one answer waits behind.
  static constexpr int kMaxPending = 2;

  std::uint8_t level_ = kDefaultSession;
  const SimClock* clock_ = nullptr;

  FaultProfile faults_;
  Rng fault_rng_;

  bool s3_armed_ = false;
  SimTime last_activity_ = 0;
  std::uint64_t s3_expiries_ = 0;

  double reset_rate_ = 0.0;  ///< armed when positive
  CounterRng reset_stream_;
  std::uint64_t reset_events_ = 0;  ///< non-silent requests seen so far
  SimTime silent_until_ = -1;       ///< rebooting: exclusive end of silence
  std::uint64_t resets_ = 0;
};

}  // namespace dpr::util
