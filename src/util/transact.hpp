#pragma once
// The tester's transaction loop, shared by the UDS and KWP 2000 clients.
//
// ISO 14229 and ISO 14230 share the negative-response format `7F sid nrc`
// and the two NRCs a tester must ride out: 0x78 responsePending (keep
// waiting, the real answer follows) and 0x21 busyRepeatRequest (resend
// after a back-off). ISO 14229-2 names the timing parameters we model: P2
// (how long a tester waits for the first response) and P2* (the extended
// wait). TransactStats rolls the per-client counters up into
// CampaignReport.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>

#include "util/clock.hpp"
#include "util/hex.hpp"
#include "util/link.hpp"

namespace dpr::util {

/// The negative-response envelope both protocols share.
constexpr std::uint8_t kNegativeResponse = 0x7F;
constexpr std::uint8_t kNrcBusyRepeatRequest = 0x21;
constexpr std::uint8_t kNrcResponsePending = 0x78;

/// Backoff before a resend after a response timeout (P2) and after a 0x21
/// busy refusal (P2*), and the 0x78 markers absorbed per transaction.
constexpr SimTime kP2 = 50 * kMillisecond;
constexpr SimTime kP2Star = 500 * kMillisecond;
constexpr int kMaxPendingWaits = 16;

/// Retry policy for one diagnostic client. The default policy is the
/// legacy single-shot behaviour (no retries, no clock advancement) so
/// fault-free runs stay bit-identical to pre-fault builds; `resilient()`
/// is what campaigns use whenever fault injection is enabled.
struct TransactPolicy {
  int max_retries = 0;  ///< extra attempts after the first send

  static TransactPolicy resilient() { return TransactPolicy{3}; }
};

/// Deterministic per-client transaction counters.
struct TransactStats {
  std::uint64_t transactions = 0;   ///< transact() calls
  std::uint64_t retries = 0;        ///< resends after a response timeout
  std::uint64_t busy_retries = 0;   ///< resends after 0x21 busyRepeatRequest
  std::uint64_t pending_waits = 0;  ///< 0x78 responsePending absorbed
  std::uint64_t failures = 0;       ///< transactions with no usable answer

  TransactStats& operator+=(const TransactStats& other) {
    transactions += other.transactions;
    retries += other.retries;
    busy_retries += other.busy_retries;
    pending_waits += other.pending_waits;
    failures += other.failures;
    return *this;
  }
};

/// Sends one request at a time over a MessageLink and hands back the
/// peer's answer. The simulated bus is drained explicitly, so the client
/// takes a pump callback that pushes the medium until pending traffic has
/// been delivered (e.g. [&]{ bus.deliver_pending(); }). With a resilient
/// policy it absorbs 0x78 markers, backs off by P2* and resends after
/// 0x21, and resends after P2 when a request or response was lost. The
/// default policy performs exactly one send-and-pump.
class TransactClient {
 public:
  /// `clock`, when given, lets retry backoffs advance simulated time;
  /// without it the retry loop still works but backs off zero time.
  TransactClient(MessageLink& link, std::function<void()> pump,
                 TransactPolicy policy = {}, SimClock* clock = nullptr);

  /// Send a raw request and wait for the response (pumping the medium and
  /// retrying per the policy). Returns nullopt if every attempt timed out;
  /// a request still refused as busy after the last retry returns the
  /// refusal.
  std::optional<Bytes> transact(std::span<const std::uint8_t> request);

  const TransactStats& stats() const { return stats_; }

 protected:
  /// Fire-and-forget: send and drain without waiting for an answer (the
  /// suppressed TesterPresent keepalive, which gets none).
  void send_only(std::span<const std::uint8_t> request);

 private:
  /// (Re-)claim the link: a UDS and a KWP client share one transport on
  /// vehicles that mix 0x22 reads with 0x30 IO control.
  void claim_link();

  MessageLink& link_;
  std::function<void()> pump_;
  TransactPolicy policy_;
  SimClock* clock_ = nullptr;
  std::deque<Bytes> inbox_;
  TransactStats stats_;
};

}  // namespace dpr::util
