#pragma once
// In-process simulated CAN bus with priority arbitration.
//
// The bus is single-threaded and deterministic: nodes enqueue frames with
// send(); deliver_pending() performs arbitration (lowest identifier first,
// FIFO among equal ids), advances the shared SimClock by each frame's wire
// time, and fans the frame out to every attached listener whose id filter
// matches (ECUs, the diagnostic tool, and the sniffer all observe the same
// broadcast medium — the sniffer subscribes match-all).
//
// The layout is sized for diagnostic traffic, where a tester drives each
// ECU one request at a time: queued frames sit in one vector in send
// order and the winner is found by a scan (the queue mostly holds one
// frame, a few at most), and dispatch scans the listener list, which
// holds a transport or two per ECU plus the tool's and sniffer's taps.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "can/frame.hpp"
#include "util/clock.hpp"
#include "util/fault.hpp"

namespace dpr::can {

/// Simulated bitrate: 500 kbit/s high-speed CAN, the rate of the
/// diagnostic buses behind the OBD-II port.
inline constexpr std::uint32_t kBitrateBps = 500'000;

/// Receives every frame that completes arbitration on the bus.
using FrameListener =
    std::function<void(const CanFrame&, util::SimTime timestamp)>;

/// Periodic housekeeping hook (e.g. an NM node's timers) run at the top of
/// every deliver_pending() with the current sim time.
using BusService = std::function<void(util::SimTime now)>;

/// Bus lifecycle under OSEK/VDX network management: while kSleeping, normal
/// frames are swallowed at send() and only a frame in the configured wakeup
/// id range transitions the bus back to kAwake.
enum class BusState : std::uint8_t { kAwake, kSleeping };

/// Subscription filter for CanBus::attach: the listener sees exactly the
/// frames whose id value lies in [base, base + span). span == 0 means
/// match-all (the default, so sniffer/trace listeners keep seeing
/// everything). Filters match the 11/29-bit id *value*; listeners that
/// care about the extended flag keep their own check.
struct IdFilter {
  std::uint32_t base = 0;
  std::uint32_t span = 0;  ///< 0 = match-all

  static IdFilter all() { return IdFilter{}; }
  static IdFilter exact(std::uint32_t id) { return IdFilter{id, 1}; }
  static IdFilter exact(CanId id) { return IdFilter{id.value, 1}; }
  static IdFilter range(std::uint32_t base, std::uint32_t span) {
    return IdFilter{base, span};
  }

  bool matches(std::uint32_t id) const {
    return span == 0 || id - base < span;
  }
};

class CanBus {
 public:
  explicit CanBus(util::SimClock& clock) : clock_(clock) {}

  /// Attach a listener; returns its registration index. The filter
  /// (default match-all) restricts which frame ids reach the listener;
  /// delivery order among the listeners a frame does reach is always
  /// attach order, filtered or not. A listener attached from inside a
  /// callback first hears the frame after the one being delivered.
  /// There is no detach: a listener, and everything it captures, must
  /// stay valid for as long as the bus can dispatch. A transport that
  /// attaches `this` must outlive its bus's last deliver_pending(), and
  /// so must any client whose handler it holds.
  std::size_t attach(FrameListener listener, IdFilter filter = IdFilter::all());

  /// Queue a frame for transmission. Delivery happens on deliver_pending().
  void send(const CanFrame& frame);

  /// Arbitrate and deliver every queued frame (including frames queued by
  /// listeners while delivering — e.g. an ECU answering a request).
  /// Returns the number of frames delivered.
  std::size_t deliver_pending();

  /// Deliver at most `max_frames` frames. Duplicate copies count against
  /// the budget: when a duplicated frame's second copy would exceed it,
  /// the copy is carried over and delivered first by the next call.
  std::size_t deliver_some(std::size_t max_frames);

  bool idle() const { return queue_.empty() && !pending_copy_; }
  util::SimClock& clock() { return clock_; }

  /// Install a fault injector consulted once per frame in delivery order;
  /// frame n draws from event n of the counter stream, so a dropped frame
  /// never shifts later frames' fates. Without an injector (or with a
  /// disabled plan) delivery is lossless.
  void set_faults(const util::FaultPlan& plan, util::CounterRng stream);

  /// Accumulated fault counters, or nullptr when no injector is installed.
  const util::FaultStats* fault_stats() const {
    return injector_ ? &injector_->stats() : nullptr;
  }

  /// Wire time for one frame: worst-case stuffed classical CAN frame
  /// overhead plus data bits at kBitrateBps (table lookup).
  static util::SimTime frame_time(const CanFrame& frame);

  /// Arm the sleep/wakeup lifecycle. Frames with id in
  /// [wake_base, wake_base + wake_span) act as wakeup frames: sending one
  /// while the bus sleeps wakes it (the transmission itself is the wakeup
  /// event, so it wakes the bus even if the fault injector later drops it).
  /// Any other frame sent while asleep is swallowed and counted.
  void enable_lifecycle(std::uint32_t wake_base, std::uint32_t wake_span);
  bool lifecycle_enabled() const { return lifecycle_enabled_; }

  /// Put the bus to sleep (no-op unless the lifecycle is enabled or the
  /// bus already sleeps). Called by NM nodes once the ring agrees.
  void sleep();
  bool asleep() const { return state_ == BusState::kSleeping; }

  std::uint64_t sleeps() const { return sleeps_; }
  std::uint64_t wakeups() const { return wakeups_; }
  std::uint64_t frames_lost_to_sleep() const { return frames_lost_to_sleep_; }

  /// Register a housekeeping hook run at the top of every deliver_pending().
  /// With no services registered, delivery is byte-for-byte the pre-NM path.
  std::size_t add_service(BusService service);
  void run_services();

 private:
  struct Listener {
    IdFilter filter;
    // Boxed: a callback that attaches can grow listeners_, and the
    // function object it is running on must not move.
    std::unique_ptr<FrameListener> fn;
  };

  /// Remove and return the arbitration winner: the first queued frame
  /// with the lowest id value (send order makes it FIFO among equal ids).
  CanFrame pop_winner();
  /// Fan one delivered frame out to the listeners whose filter matches,
  /// in attach order.
  void dispatch(const CanFrame& frame, util::SimTime ts);
  /// Deliver one wire copy of `frame` (advance clock, fan out, count).
  void deliver_copy(const CanFrame& frame, std::size_t& delivered);

  util::SimClock& clock_;
  std::vector<Listener> listeners_;
  std::vector<CanFrame> queue_;  ///< queued frames, in send order
  // Second copy of a duplicated frame that did not fit the previous
  // deliver_some budget; delivered first (before the sleep purge — on the
  // wire it directly followed its sibling) by the next call.
  std::optional<CanFrame> pending_copy_;
  std::optional<util::FaultInjector> injector_;
  // Sleep/wakeup lifecycle (disabled by default; see enable_lifecycle()).
  bool lifecycle_enabled_ = false;
  BusState state_ = BusState::kAwake;
  std::uint32_t wake_base_ = 0;
  std::uint32_t wake_span_ = 0;
  std::uint64_t sleeps_ = 0;
  std::uint64_t wakeups_ = 0;
  std::uint64_t frames_lost_to_sleep_ = 0;
  std::vector<BusService> services_;
};

}  // namespace dpr::can
