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
// Hot-path layout: arbitration is a two-level bitmap priority queue (a
// radix heap over the 11-bit id space, plus a side list for extended
// ids) with a FIFO ring per distinct queued id — pop order is the strict
// (id, seq) total order of a frame-granular heap at O(1) per frame, the
// winner found with two countr_zero instructions; per-DLC wire times
// come from a 9-entry table; dispatch walks a pre-merged per-id receiver
// list instead of scanning every listener.

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "can/frame.hpp"
#include "util/clock.hpp"
#include "util/fault.hpp"

namespace dpr::can {

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

  bool match_all() const { return span == 0; }
  bool matches(std::uint32_t id) const {
    return span == 0 || id - base < span;
  }
};

class CanBus {
 public:
  /// `bitrate_bps` controls the simulated wire time per frame.
  explicit CanBus(util::SimClock& clock, std::uint32_t bitrate_bps = 500'000);

  /// Attach a listener; returns its registration index. The filter
  /// (default match-all) restricts which frame ids reach the listener;
  /// delivery order among the listeners a frame does reach is always
  /// attach order, filtered or not. There is no detach: a listener, and
  /// everything it captures, must stay valid for as long as the bus can
  /// dispatch. A transport that attaches `this` must outlive its bus's
  /// last deliver_pending(), and so must any client whose handler it
  /// holds.
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

  bool idle() const { return queued() == 0 && !pending_copy_; }
  /// Frames currently queued for arbitration (excludes a carried copy).
  std::size_t queued() const { return fast_count_; }
  std::size_t frames_delivered() const { return frames_delivered_; }
  util::SimClock& clock() { return clock_; }

  /// Install a fault injector consulted once per frame in delivery order;
  /// frame n draws from event n of the counter stream, so a dropped frame
  /// never shifts later frames' fates. Without an injector (or with a
  /// disabled plan) delivery is lossless.
  void set_faults(const util::FaultPlan& plan, util::CounterRng stream);
  void clear_faults() { injector_.reset(); }

  /// Accumulated fault counters, or nullptr when no injector is installed.
  const util::FaultStats* fault_stats() const {
    return injector_ ? &injector_->stats() : nullptr;
  }

  /// Wire time for one frame: worst-case stuffed classical CAN frame
  /// overhead plus data bits, at the configured bitrate (table lookup).
  util::SimTime frame_time(const CanFrame& frame) const {
    return frame_times_[frame.dlc()];
  }

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
  BusState state() const { return state_; }

  std::uint64_t sleeps() const { return sleeps_; }
  std::uint64_t wakeups() const { return wakeups_; }
  std::uint64_t frames_lost_to_sleep() const { return frames_lost_to_sleep_; }

  /// Register a housekeeping hook run at the top of every deliver_pending().
  /// With no services registered, delivery is byte-for-byte the pre-NM path.
  std::size_t add_service(BusService service);
  void run_services();

 private:
  struct Queued {
    std::uint32_t id = 0;     ///< arbitration key (frame id value)
    std::uint64_t seq = 0;    ///< enqueue sequence: FIFO among equal ids
    CanFrame frame;
  };

  // Arbitration structure: a radix/bitmap priority queue with
  // one FIFO ring per *distinct* queued id. Standard ids (< 0x800) live
  // in a two-level bitmap — a 32-bit summary word over 32 × 64-bit detail
  // words — so the arbitration winner is two countr_zero instructions;
  // insert and drain are single bit sets/clears. Extended ids (rare: one
  // transport per BMW-framing car) sit in a scanned side list; every
  // extended id value exceeds every standard id value, so the side list
  // only arbitrates when the bitmap is empty. Pop order is lowest id
  // first, FIFO within an id — the strict (id, seq) total order — at
  // O(1) per frame.
  struct ArbEntry {
    std::uint32_t id = 0;
    std::uint32_t ring = 0;  ///< index into rings_
  };
  struct Ring {
    std::vector<Queued> items;
    std::size_t head = 0;  ///< consumed prefix; compacted amortized O(1)
  };

  struct Listener {
    FrameListener fn;
    IdFilter filter;
  };

  /// Insert a frame whose seq is already assigned.
  void fast_insert(Queued&& item);
  /// Ring index for `id`, or -1. Standard ids use a flat table; extended
  /// ids (rare: one transport per BMW-framing car) a scanned vector.
  std::int32_t ring_of(std::uint32_t id) const;
  void map_ring(std::uint32_t id, std::uint32_t ring);
  void unmap_ring(std::uint32_t id);
  /// Drop every queued frame (sleep purge).
  void clear_arbitration();

  /// Pop the arbitration winner (lowest id, FIFO among equals).
  Queued pop_winner();
  /// Fan one delivered frame out to the listeners whose filter matches,
  /// in attach order.
  void dispatch(const CanFrame& frame, util::SimTime ts);
  /// Deliver one wire copy of `frame` (advance clock, fan out, count).
  void deliver_copy(const CanFrame& frame, std::size_t& delivered);
  /// Fold listeners attached since the last dispatch into the index
  /// (lazily, on the first dispatch after an attach burst). Append-only:
  /// the bus has no detach, so extending never reorders receivers.
  void extend_index();

  util::SimClock& clock_;
  std::array<util::SimTime, 9> frame_times_{};  // per-DLC wire time
  std::vector<Listener> listeners_;
  // Dispatch index. buckets_[id] is the *complete* pre-merged receiver
  // list for standard id `id` — filtered listeners and match-all
  // listeners interleaved in attach order — so standard-id dispatch is a
  // single flat walk with no per-frame merging. Built only when at least
  // one standard-range filter exists (otherwise match_all_ alone serves
  // every standard id). Extended ids merge wide_ (filters reaching past
  // the standard range, matched per entry) with match_all_ at dispatch;
  // they are rare (one transport per BMW-framing car). Maintenance is
  // incremental: listeners_[indexed_count_..] are folded in lazily on
  // the first dispatch after an attach burst (extend_index), appending
  // in ascending index order so attach-order interleaving is free.
  static constexpr std::uint32_t kNumBuckets = 0x800;
  std::vector<std::vector<std::uint32_t>> buckets_;
  std::vector<std::uint32_t> match_all_;
  std::vector<std::uint32_t> wide_;
  std::uint32_t indexed_count_ = 0;
  // Arbitration state: the two-level bitmap (standard ids) + ext_arb_
  // (extended ids) + rings_ (per-id FIFO) + the id -> ring indexes.
  std::uint32_t arb_summary_ = 0;             // bit g: detail word g != 0
  std::array<std::uint64_t, 32> arb_bits_{};   // bit per standard id
  std::vector<ArbEntry> ext_arb_;              // extended ids, scanned
  std::vector<Ring> rings_;
  std::vector<std::uint32_t> free_rings_;
  std::vector<std::int32_t> std_ring_index_;  // lazily sized kNumBuckets
  std::vector<std::pair<std::uint32_t, std::int32_t>> ext_ring_index_;
  std::size_t fast_count_ = 0;  ///< frames queued across all rings
  std::uint64_t next_seq_ = 0;
  std::size_t frames_delivered_ = 0;
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
