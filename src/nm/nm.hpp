#pragma once
// OSEK/VDX direct network management on the simulated CAN bus.
//
// Real VW-family buses do not stay awake for free: every node runs an NM
// state machine, the nodes form a logical token ring in address order, and
// once every ring member has indicated "ready to sleep" the whole bus powers
// down until a wakeup frame arrives. A node that vanishes mid-ring (an ECU
// rebooting after a reset draw) drives the survivors into limp-home until
// it re-announces itself. The norly/revag-nm reverse engineering of the VW
// Golf gateway is the shape reference: NM frames live on their own id range
// (base + node address, so arbitration orders them by address), and carry
// [successor, opcode] payloads.
//
// Everything here is deterministic: timing runs on util::SimClock, the only
// nondeterminism (initial alive stagger jitter) draws from a salted
// util::CounterRng stream, and nodes act exclusively from CanBus service
// ticks and delivered frames — so a fleet campaign with NM armed replays
// bit-identically at any thread count and across interrupt/resume.

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "can/bus.hpp"
#include "util/clock.hpp"
#include "util/counter_rng.hpp"

namespace dpr::nm {

/// NM CAN ids: kNmBaseId + node address, over a 6-bit address space.
constexpr std::uint32_t kNmBaseId = 0x420;
constexpr std::uint32_t kNmIdSpan = 0x40;

/// The NM sleep timing a campaign varies. All times are sim-time; the ring
/// timers are constants in nm.cpp.
struct NmConfig {
  util::SimTime sleep_timeout = 3 * util::kSecond;  ///< quiet bus → sleep.ind
  util::SimTime sleep_countdown = 500 * util::kMillisecond;  ///< ack → sleep
};

// NM payload layout: data[0] = destination/successor address,
// data[1] = opcode bits. A frame's sender is its CAN id minus kNmBaseId.
constexpr std::uint8_t kOpAlive = 0x01;     ///< node (re-)announces itself
constexpr std::uint8_t kOpRing = 0x02;      ///< token pass to data[0]
constexpr std::uint8_t kOpLimp = 0x04;      ///< limp-home heartbeat
constexpr std::uint8_t kOpSleepInd = 0x10;  ///< piggybacked "ready to sleep"
constexpr std::uint8_t kOpSleepAck = 0x20;  ///< ring agreed; countdown starts
constexpr std::uint8_t kOpWakeup = 0x40;    ///< pure wakeup, never a member

/// Per-node NM counters, all deterministic.
struct NmNodeStats {
  std::uint64_t alive_sent = 0;
  std::uint64_t ring_sent = 0;
  std::uint64_t limp_sent = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t limp_episodes = 0;  ///< normal → limp-home transitions
  std::uint64_t ring_repairs = 0;   ///< limp-home → normal transitions
};

/// One NM state machine. ECUs get one each (with an `offline` predicate
/// wired to their reboot window); a node with `allow_sleep = false` (the
/// veto holdout) vetoes the sleep agreement and keeps the bus awake.
/// start() attaches the node to the bus as a listener and a service; all
/// behavior happens from those two callbacks.
class NmNode {
 public:
  /// Returns true while the owning ECU is rebooting (deaf and mute).
  using OfflineFn = std::function<bool(util::SimTime now)>;

  NmNode(can::CanBus& bus, const NmConfig& config, std::uint8_t address,
         util::CounterRng jitter, OfflineFn offline = nullptr,
         bool allow_sleep = true);

  /// Attach to the bus and schedule the initial alive announcement
  /// (staggered by address plus a sub-millisecond jitter draw).
  void start();

  std::uint8_t address() const { return address_; }
  bool in_limp_home() const { return limp_; }
  bool asleep() const { return asleep_; }
  std::uint64_t members() const { return members_; }
  const NmNodeStats& stats() const { return stats_; }

  // Exposed for tests; production callers go through start().
  void service(util::SimTime now);
  void on_frame(const can::CanFrame& frame, util::SimTime ts);

 private:
  static constexpr util::SimTime kNever =
      std::numeric_limits<util::SimTime>::max();

  std::uint8_t successor() const;
  std::uint8_t lowest_member(std::uint64_t exclude_mask) const;
  bool want_sleep(util::SimTime now) const;
  void send_nm(std::uint8_t dest, std::uint8_t opcode);
  void wake(util::SimTime now);
  void rejoin(util::SimTime now);
  void reset_ring();

  can::CanBus& bus_;
  NmConfig config_;
  std::uint8_t address_;
  util::CounterRng jitter_;
  std::uint64_t jitter_events_ = 0;
  OfflineFn offline_;
  bool allow_sleep_;

  std::uint64_t members_ = 0;    ///< bit n set ⇔ address n known alive
  std::uint64_t sleep_ind_ = 0;  ///< members currently indicating sleep
  bool started_ = false;
  bool asleep_ = false;
  bool was_offline_ = false;
  bool limp_ = false;
  bool holding_ = false;       ///< we hold the ring token
  bool ring_started_ = false;  ///< any ring frame seen since (re)start
  bool sleep_armed_ = false;   ///< sleep.ack seen; countdown running
  util::SimTime alive_at_ = kNever;   ///< pending alive announcement
  util::SimTime origin_at_ = kNever;  ///< deadline to originate the token
  util::SimTime token_release_at_ = kNever;
  util::SimTime next_limp_at_ = kNever;
  util::SimTime sleep_at_ = kNever;
  util::SimTime last_ring_at_ = 0;
  util::SimTime last_app_at_ = 0;  ///< last non-NM frame on the bus
  NmNodeStats stats_;
};

/// Aggregated NM statistics for one campaign (vehicle nodes + bus).
struct NmStats {
  std::uint64_t sleeps = 0;               ///< coordinated bus sleeps
  std::uint64_t wakeups = 0;              ///< sleeping → awake transitions
  std::uint64_t frames_lost_to_sleep = 0;  ///< frames swallowed while asleep
  std::uint64_t limp_episodes = 0;
  std::uint64_t ring_repairs = 0;
  std::uint64_t nm_frames_sent = 0;
};

/// Owns the per-ECU NM nodes of one vehicle, arms the bus lifecycle, and
/// aggregates stats. The diagnostic tool is not a node: it only sends
/// wakeup frames.
class NmManager {
 public:
  NmManager(can::CanBus& bus, NmConfig config);

  /// Create and start a node. `jitter` must be a salted stream unique to
  /// this node (salt by address) so stagger draws never collide.
  NmNode& add_node(std::uint8_t address, util::CounterRng jitter,
                   NmNode::OfflineFn offline = nullptr,
                   bool allow_sleep = true);

  const std::vector<std::unique_ptr<NmNode>>& nodes() const { return nodes_; }
  NmStats stats() const;

 private:
  can::CanBus& bus_;
  NmConfig config_;
  std::vector<std::unique_ptr<NmNode>> nodes_;
};

/// Transmit a pure wakeup frame from `address`. The send itself wakes a
/// sleeping bus (see CanBus::send); receivers treat kOpWakeup as a wakeup
/// event only and never add the sender to the ring.
void send_wakeup(can::CanBus& bus, std::uint8_t address);

/// Salt base for per-node NM jitter streams: stream id is
/// kNmStreamSalt + node address (distinct from the 0x0D..0x0F server/reset
/// salt spaces and the bus-injector car salts).
constexpr std::uint64_t kNmStreamSalt = 0x1D000000ULL;

}  // namespace dpr::nm
