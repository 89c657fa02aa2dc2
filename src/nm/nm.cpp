#include "nm/nm.hpp"

#include <bit>

namespace dpr::nm {

namespace {

// OSEK ring timers.
constexpr util::SimTime kRingTyp = 40 * util::kMillisecond;  // token hold
constexpr util::SimTime kRingMax = 260 * util::kMillisecond;  // → limp-home
constexpr util::SimTime kLimpPeriod = 100 * util::kMillisecond;  // re-announce

}  // namespace

NmNode::NmNode(can::CanBus& bus, const NmConfig& config, std::uint8_t address,
               util::CounterRng jitter, OfflineFn offline, bool allow_sleep)
    : bus_(bus),
      config_(config),
      address_(address),
      jitter_(jitter),
      offline_(std::move(offline)),
      allow_sleep_(allow_sleep) {}

void NmNode::start() {
  if (started_) return;
  started_ = true;
  const util::SimTime now = bus_.clock().now();
  members_ = 1ull << address_;
  last_app_at_ = now;
  last_ring_at_ = now;
  // Alive announcements stagger by address (arbitration already orders NM
  // ids by address, but the stagger keeps startup traffic from one burst)
  // plus a sub-millisecond jitter draw from this node's counter stream.
  alive_at_ = now + address_ * util::kMillisecond +
              static_cast<util::SimTime>(jitter_.at(jitter_events_++)() %
                                         util::kMillisecond);
  // Deliberately match-all, NOT a filter on the NM id range: on_frame
  // treats every non-NM frame as application traffic that resets the
  // sleep countdown (last_app_at_ / sleep intent). A narrow filter would
  // blind the node to app activity and make the ring sleep under load.
  bus_.attach(
      [this](const can::CanFrame& frame, util::SimTime ts) {
        on_frame(frame, ts);
      },
      can::IdFilter::all());
  bus_.add_service([this](util::SimTime now) { service(now); });
}

std::uint8_t NmNode::successor() const {
  // Smallest member address strictly greater than ours; wraps to the
  // lowest member (possibly ourselves when we are the sole member).
  const std::uint64_t higher =
      address_ >= 63 ? 0 : members_ & ~((2ull << address_) - 1);
  const std::uint64_t pool = higher ? higher : members_;
  return static_cast<std::uint8_t>(std::countr_zero(pool));
}

std::uint8_t NmNode::lowest_member(std::uint64_t exclude_mask) const {
  const std::uint64_t pool = members_ & ~exclude_mask;
  if (pool == 0) return address_;
  return static_cast<std::uint8_t>(std::countr_zero(pool));
}

bool NmNode::want_sleep(util::SimTime now) const {
  return allow_sleep_ && !limp_ &&
         now - last_app_at_ >= config_.sleep_timeout;
}

void NmNode::send_nm(std::uint8_t dest, std::uint8_t opcode) {
  bus_.send(can::CanFrame(kNmBaseId + address_, {dest, opcode}));
}

void NmNode::reset_ring() {
  holding_ = false;
  ring_started_ = false;
  sleep_armed_ = false;
  sleep_ind_ = 0;
  limp_ = false;
  alive_at_ = kNever;
  origin_at_ = kNever;
  token_release_at_ = kNever;
  next_limp_at_ = kNever;
  sleep_at_ = kNever;
}

void NmNode::wake(util::SimTime now) {
  asleep_ = false;
  reset_ring();
  members_ = 1ull << address_;
  last_app_at_ = now;
  last_ring_at_ = now;
  alive_at_ = now + address_ * util::kMillisecond +
              static_cast<util::SimTime>(jitter_.at(jitter_events_++)() %
                                         util::kMillisecond);
}

void NmNode::rejoin(util::SimTime now) {
  // Back from a reboot: state is factory-fresh; announce immediately so
  // the limp-home survivors can splice us back in and repair the ring.
  reset_ring();
  members_ = 1ull << address_;
  last_app_at_ = now;
  last_ring_at_ = now;
  alive_at_ = now;
}

void NmNode::service(util::SimTime now) {
  if (bus_.asleep()) {
    if (!asleep_) {
      asleep_ = true;
      reset_ring();
    }
    return;
  }
  if (asleep_) wake(now);
  if (offline_ && offline_(now)) {
    if (!was_offline_) {
      was_offline_ = true;
      reset_ring();
    }
    return;
  }
  if (was_offline_) {
    was_offline_ = false;
    rejoin(now);
  }

  if (alive_at_ != kNever && now >= alive_at_) {
    alive_at_ = kNever;
    send_nm(successor(), kOpAlive);
    ++stats_.alive_sent;
    // If nobody starts the token within kRingMax, the lowest member does.
    origin_at_ = now + kRingMax;
  }
  if (origin_at_ != kNever && now >= origin_at_) {
    origin_at_ = kNever;
    if (!ring_started_ && lowest_member(0) == address_) {
      send_nm(successor(),
              static_cast<std::uint8_t>(
                  kOpRing | (want_sleep(now) ? kOpSleepInd : 0)));
      ++stats_.ring_sent;
    }
  }
  if (holding_ && now >= token_release_at_) {
    holding_ = false;
    token_release_at_ = kNever;
    send_nm(successor(),
            static_cast<std::uint8_t>(
                kOpRing | (want_sleep(now) ? kOpSleepInd : 0)));
    ++stats_.ring_sent;
  }
  if (ring_started_ && !limp_ && now - last_ring_at_ > kRingMax) {
    // The token holder vanished: limp-home until the ring is repaired.
    limp_ = true;
    holding_ = false;
    token_release_at_ = kNever;
    ++stats_.limp_episodes;
    next_limp_at_ = now;
  }
  if (limp_ && now >= next_limp_at_) {
    next_limp_at_ = now + kLimpPeriod;
    send_nm(address_, kOpLimp);
    ++stats_.limp_sent;
  }
  if (want_sleep(now)) {
    sleep_ind_ |= 1ull << address_;
    if (!sleep_armed_ && (sleep_ind_ & members_) == members_) {
      // Every ring member indicated sleep: acknowledge and start the
      // countdown. Several nodes may ack in the same tick; arming is
      // idempotent on both the send and the receive side.
      sleep_armed_ = true;
      sleep_at_ = now + config_.sleep_countdown;
      send_nm(address_, kOpSleepAck);
      ++stats_.acks_sent;
    }
  } else {
    sleep_ind_ &= ~(1ull << address_);
  }
  if (sleep_armed_ && now >= sleep_at_) {
    bus_.sleep();
    asleep_ = true;
    reset_ring();
  }
}

void NmNode::on_frame(const can::CanFrame& frame, util::SimTime ts) {
  const std::uint32_t id = frame.id().value;
  const bool is_nm = id >= kNmBaseId && id < kNmBaseId + kNmIdSpan;
  if (!is_nm) {
    // Application traffic: the bus is in use, so cancel any sleep intent.
    last_app_at_ = ts;
    sleep_ind_ = 0;
    sleep_armed_ = false;
    sleep_at_ = kNever;
    return;
  }
  if (asleep_) wake(ts);  // any NM frame on a woken bus restarts us
  if (offline_ && offline_(ts)) return;  // rebooting ⇒ deaf
  if (frame.dlc() < 2) return;
  const auto sender = static_cast<std::uint8_t>(id - kNmBaseId);
  const std::uint8_t dest = frame.byte(0);
  const std::uint8_t opcode = frame.byte(1);

  if (opcode & kOpWakeup) {
    // A wakeup announces that somebody (the tester) needs the bus: besides
    // waking a sleeping node (above), it restarts the quiet-bus timer so
    // the ring does not re-arm sleep for another sleep_timeout. The sender
    // is never enrolled as a ring member.
    last_app_at_ = ts;
    sleep_ind_ = 0;
    sleep_armed_ = false;
    sleep_at_ = kNever;
    return;
  }

  if (opcode & (kOpAlive | kOpRing | kOpLimp)) {
    members_ |= 1ull << sender;
    if (opcode & kOpSleepInd) {
      sleep_ind_ |= 1ull << sender;
    } else {
      sleep_ind_ &= ~(1ull << sender);
    }
  }
  if (opcode & kOpRing) {
    last_ring_at_ = ts;
    ring_started_ = true;
    origin_at_ = kNever;
    if (limp_) {
      limp_ = false;
      next_limp_at_ = kNever;
      ++stats_.ring_repairs;
    }
    if (dest == address_ && (sender != address_ || successor() == address_)) {
      // Token received (a sole member keeps passing to itself). A duplicate
      // token (two repairs raced) merges here: we are already holding, so
      // only one pass leaves.
      holding_ = true;
      token_release_at_ = ts + kRingTyp;
    }
  }
  if ((opcode & kOpAlive) && limp_ && sender != address_) {
    // A vanished member is back. The lowest surviving member (everyone
    // computes the same one from the shared members_ view) re-originates
    // the token deterministically.
    if (lowest_member(1ull << sender) == address_) {
      send_nm(successor(), kOpRing);
      ++stats_.ring_sent;
    }
  }
  if ((opcode & kOpSleepAck) && allow_sleep_ && !sleep_armed_) {
    sleep_armed_ = true;
    sleep_at_ = ts + config_.sleep_countdown;
  }
}

NmManager::NmManager(can::CanBus& bus, NmConfig config)
    : bus_(bus), config_(config) {
  bus_.enable_lifecycle(kNmBaseId, kNmIdSpan);
}

NmNode& NmManager::add_node(std::uint8_t address, util::CounterRng jitter,
                            NmNode::OfflineFn offline, bool allow_sleep) {
  nodes_.push_back(std::make_unique<NmNode>(
      bus_, config_, address, jitter, std::move(offline), allow_sleep));
  nodes_.back()->start();
  return *nodes_.back();
}

NmStats NmManager::stats() const {
  NmStats total;
  total.sleeps = bus_.sleeps();
  total.wakeups = bus_.wakeups();
  total.frames_lost_to_sleep = bus_.frames_lost_to_sleep();
  for (const auto& node : nodes_) {
    const NmNodeStats& s = node->stats();
    total.limp_episodes += s.limp_episodes;
    total.ring_repairs += s.ring_repairs;
    total.nm_frames_sent +=
        s.alive_sent + s.ring_sent + s.limp_sent + s.acks_sent;
  }
  return total;
}

void send_wakeup(can::CanBus& bus, std::uint8_t address) {
  bus.send(can::CanFrame(kNmBaseId + address, {0, kOpWakeup}));
}

}  // namespace dpr::nm
