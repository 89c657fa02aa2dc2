#include "can/bus.hpp"

#include <algorithm>
#include <array>

namespace dpr::can {

namespace {

// 47 overhead bits for a standard frame (SOF, arbitration, control, CRC,
// ACK, EOF, IFS) + ~19% stuff-bit allowance, 8 bits per data byte, per
// DLC at kBitrateBps.
constexpr std::array<util::SimTime, 9> kFrameTimes = [] {
  std::array<util::SimTime, 9> times{};
  for (std::size_t dlc = 0; dlc < times.size(); ++dlc) {
    const double bits = (47.0 + 8.0 * static_cast<double>(dlc)) * 1.19;
    const double seconds = bits / static_cast<double>(kBitrateBps);
    times[dlc] = static_cast<util::SimTime>(seconds * 1e6);
  }
  return times;
}();

}  // namespace

util::SimTime CanBus::frame_time(const CanFrame& frame) {
  return kFrameTimes[frame.dlc()];
}

std::size_t CanBus::attach(FrameListener listener, IdFilter filter) {
  listeners_.push_back(
      Listener{filter, std::make_unique<FrameListener>(std::move(listener))});
  return listeners_.size() - 1;
}

void CanBus::send(const CanFrame& frame) {
  if (lifecycle_enabled_ && state_ == BusState::kSleeping) {
    const std::uint32_t id = frame.id().value;
    if (id >= wake_base_ && id < wake_base_ + wake_span_) {
      // A wakeup frame's transmission is itself the wakeup event: the bus
      // wakes even if the fault injector later drops the frame on the wire.
      state_ = BusState::kAwake;
      ++wakeups_;
    } else {
      // Sleeping transceivers never see the frame; it dies silently.
      ++frames_lost_to_sleep_;
      return;
    }
  }
  queue_.push_back(frame);
}

void CanBus::enable_lifecycle(std::uint32_t wake_base,
                              std::uint32_t wake_span) {
  lifecycle_enabled_ = true;
  wake_base_ = wake_base;
  wake_span_ = wake_span;
}

void CanBus::sleep() {
  if (!lifecycle_enabled_ || state_ == BusState::kSleeping) return;
  state_ = BusState::kSleeping;
  ++sleeps_;
}

std::size_t CanBus::add_service(BusService service) {
  services_.push_back(std::move(service));
  return services_.size() - 1;
}

void CanBus::run_services() {
  const util::SimTime now = clock_.now();
  for (const auto& service : services_) service(now);
}

void CanBus::set_faults(const util::FaultPlan& plan, util::CounterRng stream) {
  injector_.emplace(plan, stream);
}

CanFrame CanBus::pop_winner() {
  // Strict `<` keeps the earliest-sent frame among equal ids, so pop order
  // is the (id, send order) total order. Callers guarantee queued() > 0.
  std::size_t best = 0;
  for (std::size_t i = 1; i < queue_.size(); ++i) {
    if (queue_[i].id().value < queue_[best].id().value) best = i;
  }
  const CanFrame winner = queue_[best];
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best));
  return winner;
}

void CanBus::dispatch(const CanFrame& frame, util::SimTime ts) {
  // Walk by index up to the count at entry: a callback may attach (and
  // grow listeners_), and the new listener first hears the next frame.
  const std::uint32_t id = frame.id().value;
  const std::size_t count = listeners_.size();
  for (std::size_t i = 0; i < count; ++i) {
    if (listeners_[i].filter.matches(id)) (*listeners_[i].fn)(frame, ts);
  }
}

void CanBus::deliver_copy(const CanFrame& frame, std::size_t& delivered) {
  clock_.advance(frame_time(frame));
  dispatch(frame, clock_.now());
  ++delivered;
}

std::size_t CanBus::deliver_some(std::size_t max_frames) {
  if (max_frames == 0) return 0;
  std::size_t delivered = 0;
  if (pending_copy_) {
    // Carried-over duplicate copy: on the wire it directly followed its
    // sibling, so it leaves before anything else — ahead of the sleep
    // purge too, matching the pre-budget-fix path where both copies went
    // out back to back.
    const CanFrame copy = *pending_copy_;
    pending_copy_.reset();
    deliver_copy(copy, delivered);
  }
  // A bus that fell asleep after frames were queued (the NM countdown ran
  // out inside the same delivery window) carries no traffic: the queued
  // frames die exactly like frames sent while sleeping. Without this, a
  // request could reach a server whose response then dies against the
  // sleeping bus, wedging the server's transport mid-transfer.
  if (lifecycle_enabled_ && state_ == BusState::kSleeping && !queue_.empty()) {
    frames_lost_to_sleep_ += queue_.size();
    queue_.clear();
    return delivered;
  }
  const bool faulted = injector_ && injector_->enabled();
  while (delivered < max_frames && !queue_.empty()) {
    CanFrame frame = pop_winner();
    std::size_t copies = 1;
    if (faulted) {
      const auto decision = injector_->decide(clock_.now());
      if (decision.drop) {
        // The frame still occupied the wire before being lost.
        clock_.advance(frame_time(frame));
        continue;
      }
      if (decision.extra_delay > 0) clock_.advance(decision.extra_delay);
      if (decision.corrupt && frame.dlc() > 0) {
        const std::uint32_t bit =
            decision.corrupt_bit % (8u * frame.dlc());
        std::array<std::uint8_t, 8> data{};
        std::copy(frame.data().begin(), frame.data().end(), data.begin());
        data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        frame = CanFrame(frame.id(), {data.data(), frame.dlc()});
      }
      if (decision.duplicate) copies = 2;
    }
    for (std::size_t c = 0; c < copies; ++c) {
      if (delivered >= max_frames) {
        // Budget exhausted mid-duplicate: carry the second copy over to
        // the next call instead of overshooting the contract.
        pending_copy_ = frame;
        break;
      }
      deliver_copy(frame, delivered);
    }
  }
  return delivered;
}

std::size_t CanBus::deliver_pending() {
  // NM nodes and other periodic services get a chance to act (pass the
  // token, time out into limp-home, agree to sleep) before frames drain.
  if (!services_.empty()) run_services();
  std::size_t total = 0;
  // Listeners may enqueue responses while we deliver; keep draining.
  while (!queue_.empty() || pending_copy_) {
    total += deliver_some(queue_.size() + (pending_copy_ ? 1 : 0));
  }
  return total;
}

}  // namespace dpr::can
