#include "can/bus.hpp"

#include <algorithm>
#include <array>
#include <bit>

namespace dpr::can {

CanBus::CanBus(util::SimClock& clock, std::uint32_t bitrate_bps)
    : clock_(clock) {
  // 47 overhead bits for a standard frame (SOF, arbitration, control, CRC,
  // ACK, EOF, IFS) + ~19% stuff-bit allowance, 8 bits per data byte.
  // Precomputed per DLC — the per-frame double math was measurable on the
  // delivery hot path.
  for (std::size_t dlc = 0; dlc < frame_times_.size(); ++dlc) {
    const double bits = (47.0 + 8.0 * static_cast<double>(dlc)) * 1.19;
    const double seconds = bits / static_cast<double>(bitrate_bps);
    frame_times_[dlc] = static_cast<util::SimTime>(seconds * 1e6);
  }
}

std::size_t CanBus::attach(FrameListener listener, IdFilter filter) {
  listeners_.push_back(Listener{std::move(listener), filter});
  return listeners_.size() - 1;
}

void CanBus::extend_index() {
  const auto n = static_cast<std::uint32_t>(listeners_.size());
  // Appending to the per-id buckets keeps them interleaved in attach
  // order for free: listener indices only ever ascend. The buckets are
  // materialized the first time a standard-range filter appears; until
  // then every indexed listener is match-all or wide-only, so each
  // bucket would be exactly match_all_ — which is what dispatch uses
  // while buckets_ is empty, and what materialization seeds from.
  if (buckets_.empty()) {
    bool std_filters = false;
    for (std::uint32_t i = indexed_count_; i < n && !std_filters; ++i) {
      const IdFilter filter = listeners_[i].filter;
      std_filters = !filter.match_all() && filter.base < kNumBuckets;
    }
    if (std_filters) {
      buckets_.assign(kNumBuckets, match_all_);
    }
  }
  for (std::uint32_t i = indexed_count_; i < n; ++i) {
    const IdFilter filter = listeners_[i].filter;
    if (filter.match_all()) {
      match_all_.push_back(i);
      for (auto& bucket : buckets_) bucket.push_back(i);
      continue;
    }
    // Saturating end of the filtered range; the part beyond the
    // standard-id buckets (29-bit ids) is matched by scanning wide_.
    std::uint32_t end = filter.base + filter.span;
    if (end < filter.base) end = 0xFFFFFFFFu;
    if (end > kNumBuckets) wide_.push_back(i);
    if (!buckets_.empty() && filter.base < kNumBuckets) {
      const std::uint32_t stop = end < kNumBuckets ? end : kNumBuckets;
      for (std::uint32_t id = filter.base; id < stop; ++id) {
        buckets_[id].push_back(i);
      }
    }
  }
  indexed_count_ = n;
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
  fast_insert(Queued{frame.id().value, next_seq_++, frame});
}

std::int32_t CanBus::ring_of(std::uint32_t id) const {
  if (id < kNumBuckets) {
    return std_ring_index_.empty() ? -1 : std_ring_index_[id];
  }
  for (const auto& [ext_id, ring] : ext_ring_index_) {
    if (ext_id == id) return ring;
  }
  return -1;
}

void CanBus::map_ring(std::uint32_t id, std::uint32_t ring) {
  if (id < kNumBuckets) {
    if (std_ring_index_.empty()) std_ring_index_.resize(kNumBuckets, -1);
    std_ring_index_[id] = static_cast<std::int32_t>(ring);
  } else {
    ext_ring_index_.emplace_back(id, static_cast<std::int32_t>(ring));
  }
}

void CanBus::unmap_ring(std::uint32_t id) {
  if (id < kNumBuckets) {
    std_ring_index_[id] = -1;
    return;
  }
  for (auto& entry : ext_ring_index_) {
    if (entry.first == id) {
      entry = ext_ring_index_.back();
      ext_ring_index_.pop_back();
      return;
    }
  }
}

void CanBus::fast_insert(Queued&& item) {
  const std::uint32_t id = item.id;
  std::int32_t ring = ring_of(id);
  if (ring < 0) {
    // First frame of this id in arbitration: claim a ring and publish
    // the id to the arbitration structure — a bit set for standard ids,
    // a side-list append for extended ones. All O(1).
    if (free_rings_.empty()) {
      rings_.emplace_back();
      free_rings_.push_back(static_cast<std::uint32_t>(rings_.size() - 1));
    }
    ring = static_cast<std::int32_t>(free_rings_.back());
    free_rings_.pop_back();
    map_ring(id, static_cast<std::uint32_t>(ring));
    if (id < kNumBuckets) {
      arb_bits_[id >> 6] |= 1ULL << (id & 63);
      arb_summary_ |= 1u << (id >> 6);
    } else {
      ext_arb_.push_back(ArbEntry{id, static_cast<std::uint32_t>(ring)});
    }
  }
  Ring& r = rings_[static_cast<std::size_t>(ring)];
  if (r.head >= 16 && r.head * 2 >= r.items.size()) {
    // A long-lived ring (its id never fully drains) would otherwise grow
    // without bound as the consumed prefix advances; compacting when at
    // least half the vector is dead keeps appends amortized O(1).
    r.items.erase(r.items.begin(),
                  r.items.begin() + static_cast<std::ptrdiff_t>(r.head));
    r.head = 0;
  }
  r.items.push_back(std::move(item));
  ++fast_count_;
}

void CanBus::clear_arbitration() {
  while (arb_summary_ != 0) {
    const unsigned g = static_cast<unsigned>(std::countr_zero(arb_summary_));
    while (arb_bits_[g] != 0) {
      const unsigned b =
          static_cast<unsigned>(std::countr_zero(arb_bits_[g]));
      const std::uint32_t id = (g << 6) | b;
      const std::int32_t ring = std_ring_index_[id];
      rings_[static_cast<std::size_t>(ring)].items.clear();
      rings_[static_cast<std::size_t>(ring)].head = 0;
      free_rings_.push_back(static_cast<std::uint32_t>(ring));
      std_ring_index_[id] = -1;
      arb_bits_[g] &= arb_bits_[g] - 1;
    }
    arb_summary_ &= arb_summary_ - 1;
  }
  for (const auto& entry : ext_arb_) {
    rings_[entry.ring].items.clear();
    rings_[entry.ring].head = 0;
    free_rings_.push_back(entry.ring);
  }
  ext_arb_.clear();
  ext_ring_index_.clear();
  fast_count_ = 0;
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

CanBus::Queued CanBus::pop_winner() {
  // The arbitration winner is the lowest queued id; its ring head is the
  // oldest frame of that id. Standard ids resolve with two countr_zero
  // instructions; the extended side list only arbitrates when no
  // standard id is queued (every 29-bit id value exceeds every 11-bit
  // one). Callers guarantee queued() > 0.
  if (arb_summary_ != 0) {
    const unsigned g = static_cast<unsigned>(std::countr_zero(arb_summary_));
    const unsigned b = static_cast<unsigned>(std::countr_zero(arb_bits_[g]));
    const std::uint32_t id = (g << 6) | b;
    const std::int32_t ring_index = std_ring_index_[id];
    Ring& ring = rings_[static_cast<std::size_t>(ring_index)];
    Queued item = std::move(ring.items[ring.head++]);
    --fast_count_;
    if (ring.head == ring.items.size()) {
      ring.items.clear();
      ring.head = 0;
      free_rings_.push_back(static_cast<std::uint32_t>(ring_index));
      std_ring_index_[id] = -1;
      arb_bits_[g] &= arb_bits_[g] - 1;
      if (arb_bits_[g] == 0) arb_summary_ &= ~(1u << g);
    }
    return item;
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < ext_arb_.size(); ++i) {
    if (ext_arb_[i].id < ext_arb_[best].id) best = i;
  }
  const ArbEntry top = ext_arb_[best];
  Ring& ring = rings_[top.ring];
  Queued item = std::move(ring.items[ring.head++]);
  --fast_count_;
  if (ring.head == ring.items.size()) {
    ring.items.clear();
    ring.head = 0;
    free_rings_.push_back(top.ring);
    unmap_ring(top.id);
    ext_arb_[best] = ext_arb_.back();
    ext_arb_.pop_back();
  }
  return item;
}

void CanBus::dispatch(const CanFrame& frame, util::SimTime ts) {
  if (indexed_count_ != listeners_.size()) extend_index();
  const std::uint32_t id = frame.id().value;
  if (id < kNumBuckets) {
    // The pre-merged receiver list: one flat walk, already in attach
    // order, no per-frame merge work.
    const auto& list = buckets_.empty() ? match_all_ : buckets_[id];
    for (const std::uint32_t index : list) listeners_[index].fn(frame, ts);
    return;
  }
  // Extended id: merge the (ascending) wide and match-all index lists so
  // listeners still fire in attach order; wide_ holds mixed filters, so
  // each entry is matched individually.
  std::size_t i = 0;
  std::size_t j = 0;
  while (true) {
    while (i < wide_.size() && !listeners_[wide_[i]].filter.matches(id)) {
      ++i;
    }
    const bool has_w = i < wide_.size();
    const bool has_m = j < match_all_.size();
    if (!has_w && !has_m) break;
    std::uint32_t index;
    if (has_w && (!has_m || wide_[i] < match_all_[j])) {
      index = wide_[i];
      ++i;
    } else {
      index = match_all_[j];
      ++j;
    }
    listeners_[index].fn(frame, ts);
  }
}

void CanBus::deliver_copy(const CanFrame& frame, std::size_t& delivered) {
  clock_.advance(frame_time(frame));
  dispatch(frame, clock_.now());
  ++delivered;
  ++frames_delivered_;
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
  if (lifecycle_enabled_ && state_ == BusState::kSleeping && queued() > 0) {
    frames_lost_to_sleep_ += queued();
    clear_arbitration();
    return delivered;
  }
  const bool faulted = injector_ && injector_->enabled();
  while (delivered < max_frames && queued() > 0) {
    if (faulted) {
      // Pre-compute a full window of fault draws in one SIMD-batched pass
      // (no-op while the window still covers the cursor). Legal because
      // unit n's draws are pure in (stream, n) — see
      // FaultInjector::decide_batch — so units drawn ahead of frames not
      // yet queued are the draws those frames would make. A window sized
      // by queued() would refill every frame or two: the queue usually
      // holds one request or response.
      injector_->prefetch(util::FaultInjector::kPrefetchMax);
    }
    Queued item = pop_winner();
    CanFrame frame = std::move(item.frame);
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
  while (queued() > 0 || pending_copy_) {
    total += deliver_some(queued() + (pending_copy_ ? 1 : 0));
  }
  return total;
}

}  // namespace dpr::can
