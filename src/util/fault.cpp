#include "util/fault.hpp"

#include <algorithm>

namespace dpr::util {

namespace {

// Salt constant for counter-based fault streams. Deliberately distinct from
// the 0x...E019 constant inside rng_for(): bumping it when the injector
// migrated from sequential to per-unit counter draws makes the stream-format
// break explicit — old and new builds never silently share a stream.
constexpr std::uint64_t kFaultStreamSaltV2 = 0x632BE59BD9B4E01BULL;

}  // namespace

FaultPlan FaultPlan::scaled(double rate) {
  rate = std::clamp(rate, 0.0, 1.0);
  FaultPlan plan;
  plan.drop_rate = rate;
  plan.corrupt_rate = rate * 0.5;
  plan.duplicate_rate = rate * 0.25;
  plan.jitter_rate = std::min(1.0, rate * 2.0);
  plan.burst_rate = rate * 0.02;
  return plan;
}

FaultStats& FaultStats::operator+=(const FaultStats& other) {
  delivered += other.delivered;
  dropped += other.dropped;
  corrupted += other.corrupted;
  duplicated += other.duplicated;
  jittered += other.jittered;
  bursts += other.bursts;
  return *this;
}

FaultInjector::Decision FaultInjector::decide_unit(std::uint64_t unit,
                                                   SimTime now) {
  Decision decision;
  if (!plan_.enabled()) {
    ++stats_.delivered;
    return decision;  // no draws: fault-free runs stay bit-identical
  }
  // Units inside an active burst window are swallowed without consulting
  // the stream; with counter draws that is a non-event anyway (event `unit`
  // simply goes unread), but it keeps the swallow path branch-cheap.
  if (now < burst_until_) {
    decision.drop = true;
    ++stats_.dropped;
    return decision;
  }
  // All of unit n's draws come from event n, in a fixed intra-event order
  // (burst, drop, corrupt + corrupt_bit, duplicate, jitter + delay).
  // Conditional draws advance only this event's index, so they can never
  // shift another unit's fate; a rate of zero draws nothing.
  CounterRng draws = stream_.at(unit);
  if (plan_.burst_rate > 0.0 && draws.chance(plan_.burst_rate)) {
    burst_until_ = now + plan_.burst_duration;
    ++stats_.bursts;
    decision.drop = true;
    ++stats_.dropped;
    return decision;
  }
  if (plan_.drop_rate > 0.0 && draws.chance(plan_.drop_rate)) {
    decision.drop = true;
    ++stats_.dropped;
    return decision;
  }
  if (plan_.corrupt_rate > 0.0 && draws.chance(plan_.corrupt_rate)) {
    decision.corrupt = true;
    decision.corrupt_bit = static_cast<std::uint32_t>(draws.uniform_int(0, 63));
    ++stats_.corrupted;
  }
  if (plan_.duplicate_rate > 0.0 && draws.chance(plan_.duplicate_rate)) {
    decision.duplicate = true;
    ++stats_.duplicated;
  }
  if (plan_.jitter_rate > 0.0 && draws.chance(plan_.jitter_rate)) {
    decision.extra_delay = draws.uniform_int(0, plan_.max_jitter);
    ++stats_.jittered;
  }
  ++stats_.delivered;
  return decision;
}

double FaultConfig::server_pending_rate() const {
  return std::min(1.0, rate * 4.0);
}

double FaultConfig::server_busy_rate() const {
  return std::min(1.0, rate * 2.0);
}

Rng FaultConfig::rng_for(std::uint64_t salt) const {
  // SplitMix-style mix keeps nearby salts (car 0, car 1, ...) decorrelated.
  std::uint64_t mixed = fault_seed ^ (salt * 0x9E3779B97F4A7C15ULL +
                                      0x632BE59BD9B4E019ULL);
  return Rng(mixed);
}

CounterRng FaultConfig::stream_for(std::uint64_t stream_id) const {
  return CounterRng(fault_seed ^ kFaultStreamSaltV2, stream_id);
}

}  // namespace dpr::util
