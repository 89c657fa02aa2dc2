#include "util/ecu_session.hpp"

#include "util/transact.hpp"

namespace dpr::util {

void EcuSession::enable_faults(const FaultProfile& profile, Rng rng) {
  faults_ = profile;
  fault_rng_ = rng;
}

void EcuSession::enable_s3(const SimClock& clock) {
  clock_ = &clock;
  s3_armed_ = true;
  last_activity_ = clock.now();
}

void EcuSession::enable_resets(double reset_rate, const SimClock& clock,
                               CounterRng stream) {
  if (reset_rate <= 0.0) return;  // zero rate: stay draw-free
  clock_ = &clock;
  reset_rate_ = reset_rate;
  reset_stream_ = stream;
}

bool EcuSession::admit(std::uint8_t sid, std::vector<Bytes>& responses) {
  if (reset_rate_ > 0.0) {
    // A rebooting ECU is bus-silent: the request is swallowed without a
    // draw while the boot window runs.
    const SimTime now = clock_->now();
    if (now < silent_until_) return false;
    if (reset_stream_.at(reset_events_++).chance(reset_rate_)) {
      level_ = kDefaultSession;
      silent_until_ = now + kResetBootTime;
      ++resets_;
      return false;
    }
  }
  if (!faults_.enabled()) return true;
  if (faults_.busy_rate > 0.0 && fault_rng_.chance(faults_.busy_rate)) {
    // Busy ECUs refuse without processing; the tester must resend.
    responses.push_back({kNegativeResponse, sid, kNrcBusyRepeatRequest});
    return false;
  }
  if (faults_.pending_rate > 0.0 && fault_rng_.chance(faults_.pending_rate)) {
    const auto n = fault_rng_.uniform_int(1, kMaxPending);
    for (std::int64_t i = 0; i < n; ++i) {
      responses.push_back({kNegativeResponse, sid, kNrcResponsePending});
    }
  }
  return true;
}

void EcuSession::on_request() {
  if (!s3_armed_) return;
  const SimTime now = clock_->now();
  if (in_session() && now - last_activity_ > kS3Timeout) {
    level_ = kDefaultSession;
    ++s3_expiries_;
  }
  last_activity_ = now;
}

}  // namespace dpr::util
