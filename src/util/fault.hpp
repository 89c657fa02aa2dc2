#pragma once
// Deterministic fault injection for the simulated buses.
//
// The paper's pipeline runs against a hostile physical world: lossy CAN
// wiring, ECUs that stall with `responsePending`, bursts of bus-off time.
// FaultPlan describes a fault mix; FaultInjector turns it into one
// delivery decision per unit (a CAN frame, drawn by the bus as the frame
// wins arbitration) from a counter-based util::CounterRng stream: unit n's
// draws come from event n of the stream, so the fate of a unit is a pure
// function of (seed, stream, unit ordinal) and dropping or reordering one
// unit can never shift the draws of another. Every campaign owns its own
// bus and injector, and any (seed, fault-rate) pair replays bit-identically
// at any thread count — or under random-access replay via decide_unit(). A
// disabled plan performs no RNG draws at all, which keeps fault-free runs
// bit-identical to a build without the injector.
//
// Stream-format note: migrating from sequential xoshiro draws to per-unit
// counter events (and bumping the fault-stream salt) was a one-time break
// in the fault stream format — fault sequences differ from pre-counter
// builds for the same seed, but are deterministic within this format.

#include <cstdint>

#include "util/clock.hpp"
#include "util/counter_rng.hpp"
#include "util/rng.hpp"

namespace dpr::util {

/// Per-delivery fault probabilities and magnitudes. All rates are in [0, 1]
/// and evaluated per delivered CAN frame.
struct FaultPlan {
  double drop_rate = 0.0;       ///< unit vanishes from the wire
  double corrupt_rate = 0.0;    ///< one payload bit is flipped
  double duplicate_rate = 0.0;  ///< unit is delivered twice
  double jitter_rate = 0.0;     ///< extra delivery latency is inserted
  SimTime max_jitter = 5 * kMillisecond;  ///< upper bound for jitter delay
  double burst_rate = 0.0;      ///< a bus-off burst starts at this unit
  SimTime burst_duration = 20 * kMillisecond;  ///< burst outage length

  bool enabled() const {
    return drop_rate > 0.0 || corrupt_rate > 0.0 || duplicate_rate > 0.0 ||
           jitter_rate > 0.0 || burst_rate > 0.0;
  }

  /// Map the single CLI knob `--fault-rate r` onto the full taxonomy:
  /// drops dominate, corruption/duplication follow at fixed fractions,
  /// jitter is common but harmless, bursts are rare and long.
  static FaultPlan scaled(double rate);
};

/// Counters accumulated by a FaultInjector; deterministic per (plan, seed).
struct FaultStats {
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;    ///< includes units swallowed by bursts
  std::uint64_t corrupted = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t jittered = 0;
  std::uint64_t bursts = 0;

  FaultStats& operator+=(const FaultStats& other);
};

/// Draws one fault decision per delivered unit. Unit n's draws all come
/// from event n of the counter stream in a fixed order (burst start, drop,
/// corrupt + corrupt_bit, duplicate, jitter), so decisions are random-access
/// reproducible: decide_unit(n, t) returns the same fate no matter which
/// units were decided before it. Only the burst *window* (`burst_until_`)
/// is stateful — whether a unit is swallowed depends on sim time, but
/// swallowed units consume no draws, so they cannot shift anything.
class FaultInjector {
 public:
  struct Decision {
    bool drop = false;
    bool corrupt = false;
    bool duplicate = false;
    SimTime extra_delay = 0;
    std::uint32_t corrupt_bit = 0;  ///< caller reduces modulo payload bits
  };

  FaultInjector(FaultPlan plan, CounterRng stream)
      : plan_(plan), stream_(stream) {}

  bool enabled() const { return plan_.enabled(); }

  /// Decide the fate of the next unit in wire-delivery order at sim time
  /// `now`: decide_unit(next unit ordinal, now).
  Decision decide(SimTime now) { return decide_unit(next_unit_++, now); }

  /// Decide the fate of unit `unit` (its ordinal on this wire) delivered
  /// at sim time `now`. Pure in the random draws; advances stats and the
  /// burst window.
  Decision decide_unit(std::uint64_t unit, SimTime now);

  const FaultStats& stats() const { return stats_; }

 private:
  FaultPlan plan_;
  CounterRng stream_;
  FaultStats stats_;
  std::uint64_t next_unit_ = 0;  ///< ordinal used by sequential decide()
  SimTime burst_until_ = -1;  ///< exclusive end of the active burst window
};

/// Campaign-level fault configuration: one rate knob plus an independent
/// seed. Derives the bus plan and the server-side NRC fault rates so a
/// single `--fault-rate` exercises every layer of the retry stack.
///
/// The *stateful* knobs model failures that survive a retry: ECU reboots
/// (`reset_rate`: per-request chance that the ECU drops its session and
/// goes bus-silent for util::kResetBootTime) and S3 session timers
/// (`session_faults`: non-default sessions expire after util::kS3Timeout
/// of inactivity).
/// Either one turns on the diagtool session supervisor. All stateful
/// draws use their own salted streams, and a config with every stateful
/// knob at its default performs zero extra RNG draws — clean runs stay
/// bit-identical to a build without the machinery.
struct FaultConfig {
  double rate = 0.0;
  std::uint64_t fault_seed = 0xFA017D0DULL;

  double reset_rate = 0.0;  ///< per-request ECU reboot probability
  bool session_faults = false;  ///< arm S3 expiry

  /// OSEK/VDX network management: every ECU runs an NM ring node, the bus
  /// gains a sleep/wakeup lifecycle, and the campaign's tool must keep the
  /// bus awake (dpr::nm). Off by default; when off, no NM node is built,
  /// the bus lifecycle stays disabled, and no NM stream draws happen, so
  /// NM-off runs stay bit-identical to a build without the module.
  bool nm = false;
  /// Quiet-bus window after which the ring agrees to sleep (NM armed only).
  SimTime nm_sleep_timeout = 3 * kSecond;
  /// NM veto holdout: the ring node at this 1-based ECU address joins the
  /// ring but never acks a sleep request, so the bus can never complete
  /// the two-phase sleep agreement. 0 (default) = no holdout. Part of the
  /// checkpoint options digest, like every FaultConfig field.
  std::uint8_t nm_veto_address = 0;

  /// Stateful failures armed (ECU resets and/or session timers)?
  bool stateful() const { return reset_rate > 0.0 || session_faults; }

  bool enabled() const { return rate > 0.0 || stateful(); }

  FaultPlan bus_plan() const { return FaultPlan::scaled(rate); }

  /// Probability that a server prepends 0x78 responsePending message(s).
  double server_pending_rate() const;
  /// Probability that a server answers 0x21 busyRepeatRequest instead.
  double server_busy_rate() const;

  /// Independent sequential child stream for one component. `salt` must be
  /// stable across runs (car index, request id) — never an address. Still
  /// used where draws are inherently ordered (server NRC envelopes).
  Rng rng_for(std::uint64_t salt) const;

  /// Independent counter-based stream for one component — the random-access
  /// sibling of rng_for(), used by fault injectors and ECU reset draws.
  /// Uses a distinct salt constant so counter streams never collide with a
  /// sequential stream derived from the same id.
  CounterRng stream_for(std::uint64_t stream_id) const;
};

}  // namespace dpr::util
