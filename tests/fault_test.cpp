// Deterministic fault injection and the resilient transaction stack:
// injector determinism, per-fault bus behaviour on CAN, the ECU session's
// 0x78/0x21 envelope behind both service families, the shared client
// retry/timeout loop, the endpoint stall policy, and a faulty-campaign
// smoke run.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <thread>
#include <utility>
#include <vector>

#include "can/bus.hpp"
#include "core/campaign.hpp"
#include "isotp/endpoint.hpp"
#include "kwp/client.hpp"
#include "kwp/server.hpp"
#include "uds/server.hpp"
#include "util/ecu_session.hpp"
#include "util/fault.hpp"
#include "util/transact.hpp"

namespace dpr {
namespace {

using can::CanFrame;

can::CanId id(std::uint32_t v) { return can::CanId{v, false}; }

// --- FaultInjector --------------------------------------------------------

TEST(FaultInjector, SameSeedSamePlanReplaysBitIdentically) {
  util::FaultPlan plan = util::FaultPlan::scaled(0.2);
  util::FaultInjector a(plan, util::CounterRng(42, 0));
  util::FaultInjector b(plan, util::CounterRng(42, 0));
  for (int i = 0; i < 500; ++i) {
    const util::SimTime now = i * 100;
    const auto da = a.decide(now);
    const auto db = b.decide(now);
    EXPECT_EQ(da.drop, db.drop);
    EXPECT_EQ(da.corrupt, db.corrupt);
    EXPECT_EQ(da.duplicate, db.duplicate);
    EXPECT_EQ(da.extra_delay, db.extra_delay);
    EXPECT_EQ(da.corrupt_bit, db.corrupt_bit);
  }
  EXPECT_EQ(a.stats().dropped, b.stats().dropped);
  EXPECT_EQ(a.stats().corrupted, b.stats().corrupted);
}

TEST(FaultInjector, DisabledPlanNeverFaults) {
  util::FaultInjector injector(util::FaultPlan{}, util::CounterRng(7, 0));
  EXPECT_FALSE(injector.enabled());
  for (int i = 0; i < 100; ++i) {
    const auto d = injector.decide(i);
    EXPECT_FALSE(d.drop || d.corrupt || d.duplicate);
    EXPECT_EQ(d.extra_delay, 0);
  }
  EXPECT_EQ(injector.stats().dropped, 0u);
}

TEST(FaultInjector, BurstSwallowsAWindow) {
  util::FaultPlan plan;
  plan.burst_rate = 1.0;  // first decision starts a burst
  plan.burst_duration = 10 * util::kMillisecond;
  util::FaultInjector injector(plan, util::CounterRng(1, 0));
  EXPECT_TRUE(injector.decide(0).drop);  // burst starts and swallows
  EXPECT_TRUE(injector.decide(5 * util::kMillisecond).drop);
  EXPECT_GE(injector.stats().bursts, 1u);
  EXPECT_EQ(injector.stats().dropped, 2u);
}

// Decision equality helper for the replay tests below.
bool same_decision(const util::FaultInjector::Decision& a,
                   const util::FaultInjector::Decision& b) {
  return a.drop == b.drop && a.corrupt == b.corrupt &&
         a.duplicate == b.duplicate && a.extra_delay == b.extra_delay &&
         a.corrupt_bit == b.corrupt_bit;
}

TEST(FaultInjector, ShuffledUnitOrderReplaysSequentialDecisionsBitExactly) {
  // Unit n's fate is a pure function of (stream, n): visiting the units in
  // a shuffled order — or only a subset of them — must reproduce the same
  // per-unit decisions as wire order. Bursts are stateful in *sim time*
  // (not in the draws), so they stay off here.
  util::FaultPlan plan = util::FaultPlan::scaled(0.3);
  plan.burst_rate = 0.0;
  constexpr std::size_t kUnits = 400;
  util::FaultInjector sequential(plan, util::CounterRng(77, 1));
  std::vector<util::FaultInjector::Decision> expected(kUnits);
  for (std::size_t u = 0; u < kUnits; ++u) {
    expected[u] = sequential.decide(static_cast<util::SimTime>(u) * 100);
  }
  std::vector<std::size_t> order(kUnits);
  for (std::size_t u = 0; u < kUnits; ++u) order[u] = u;
  std::shuffle(order.begin(), order.end(), util::Rng(123));
  util::FaultInjector shuffled(plan, util::CounterRng(77, 1));
  for (const std::size_t u : order) {
    const auto d =
        shuffled.decide_unit(u, static_cast<util::SimTime>(u) * 100);
    EXPECT_TRUE(same_decision(d, expected[u])) << "unit " << u;
  }
  EXPECT_EQ(shuffled.stats().dropped, sequential.stats().dropped);
  EXPECT_EQ(shuffled.stats().corrupted, sequential.stats().corrupted);
}

TEST(FaultInjector, SkippedUnitsDoNotShiftLaterDraws) {
  // The satellite-1 fix: with sequential draws, a dropped/absent unit
  // shifted every later decision. With counter streams, deciding unit 50
  // cold gives the same bits as deciding units 0..50 in order.
  util::FaultPlan plan = util::FaultPlan::scaled(0.4);
  plan.burst_rate = 0.0;
  util::FaultInjector warm(plan, util::CounterRng(5, 2));
  util::FaultInjector::Decision via_walk;
  for (std::size_t u = 0; u <= 50; ++u) via_walk = warm.decide(0);
  util::FaultInjector cold(plan, util::CounterRng(5, 2));
  EXPECT_TRUE(same_decision(cold.decide_unit(50, 0), via_walk));
}

TEST(FaultInjector, ReplayBitIdenticalAtEveryThreadCount) {
  // Striped parallel replay: k workers each decide a disjoint stripe of
  // units through their own injector view of the same stream. The merged
  // decision table must be bit-identical at 1, 2, and 8 threads — the
  // property that lets any sub-phase of a campaign re-derive its faults
  // independently.
  util::FaultPlan plan = util::FaultPlan::scaled(0.25);
  plan.burst_rate = 0.0;
  constexpr std::size_t kUnits = 512;
  util::FaultInjector sequential(plan, util::CounterRng(99, 4));
  std::vector<util::FaultInjector::Decision> expected(kUnits);
  for (std::size_t u = 0; u < kUnits; ++u) expected[u] = sequential.decide(0);
  for (const unsigned n_threads : {1u, 2u, 8u}) {
    std::vector<util::FaultInjector::Decision> merged(kUnits);
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < n_threads; ++t) {
      workers.emplace_back([&, t] {
        util::FaultInjector injector(plan, util::CounterRng(99, 4));
        for (std::size_t u = t; u < kUnits; u += n_threads) {
          merged[u] = injector.decide_unit(u, 0);
        }
      });
    }
    for (auto& worker : workers) worker.join();
    for (std::size_t u = 0; u < kUnits; ++u) {
      EXPECT_TRUE(same_decision(merged[u], expected[u]))
          << n_threads << " threads, unit " << u;
    }
  }
}

TEST(FaultConfig, ScaledPlanTracksTheKnob) {
  EXPECT_FALSE(util::FaultConfig{}.enabled());
  util::FaultConfig config;
  config.rate = 0.01;
  EXPECT_TRUE(config.enabled());
  const auto plan = config.bus_plan();
  EXPECT_DOUBLE_EQ(plan.drop_rate, 0.01);
  EXPECT_GT(plan.corrupt_rate, 0.0);
  EXPECT_GT(config.server_pending_rate(), 0.0);
  EXPECT_GT(config.server_busy_rate(), 0.0);
  // Stable salts give reproducible, distinct child streams.
  EXPECT_EQ(config.rng_for(3)(), config.rng_for(3)());
  EXPECT_NE(config.rng_for(3)(), config.rng_for(4)());
  // Counter streams: same ids reproduce, distinct ids diverge, and the
  // counter stream never collides with the sequential one (bumped salt).
  EXPECT_EQ(config.stream_for(3)(), config.stream_for(3)());
  EXPECT_NE(config.stream_for(3)(), config.stream_for(4)());
  EXPECT_NE(config.stream_for(3)(), config.rng_for(3)());
}

// --- CAN bus faults -------------------------------------------------------

struct CaptureLog {
  std::vector<std::pair<util::SimTime, CanFrame>> frames;
};

CaptureLog run_can(const util::FaultPlan* plan, std::uint64_t seed,
                   std::size_t n_frames) {
  util::SimClock clock;
  can::CanBus bus(clock);
  CaptureLog log;
  bus.attach([&](const CanFrame& frame, util::SimTime t) {
    log.frames.emplace_back(t, frame);
  });
  if (plan != nullptr) bus.set_faults(*plan, util::CounterRng(seed, 0));
  for (std::size_t i = 0; i < n_frames; ++i) {
    bus.send(CanFrame(id(0x100 + static_cast<std::uint32_t>(i)),
                      util::Bytes{static_cast<std::uint8_t>(i), 0xAA, 0x55}));
  }
  bus.deliver_pending();
  return log;
}

TEST(CanBusFaults, ZeroRateInjectorMatchesNoInjectorBitExactly) {
  const auto clean = run_can(nullptr, 0, 32);
  const util::FaultPlan zero;  // all rates 0 -> no RNG draws
  const auto with_injector = run_can(&zero, 99, 32);
  ASSERT_EQ(clean.frames.size(), with_injector.frames.size());
  for (std::size_t i = 0; i < clean.frames.size(); ++i) {
    EXPECT_EQ(clean.frames[i].first, with_injector.frames[i].first);
    EXPECT_EQ(clean.frames[i].second, with_injector.frames[i].second);
  }
}

TEST(CanBusFaults, FullDropRateDeliversNothingButTimeAdvances) {
  util::FaultPlan plan;
  plan.drop_rate = 1.0;
  const auto log = run_can(&plan, 5, 10);
  EXPECT_TRUE(log.frames.empty());

  util::SimClock clock;
  can::CanBus bus(clock);
  bus.set_faults(plan, util::CounterRng(5, 0));
  bus.send(CanFrame(id(0x100), util::Bytes{0x01}));
  bus.deliver_pending();
  EXPECT_GT(clock.now(), 0);  // a dropped frame still occupied the wire
  ASSERT_NE(bus.fault_stats(), nullptr);
  EXPECT_EQ(bus.fault_stats()->dropped, 1u);
  EXPECT_EQ(bus.fault_stats()->delivered, 0u);
}

TEST(CanBusFaults, FullDuplicateRateDeliversEveryFrameTwice) {
  util::FaultPlan plan;
  plan.duplicate_rate = 1.0;
  const auto log = run_can(&plan, 6, 8);
  ASSERT_EQ(log.frames.size(), 16u);
  for (std::size_t i = 0; i < log.frames.size(); i += 2) {
    EXPECT_EQ(log.frames[i].second, log.frames[i + 1].second);
    EXPECT_LT(log.frames[i].first, log.frames[i + 1].first);
  }
}

TEST(CanBusFaults, FullCorruptRateFlipsExactlyOneBit) {
  util::FaultPlan plan;
  plan.corrupt_rate = 1.0;
  const auto clean = run_can(nullptr, 0, 8);
  const auto faulty = run_can(&plan, 7, 8);
  ASSERT_EQ(faulty.frames.size(), clean.frames.size());
  for (std::size_t i = 0; i < clean.frames.size(); ++i) {
    const auto& a = clean.frames[i].second;
    const auto& b = faulty.frames[i].second;
    ASSERT_EQ(a.dlc(), b.dlc());
    int flipped = 0;
    for (std::size_t k = 0; k < a.dlc(); ++k) {
      flipped += __builtin_popcount(a.byte(k) ^ b.byte(k));
    }
    EXPECT_EQ(flipped, 1) << "frame " << i;
  }
}

TEST(CanBusFaults, JitterDelaysDelivery) {
  util::FaultPlan plan;
  plan.jitter_rate = 1.0;
  const auto clean = run_can(nullptr, 0, 8);
  const auto jittered = run_can(&plan, 8, 8);
  ASSERT_EQ(jittered.frames.size(), clean.frames.size());
  EXPECT_GT(jittered.frames.back().first, clean.frames.back().first);
}

// --- Server-side NRC faults ----------------------------------------------

/// One ECU session behind both service families, wired the way EcuSim
/// wires it: the 0x21/0x78 envelope is the session's, whichever family
/// serves the request.
struct SessionRig {
  SessionRig() {
    uds.add_did(0xF40D, 1, [] { return util::Bytes{0x21}; });
    kwp.add_local_id(0x07, [] {
      return std::vector<kwp::EsvRecord>{{0x01, 0xF1, 0x10}};
    });
  }
  util::EcuSession session;
  uds::Server uds{session};
  kwp::Server kwp{session};
};

TEST(ServerFaults, PendingRateEmitsResponsePendingBeforeAnswer) {
  SessionRig rig;
  rig.session.enable_faults({.pending_rate = 1.0}, util::Rng(21));
  const auto uds = rig.uds.respond(util::from_hex("22 F4 0D"));
  const auto kwp = rig.kwp.respond(util::from_hex("21 07"));
  ASSERT_GE(uds.size(), 2u);
  ASSERT_GE(kwp.size(), 2u);
  for (std::size_t i = 0; i + 1 < uds.size(); ++i) {
    EXPECT_EQ(util::to_hex(uds[i]), "7F 22 78");
  }
  for (std::size_t i = 0; i + 1 < kwp.size(); ++i) {
    EXPECT_EQ(util::to_hex(kwp[i]), "7F 21 78");
  }
  EXPECT_EQ(util::to_hex(uds.back()), "62 F4 0D 21");
  EXPECT_EQ(util::to_hex(kwp.back()), "61 07 01 F1 10");
}

TEST(ServerFaults, BusyRefusesWithoutProcessing) {
  SessionRig rig;
  rig.session.enable_faults({.busy_rate = 1.0}, util::Rng(22));
  const auto uds = rig.uds.respond(util::from_hex("10 03"));
  const auto kwp = rig.kwp.respond(util::from_hex("10 89"));
  ASSERT_EQ(uds.size(), 1u);
  ASSERT_EQ(kwp.size(), 1u);
  EXPECT_EQ(util::to_hex(uds[0]), "7F 10 21");
  EXPECT_EQ(util::to_hex(kwp[0]), "7F 10 21");
  // Neither session switch happened.
  EXPECT_FALSE(rig.session.in_session());
}

TEST(ServerFaults, NoFaultsMeansExactlyOneHandleResponse) {
  SessionRig rig;
  const auto uds = rig.uds.respond(util::from_hex("22 F4 0D"));
  const auto kwp = rig.kwp.respond(util::from_hex("21 07"));
  ASSERT_EQ(uds.size(), 1u);
  ASSERT_EQ(kwp.size(), 1u);
  EXPECT_EQ(util::to_hex(uds[0]), "62 F4 0D 21");
  EXPECT_EQ(util::to_hex(kwp[0]), "61 07 01 F1 10");
}

// --- Client retry loop ----------------------------------------------------

/// Scripted MessageLink: each send() delivers the next scripted batch of
/// responses straight to the handler (the pump is a no-op).
class ScriptedLink : public util::MessageLink {
 public:
  void send(std::span<const std::uint8_t> payload) override {
    ++sends;
    last_request.assign(payload.begin(), payload.end());
    if (script.empty()) return;
    auto batch = std::move(script.front());
    script.pop_front();
    for (const auto& message : batch) handler_(message);
  }
  void set_message_handler(Handler handler) override {
    handler_ = std::move(handler);
  }

  std::deque<std::vector<util::Bytes>> script;
  util::Bytes last_request;
  int sends = 0;

 private:
  Handler handler_;
};

TEST(ClientRetry, PendingWaitAbsorbsResponsePending) {
  ScriptedLink link;
  link.script.push_back({util::from_hex("7F 22 78"),
                         util::from_hex("7F 22 78"),
                         util::from_hex("62 F4 0D 21")});
  util::TransactClient client(link, [] {}, util::TransactPolicy::resilient());
  const auto resp = client.transact(util::from_hex("22 F4 0D"));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(util::to_hex(*resp), "62 F4 0D 21");
  EXPECT_EQ(client.stats().pending_waits, 2u);
  EXPECT_EQ(client.stats().retries, 0u);
  EXPECT_EQ(link.sends, 1);
}

TEST(ClientRetry, BusyRepeatRequestTriggersResend) {
  util::SimClock clock;
  ScriptedLink link;
  link.script.push_back({util::from_hex("7F 22 21")});
  link.script.push_back({util::from_hex("62 F4 0D 21")});
  util::TransactClient client(link, [] {}, util::TransactPolicy::resilient(),
                              &clock);
  const auto resp = client.transact(util::from_hex("22 F4 0D"));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(client.stats().busy_retries, 1u);
  EXPECT_EQ(link.sends, 2);
  // The busy backoff advanced simulated time by P2*.
  EXPECT_EQ(clock.now(), util::kP2Star);
}

TEST(ClientRetry, LostResponseRetriedThenRecovered) {
  util::SimClock clock;
  ScriptedLink link;
  link.script.push_back({});  // response lost on the wire
  link.script.push_back({util::from_hex("62 F4 0D 21")});
  util::TransactClient client(link, [] {}, util::TransactPolicy::resilient(),
                              &clock);
  const auto resp = client.transact(util::from_hex("22 F4 0D"));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(client.stats().retries, 1u);
  EXPECT_EQ(client.stats().failures, 0u);
  EXPECT_EQ(clock.now(), util::kP2);
}

TEST(ClientRetry, ExhaustedRetriesRecordAFailure) {
  ScriptedLink link;  // empty script: every attempt times out
  util::TransactClient client(link, [] {}, util::TransactPolicy::resilient());
  const auto resp = client.transact(util::from_hex("22 F4 0D"));
  EXPECT_FALSE(resp.has_value());
  EXPECT_EQ(link.sends, util::TransactPolicy::resilient().max_retries + 1);
  EXPECT_EQ(client.stats().failures, 1u);
}

TEST(ClientRetry, DefaultPolicyIsSingleShot) {
  ScriptedLink link;
  util::TransactClient client(link, [] {});
  EXPECT_FALSE(client.transact(util::from_hex("22 F4 0D")).has_value());
  EXPECT_EQ(link.sends, 1);
  EXPECT_EQ(client.stats().retries, 0u);
}

TEST(ClientRetry, KwpClientRidesTheSameLoop) {
  // ISO 14230 shares the `7F sid nrc` envelope: a busy refusal, then a
  // pending marker ahead of the 0x61 answer.
  ScriptedLink link;
  link.script.push_back({util::from_hex("7F 21 21")});
  link.script.push_back(
      {util::from_hex("7F 21 78"), util::from_hex("61 07 01 F1 10")});
  kwp::Client client(link, [] {}, util::TransactPolicy::resilient());
  const auto resp = client.read_local_id(0x07);
  ASSERT_TRUE(resp.has_value());
  ASSERT_EQ(resp->records.size(), 1u);
  EXPECT_EQ(resp->records[0].x0, 0xF1);
  EXPECT_EQ(client.stats().busy_retries, 1u);
  EXPECT_EQ(client.stats().pending_waits, 1u);
  EXPECT_EQ(link.sends, 2);
}

// --- Endpoint stall policy ------------------------------------------------

TEST(EndpointStall, AbortStaleReapsAfterNbsTimeout) {
  util::SimClock clock;
  can::CanBus bus(clock);
  isotp::EndpointConfig config{id(0x7E0), id(0x7E8)};
  config.n_bs_timeout = 100 * util::kMillisecond;
  isotp::Endpoint endpoint(bus, config);  // no peer: FC never arrives

  util::Bytes long_payload(50, 0x11);
  endpoint.send(long_payload);
  bus.deliver_pending();
  EXPECT_TRUE(endpoint.send_in_progress());

  // Before N_Bs expires the new send is rejected, not a crash.
  endpoint.send(long_payload);
  EXPECT_EQ(endpoint.stats().tx_rejected, 1u);
  EXPECT_EQ(endpoint.stats().tx_aborted, 0u);

  // After N_Bs the stale transmission is reaped and the send proceeds.
  clock.advance(200 * util::kMillisecond);
  endpoint.send(long_payload);
  EXPECT_EQ(endpoint.stats().tx_aborted, 1u);
  EXPECT_TRUE(endpoint.send_in_progress());
}

// --- Campaign smoke -------------------------------------------------------

core::CampaignOptions smoke_options() {
  core::CampaignOptions options;
  options.live_window = 4 * util::kSecond;
  options.gp.population = 48;
  options.gp.max_generations = 8;
  return options;
}

TEST(CampaignFaults, FaultyCampaignCompletesAndRecordsFaultStats) {
  auto options = smoke_options();
  options.faults.rate = 0.02;
  core::Campaign campaign(vehicle::CarId::kA, options);
  campaign.collect();
  campaign.analyze();
  const auto& report = campaign.report();
  EXPECT_TRUE(report.completed);
  EXPECT_GT(report.transactions.transactions, 0u);
  EXPECT_GT(report.bus_faults.dropped, 0u);
  EXPECT_FALSE(report.signals.empty());
}

TEST(CampaignFaults, CleanCampaignSpendsNoRetries) {
  core::Campaign campaign(vehicle::CarId::kA, smoke_options());
  campaign.collect();
  campaign.analyze();
  const auto& report = campaign.report();
  EXPECT_EQ(report.transactions.retries, 0u);
  EXPECT_EQ(report.transactions.busy_retries, 0u);
  EXPECT_EQ(report.transactions.pending_waits, 0u);
  EXPECT_EQ(report.transactions.failures, 0u);
  EXPECT_TRUE(report.failed_transactions.empty());
  EXPECT_EQ(report.bus_faults.delivered, 0u);  // no injector installed
}

}  // namespace
}  // namespace dpr
