// Stateful-failure robustness (ISSUE 4): S3 session timers, spontaneous
// ECU reboots, security-access lockout, the diagtool session supervisor,
// the cooperative phase watchdog, and checkpoint/resume equivalence at
// the campaign and fleet level.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "can/bus.hpp"
#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/fleet.hpp"
#include "isotp/endpoint.hpp"
#include "kwp/server.hpp"
#include "uds/client.hpp"
#include "uds/server.hpp"
#include "util/checkpoint.hpp"
#include "util/rng.hpp"
#include "util/watchdog.hpp"

namespace dpr {
namespace {

// --- TesterPresent suppress bit -------------------------------------------

TEST(TesterPresent, SuppressBitYieldsNoResponse) {
  uds::Server server;
  EXPECT_EQ(util::to_hex(server.handle(util::from_hex("3E 00"))), "7E 00");
  EXPECT_TRUE(server.handle(util::from_hex("3E 80")).empty());
}

TEST(TesterPresent, KwpResponseRequiredByteSelectsReply) {
  kwp::Server server;
  EXPECT_EQ(util::to_hex(server.handle(util::Bytes{0x3E, 0x01})), "7E");
  EXPECT_TRUE(server.handle(util::Bytes{0x3E, 0x02}).empty());
}

// --- S3 session timer ------------------------------------------------------

class S3Test : public ::testing::Test {
 protected:
  S3Test() {
    server_.add_io_did(0x0950,
                       [](uds::IoControlParameter,
                          std::span<const std::uint8_t> state)
                           -> std::optional<util::Bytes> {
                         return util::Bytes(state.begin(), state.end());
                       });
    uds::Server::SessionProfile profile;
    profile.s3_timeout = 1 * util::kSecond;
    server_.enable_sessions(profile, clock_);
  }
  util::SimClock clock_;
  uds::Server server_;
};

TEST_F(S3Test, InactivityDropsBackToDefaultSession) {
  server_.handle(util::from_hex("10 03"));
  EXPECT_EQ(server_.active_session(), 0x03);
  clock_.advance(2 * util::kSecond);
  // The expiry is observed lazily at the next request, which then runs
  // against the default session: the gated service is rejected with
  // serviceNotSupportedInActiveSession (only when timers are armed).
  const auto resp = server_.handle(util::from_hex("2F 09 50 02"));
  EXPECT_EQ(util::to_hex(resp), "7F 2F 7F");
  EXPECT_EQ(server_.active_session(), 0x01);
  EXPECT_EQ(server_.s3_expiries(), 1u);
}

TEST_F(S3Test, TesterPresentKeepaliveHoldsTheSession) {
  server_.handle(util::from_hex("10 03"));
  for (int i = 0; i < 10; ++i) {
    clock_.advance(500 * util::kMillisecond);  // under the 1 s S3 budget
    server_.handle(util::from_hex("3E 80"));   // suppressed keepalive
  }
  EXPECT_EQ(server_.active_session(), 0x03);
  EXPECT_EQ(server_.s3_expiries(), 0u);
  const auto resp = server_.handle(util::from_hex("2F 09 50 02"));
  EXPECT_EQ(util::to_hex(resp), "6F 09 50 02");
}

TEST(S3Kwp, StartedSessionExpiresAfterInactivity) {
  util::SimClock clock;
  kwp::Server server;
  kwp::Server::SessionProfile profile;
  profile.s3_timeout = 1 * util::kSecond;
  server.enable_sessions(profile, clock);
  server.handle(util::Bytes{0x10, 0x89});
  EXPECT_TRUE(server.session_started());
  clock.advance(2 * util::kSecond);
  server.handle(util::Bytes{0x3E, 0x01});  // the lazy expiry is observed here
  EXPECT_FALSE(server.session_started());
  EXPECT_EQ(server.s3_expiries(), 1u);
}

// --- Security-access lockout ----------------------------------------------

TEST(SecurityLockout, AttemptLimitThenDelayTimerUnlock) {
  util::SimClock clock;
  uds::Server server;
  server.enable_security([](const util::Bytes& seed) {
    util::Bytes key = seed;
    for (auto& b : key) b ^= 0xA5;
    return key;
  });
  uds::Server::SessionProfile profile;
  profile.max_key_attempts = 3;
  profile.lockout_delay = 10 * util::kSecond;
  server.enable_sessions(profile, clock);

  // Two wrong keys: plain invalidKey. The third trips the attempt limit.
  for (int attempt = 0; attempt < 3; ++attempt) {
    server.handle(util::from_hex("27 01"));
    const auto resp = server.handle(util::from_hex("27 02 00 00 00 00"));
    EXPECT_EQ(util::to_hex(resp), attempt < 2 ? "7F 27 35" : "7F 27 36");
  }
  EXPECT_TRUE(server.locked_out());

  // During the delay both seed and key are refused with 0x37.
  EXPECT_EQ(util::to_hex(server.handle(util::from_hex("27 01"))), "7F 27 37");
  EXPECT_EQ(util::to_hex(server.handle(util::from_hex("27 02 00 00 00 00"))),
            "7F 27 37");

  // After the delay the handshake works again, and a correct key unlocks.
  clock.advance(11 * util::kSecond);
  EXPECT_FALSE(server.locked_out());
  const auto seed_resp = server.handle(util::from_hex("27 01"));
  ASSERT_EQ(seed_resp.size(), 6u);
  util::Bytes key(seed_resp.begin() + 2, seed_resp.end());
  for (auto& b : key) b ^= 0xA5;
  util::Bytes send_key{0x27, 0x02};
  send_key.insert(send_key.end(), key.begin(), key.end());
  EXPECT_EQ(util::to_hex(server.handle(send_key)), "67 02");
  EXPECT_TRUE(server.unlocked());
}

TEST(SecurityLockout, KwpMirrorsTheUdsAttemptLimitAndDelayTimer) {
  util::SimClock clock;
  kwp::Server server;
  server.enable_security([](const util::Bytes& seed) {
    util::Bytes key = seed;
    for (auto& b : key) b ^= 0xA5;
    return key;
  });
  kwp::Server::SessionProfile profile;
  profile.max_key_attempts = 3;
  profile.lockout_delay = 10 * util::kSecond;
  server.enable_sessions(profile, clock);

  // KWP 2000 shares the ISO 14229 NRC values: invalidKey twice, then
  // exceedNumberOfAttempts, then requiredTimeDelayNotExpired for both
  // halves of the handshake until the delay runs out.
  for (int attempt = 0; attempt < 3; ++attempt) {
    server.handle(util::Bytes{0x27, 0x01});
    const auto resp = server.handle(util::Bytes{0x27, 0x02, 0, 0, 0, 0});
    EXPECT_EQ(util::to_hex(resp), attempt < 2 ? "7F 27 35" : "7F 27 36");
  }
  EXPECT_TRUE(server.locked_out());
  EXPECT_EQ(util::to_hex(server.handle(util::Bytes{0x27, 0x01})), "7F 27 37");
  EXPECT_EQ(util::to_hex(server.handle(util::Bytes{0x27, 0x02, 0, 0, 0, 0})),
            "7F 27 37");

  clock.advance(11 * util::kSecond);
  EXPECT_FALSE(server.locked_out());
  const auto seed_resp = server.handle(util::Bytes{0x27, 0x01});
  ASSERT_EQ(seed_resp.size(), 6u);
  util::Bytes key(seed_resp.begin() + 2, seed_resp.end());
  for (auto& b : key) b ^= 0xA5;
  util::Bytes send_key{0x27, 0x02};
  send_key.insert(send_key.end(), key.begin(), key.end());
  EXPECT_EQ(util::to_hex(server.handle(send_key)), "67 02");
  EXPECT_TRUE(server.unlocked());
}

// --- ECU resets under ISO-TP ----------------------------------------------

struct ResetRunResult {
  int successes = 0;
  std::uint64_t resets = 0;
  std::vector<util::Bytes> payloads;
};

ResetRunResult run_reset_reads(std::uint64_t seed) {
  util::SimClock clock;
  can::CanBus bus(clock);
  isotp::Endpoint tester_link(
      bus, isotp::EndpointConfig{can::CanId{0x7E0, false},
                                 can::CanId{0x7E8, false}});
  isotp::Endpoint ecu_link(
      bus, isotp::EndpointConfig{can::CanId{0x7E8, false},
                                 can::CanId{0x7E0, false}});
  uds::Server server;
  server.add_did(0xF490, 20, [] { return util::Bytes(20, 0xAA); });
  uds::Server::ResetProfile profile;
  profile.reset_rate = 0.35;
  profile.boot_time = 300 * util::kMillisecond;
  server.enable_resets(profile, clock, util::CounterRng(seed, 0));
  server.bind(ecu_link);

  uds::Client client(tester_link, [&] { bus.deliver_pending(); },
                     util::TransactPolicy::resilient(), &clock);
  ResetRunResult result;
  for (int i = 0; i < 30; ++i) {
    const auto resp = client.transact(util::from_hex("22 F4 90"));
    if (resp) {
      ++result.successes;
      result.payloads.push_back(*resp);
    }
    clock.advance(400 * util::kMillisecond);  // rides out any boot window
  }
  result.resets = server.resets();
  return result;
}

TEST(EcuReset, MultiFrameReadsSurviveRebootsAndReplayBitIdentically) {
  const auto a = run_reset_reads(0xBEEF);
  EXPECT_GT(a.successes, 0);
  EXPECT_GT(a.resets, 0u);
  util::Bytes expected = util::from_hex("62 F4 90");
  expected.insert(expected.end(), 20, 0xAA);
  for (const auto& payload : a.payloads) {
    EXPECT_EQ(util::to_hex(payload), util::to_hex(expected));
  }
  const auto b = run_reset_reads(0xBEEF);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.resets, b.resets);
}

// --- CheckpointStore -------------------------------------------------------

class CheckpointDir : public ::testing::Test {
 protected:
  CheckpointDir()
      : dir_((std::filesystem::temp_directory_path() /
              ("dpr_ckpt_" +
               std::to_string(static_cast<unsigned>(::getpid()))))
                 .string()) {
    std::filesystem::remove_all(dir_);
  }
  ~CheckpointDir() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(CheckpointDir, SaveLoadRoundTrip) {
  core::CheckpointStore store(dir_);
  const util::Bytes payload{0x01, 0x02, 0x03, 0xFF};
  ASSERT_TRUE(store.save(3, 0x5EED, 0xD16E57, 4, payload));
  const auto loaded = store.load(3, 0x5EED, 0xD16E57);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->phase, 4u);
  EXPECT_EQ(loaded->payload, payload);
  store.remove(3, 0x5EED, 0xD16E57);
  EXPECT_FALSE(store.load(3, 0x5EED, 0xD16E57).has_value());
}

TEST_F(CheckpointDir, KeyMismatchNeverResumes) {
  core::CheckpointStore store(dir_);
  ASSERT_TRUE(store.save(3, 0x5EED, 0xD16E57, 1, util::Bytes{0xAB}));
  EXPECT_FALSE(store.load(4, 0x5EED, 0xD16E57).has_value());  // other car
  EXPECT_FALSE(store.load(3, 0x5EEE, 0xD16E57).has_value());  // other seed
  EXPECT_FALSE(store.load(3, 0x5EED, 0xD16E58).has_value());  // other opts
}

TEST_F(CheckpointDir, CorruptionAndTruncationRejected) {
  core::CheckpointStore store(dir_);
  const util::Bytes payload(64, 0x5A);
  ASSERT_TRUE(store.save(1, 2, 3, 0, payload));
  const auto path = store.path_for(1, 2, 3);
  auto data = util::read_file(path);
  ASSERT_TRUE(data.has_value());

  auto corrupted = *data;
  corrupted[corrupted.size() / 2] ^= 0x01;
  ASSERT_TRUE(util::write_file_atomic(path, corrupted));
  EXPECT_FALSE(store.load(1, 2, 3).has_value());

  auto truncated = *data;
  truncated.resize(truncated.size() - 5);  // crash mid-write
  ASSERT_TRUE(util::write_file_atomic(path, truncated));
  EXPECT_FALSE(store.load(1, 2, 3).has_value());

  ASSERT_TRUE(util::write_file_atomic(path, *data));
  EXPECT_TRUE(store.load(1, 2, 3).has_value());  // pristine file still loads
}

TEST(RngState, RoundTripContinuesTheStream) {
  util::Rng rng(123);
  for (int i = 0; i < 17; ++i) rng();
  const auto state = rng.state();
  std::vector<std::uint64_t> expected;
  for (int i = 0; i < 8; ++i) expected.push_back(rng());
  util::Rng other(1);
  other.restore(state);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(other(), expected[i]);
}

// --- Watchdog --------------------------------------------------------------

TEST(Watchdog, PollThrowsPhaseTimeoutAfterBudget) {
  util::Watchdog watchdog;
  watchdog.poll();  // unarmed: never throws
  watchdog.arm("associate", 0.001);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  try {
    watchdog.poll();
    FAIL() << "expected DeadlineExceeded";
  } catch (const util::DeadlineExceeded& e) {
    EXPECT_STREQ(e.what(), "phase_timeout(associate)");
    EXPECT_EQ(e.phase(), "associate");
  }
  watchdog.disarm();
  watchdog.poll();  // disarmed again: quiet
}

TEST(Watchdog, SimTimeBudgetThrowsTheSamePhaseTimeout) {
  util::SimClock clock;
  util::Watchdog watchdog;
  // No wall-clock deadline at all: only the sim-time budget is armed.
  watchdog.arm("collect", 0.0, 2.0, &clock);
  clock.advance(1 * util::kSecond);
  watchdog.poll();  // under budget: quiet
  clock.advance(2 * util::kSecond);
  try {
    watchdog.poll();
    FAIL() << "expected DeadlineExceeded";
  } catch (const util::DeadlineExceeded& e) {
    EXPECT_STREQ(e.what(), "phase_timeout(collect)");
    EXPECT_EQ(e.phase(), "collect");
  }
}

TEST(Watchdog, SharedTokenObservesCancelAcrossCopies) {
  util::CancelToken token;
  util::CancelToken copy = token;
  EXPECT_FALSE(copy.expired());
  token.cancel();
  EXPECT_TRUE(copy.expired());
  copy.arm_after(3600.0);  // re-arm clears the cancel
  EXPECT_FALSE(token.expired());
}

// --- Campaign checkpoint/resume -------------------------------------------

core::CampaignOptions small_options() {
  core::CampaignOptions options;
  options.live_window = 4 * util::kSecond;
  options.gp.population = 48;
  options.gp.max_generations = 8;
  return options;
}

std::string run_fresh(vehicle::CarId car, const core::CampaignOptions& base) {
  core::Campaign campaign(car, base);
  campaign.run();
  return core::report_signature(campaign.report());
}

TEST_F(CheckpointDir, ResumedCampaignMatchesFreshAtEveryPhaseBoundary) {
  const auto base = small_options();
  const std::string fresh = run_fresh(vehicle::CarId::kA, base);
  for (const int stop_after : {0, 2, 4, 5}) {
    auto interrupted = base;
    interrupted.checkpoint_dir = dir_;
    interrupted.stop_after_phase = stop_after;
    core::Campaign first(vehicle::CarId::kA, interrupted);
    first.run();  // leaves a checkpoint at the phase boundary

    auto resumed_options = base;
    resumed_options.checkpoint_dir = dir_;
    resumed_options.resume = true;
    core::Campaign resumed(vehicle::CarId::kA, resumed_options);
    resumed.run();
    EXPECT_EQ(core::report_signature(resumed.report()), fresh)
        << "stopped after phase " << stop_after;
  }
}

TEST_F(CheckpointDir, OptionChangeInvalidatesTheCheckpoint) {
  auto interrupted = small_options();
  interrupted.checkpoint_dir = dir_;
  interrupted.stop_after_phase = 1;
  core::Campaign first(vehicle::CarId::kA, interrupted);
  first.run();

  // Different semantic options -> different digest -> full fresh run,
  // which must still produce that option set's own fresh signature.
  auto changed = small_options();
  changed.ocr_noise = false;
  changed.checkpoint_dir = dir_;
  changed.resume = true;
  core::Campaign resumed(vehicle::CarId::kA, changed);
  resumed.run();
  auto plain = small_options();
  plain.ocr_noise = false;
  EXPECT_EQ(core::report_signature(resumed.report()),
            run_fresh(vehicle::CarId::kA, plain));
}

TEST_F(CheckpointDir, FleetResumeIsThreadCountInvariant) {
  const std::vector<vehicle::CarId> cars{vehicle::CarId::kA,
                                         vehicle::CarId::kB};
  core::FleetOptions base;
  base.campaign = small_options();
  base.fleet_threads = 1;
  const auto fresh = core::fleet_signature(core::FleetRunner(base).run(cars));

  for (const std::size_t threads : {1u, 2u, 8u}) {
    std::filesystem::remove_all(dir_);
    core::FleetOptions interrupted = base;
    interrupted.fleet_threads = threads;
    interrupted.campaign.checkpoint_dir = dir_;
    interrupted.campaign.stop_after_phase = 3;
    core::FleetRunner(interrupted).run(cars);

    core::FleetOptions resumed = base;
    resumed.fleet_threads = threads;
    resumed.campaign.checkpoint_dir = dir_;
    resumed.campaign.resume = true;
    const auto summary = core::FleetRunner(resumed).run(cars);
    EXPECT_EQ(core::fleet_signature(summary), fresh)
        << threads << " threads";
    EXPECT_EQ(summary.cars_failed(), 0u);
  }
}

// --- Watchdog + stall in the fleet ----------------------------------------

TEST(FleetWatchdog, HungPhaseDegradesToPhaseTimeoutSlot) {
  core::FleetOptions options;
  options.fleet_threads = 1;
  options.quarantine_retry = false;  // a stalled car would stall twice
  options.campaign = small_options();
  options.campaign.live_window = 2 * util::kSecond;
  options.campaign.run_inference = false;
  options.campaign.run_baselines = false;
  options.campaign.stall_phase = "associate";
  options.campaign.phase_deadline_s = 1.0;
  const auto summary =
      core::FleetRunner(options).run({vehicle::CarId::kA});
  ASSERT_EQ(summary.reports.size(), 1u);
  EXPECT_FALSE(summary.reports[0].completed);
  EXPECT_NE(summary.reports[0].failure_reason.find("phase_timeout(associate)"),
            std::string::npos);
}

TEST(FleetWatchdog, QuarantineRetryAppendsTheSecondReason) {
  core::FleetOptions options;
  options.fleet_threads = 1;
  options.campaign = small_options();
  options.campaign.live_window = 2 * util::kSecond;
  options.campaign.run_inference = false;
  options.campaign.run_baselines = false;
  options.campaign.stall_phase = "assemble";
  options.campaign.phase_deadline_s = 0.5;
  const auto summary =
      core::FleetRunner(options).run({vehicle::CarId::kA});
  ASSERT_EQ(summary.reports.size(), 1u);
  EXPECT_FALSE(summary.reports[0].completed);
  EXPECT_NE(summary.reports[0].failure_reason.find(
                "phase_timeout(assemble); retry: phase_timeout(assemble)"),
            std::string::npos);
}

TEST(FleetWatchdog, SimBudgetOverrunDegradesToPhaseTimeoutSlot) {
  core::FleetOptions options;
  options.fleet_threads = 1;
  options.quarantine_retry = false;
  options.campaign = small_options();
  options.campaign.run_inference = false;
  options.campaign.run_baselines = false;
  // The 4 s live window must burn through a 1 s sim budget in collect,
  // even though the phase makes perfectly healthy wall-clock progress.
  options.campaign.phase_sim_budget_s = 1.0;
  const auto summary =
      core::FleetRunner(options).run({vehicle::CarId::kA});
  ASSERT_EQ(summary.reports.size(), 1u);
  EXPECT_FALSE(summary.reports[0].completed);
  EXPECT_NE(summary.reports[0].failure_reason.find("phase_timeout(collect)"),
            std::string::npos);
}

// --- OSEK network management in a campaign --------------------------------

core::CampaignOptions nm_options() {
  auto options = small_options();
  options.faults.nm = true;
  // Aggressive enough that the bus sleeps during real campaign gaps.
  options.faults.nm_sleep_timeout = 400 * util::kMillisecond;
  return options;
}

TEST(NmCampaign, AwareToolRecoversSleepLossesAndReplaysBitIdentically) {
  const auto options = nm_options();
  core::Campaign aware(vehicle::CarId::kA, options);
  aware.run();
  const auto& report = aware.report();
  EXPECT_TRUE(report.completed);
  EXPECT_TRUE(report.nm_enabled);
  // The ring really slept the bus out from under the tool, the tool
  // noticed, and at least one retry after re-waking succeeded.
  EXPECT_GT(report.nm.sleeps, 0u);
  EXPECT_GT(report.session_stats.bus_sleeps, 0u);
  EXPECT_GT(report.session_stats.sleep_recoveries, 0u);

  core::Campaign again(vehicle::CarId::kA, options);
  again.run();
  EXPECT_EQ(core::report_signature(again.report()),
            core::report_signature(report));
}

TEST(NmCampaign, VetoHoldoutKeepsTheBusAwakeDeterministically) {
  // Same NM profile that demonstrably naps the bus (the aware-tool test
  // above asserts sleeps > 0), plus one ECU that never acks sleep: the
  // campaign must see a bus that never sleeps, and must replay
  // bit-identically.
  auto options = nm_options();
  options.faults.nm_veto_address = 2;
  core::Campaign veto(vehicle::CarId::kA, options);
  veto.run();
  const auto& report = veto.report();
  EXPECT_TRUE(report.completed);
  EXPECT_TRUE(report.nm_enabled);
  EXPECT_EQ(report.nm.sleeps, 0u);
  EXPECT_EQ(report.nm.frames_lost_to_sleep, 0u);
  EXPECT_EQ(report.session_stats.bus_sleeps, 0u);
  EXPECT_EQ(report.session_stats.sleep_recoveries, 0u);

  core::Campaign again(vehicle::CarId::kA, options);
  again.run();
  EXPECT_EQ(core::report_signature(again.report()),
            core::report_signature(report));

  // The veto is a semantic option: it keys its own checkpoints.
  const core::Campaign plain(vehicle::CarId::kA, nm_options());
  EXPECT_NE(veto.checkpoint_options_digest(),
            plain.checkpoint_options_digest());
}

TEST(NmCampaign, ObliviousToolLosesStrictlyMoreFramesToSleep) {
  const auto options = nm_options();
  core::Campaign aware(vehicle::CarId::kA, options);
  aware.run();

  auto ablated = options;
  ablated.nm_oblivious = true;
  core::Campaign oblivious(vehicle::CarId::kA, ablated);
  oblivious.run();
  const auto& obl = oblivious.report();
  EXPECT_TRUE(obl.nm_enabled);
  // No wakeups, no sleep detection: every nap swallows traffic for good.
  EXPECT_EQ(obl.session_stats.sleep_recoveries, 0u);
  EXPECT_GT(obl.nm.sleeps, 0u);
  EXPECT_GT(obl.nm.frames_lost_to_sleep,
            aware.report().nm.frames_lost_to_sleep);
}

TEST_F(CheckpointDir, NmFleetResumeIsThreadCountInvariant) {
  const std::vector<vehicle::CarId> cars{vehicle::CarId::kA,
                                         vehicle::CarId::kB};
  core::FleetOptions base;
  base.campaign = nm_options();
  base.fleet_threads = 1;
  const auto fresh = core::fleet_signature(core::FleetRunner(base).run(cars));

  for (const std::size_t threads : {1u, 2u, 8u}) {
    std::filesystem::remove_all(dir_);
    core::FleetOptions interrupted = base;
    interrupted.fleet_threads = threads;
    interrupted.campaign.checkpoint_dir = dir_;
    interrupted.campaign.stop_after_phase = 3;
    core::FleetRunner(interrupted).run(cars);

    core::FleetOptions resumed = base;
    resumed.fleet_threads = threads;
    resumed.campaign.checkpoint_dir = dir_;
    resumed.campaign.resume = true;
    const auto summary = core::FleetRunner(resumed).run(cars);
    EXPECT_EQ(core::fleet_signature(summary), fresh)
        << threads << " threads";
    EXPECT_EQ(summary.cars_failed(), 0u);
  }
}

// --- Stateful faults in a campaign ----------------------------------------

TEST(StatefulCampaign, SessionFaultsAloneDrawNothingFromTheBusStream) {
  auto options = small_options();
  options.faults.session_faults = true;
  core::Campaign campaign(vehicle::CarId::kA, options);
  campaign.run();
  const auto& report = campaign.report();
  EXPECT_TRUE(report.completed);
  // No wire-fault injector is armed: zero draws, zero bus bookkeeping.
  EXPECT_EQ(report.bus_faults.delivered, 0u);
  // The supervisor really ran its keepalive cadence.
  EXPECT_GT(report.session_stats.keepalives, 0u);
}

TEST(StatefulCampaign, ResetStormIsSurvivedAndReplaysBitIdentically) {
  auto options = small_options();
  options.faults.reset_rate = 0.02;
  options.faults.session_faults = true;
  std::string reference;
  for (int run = 0; run < 2; ++run) {
    core::Campaign campaign(vehicle::CarId::kA, options);
    campaign.run();
    const auto& report = campaign.report();
    EXPECT_TRUE(report.completed);
    EXPECT_GT(report.ecu_resets, 0u);
    const auto signature = core::report_signature(report);
    if (reference.empty()) {
      reference = signature;
    } else {
      EXPECT_EQ(signature, reference);
    }
  }
}

}  // namespace
}  // namespace dpr
