// Fleet-level parallelism tests: a multi-threaded core::FleetRunner must
// be bit-identical to the plain serial campaign loop for every thread
// count (campaigns are fully independent and internally seeded), and the
// whole pipeline must keep reproducing its frozen golden signatures.

#include <gtest/gtest.h>

#include "core/fleet.hpp"
#include "util/checkpoint.hpp"

namespace dpr::core {
namespace {

/// Small-but-real settings: enough traffic for stable findings, GP small
/// enough that the 3-car x 3-run matrix stays fast.
CampaignOptions small_options() {
  CampaignOptions options;
  options.live_window = 6 * util::kSecond;
  options.gp.population = 64;
  options.gp.max_generations = 10;
  return options;
}

/// One UDS car, one KWP-over-VWTP car, one BMW-framing car.
std::vector<vehicle::CarId> small_fleet() {
  return {vehicle::CarId::kA, vehicle::CarId::kB, vehicle::CarId::kE};
}

TEST(Fleet, ParallelRunMatchesSerialLoopBitExactly) {
  const auto cars = small_fleet();

  // Reference: the plain serial loop full_campaign.cpp used to run.
  std::string serial_signature;
  for (const auto car : cars) {
    Campaign campaign(car, small_options());
    campaign.collect();
    campaign.analyze();
    serial_signature += report_signature(campaign.report());
  }

  FleetOptions one;
  one.fleet_threads = 1;
  one.campaign = small_options();
  const auto serial_summary = FleetRunner(one).run(cars);
  EXPECT_EQ(serial_summary.threads_used, 1u);
  EXPECT_EQ(fleet_signature(serial_summary), serial_signature);

  FleetOptions four;
  four.fleet_threads = 4;
  four.campaign = small_options();
  const auto parallel_summary = FleetRunner(four).run(cars);
  EXPECT_EQ(parallel_summary.threads_used, 4u);
  EXPECT_EQ(fleet_signature(parallel_summary), serial_signature);

  // Results come back in input order regardless of completion order.
  ASSERT_EQ(parallel_summary.reports.size(), cars.size());
  EXPECT_EQ(parallel_summary.reports[0].car_label, "Car A");
  EXPECT_EQ(parallel_summary.reports[1].car_label, "Car B");
  EXPECT_EQ(parallel_summary.reports[2].car_label, "Car E");
}

TEST(Fleet, SummaryAggregatesPhaseTimingsAndTotals) {
  FleetOptions options;
  options.fleet_threads = 2;
  options.campaign = small_options();
  const auto summary =
      FleetRunner(options).run({vehicle::CarId::kA, vehicle::CarId::kB});

  EXPECT_GT(summary.wall_s, 0.0);
  EXPECT_GT(summary.phase_totals.collect_s, 0.0);
  EXPECT_GT(summary.phase_totals.assemble_s, 0.0);
  EXPECT_GT(summary.phase_totals.ocr_extract_s, 0.0);
  EXPECT_GT(summary.phase_totals.align_s, 0.0);
  EXPECT_GT(summary.phase_totals.associate_s, 0.0);
  EXPECT_GT(summary.phase_totals.infer_s, 0.0);
  EXPECT_GT(summary.phase_totals.score_s, 0.0);
  EXPECT_GT(summary.phase_totals.total_s(), 0.0);
  for (const auto& report : summary.reports) {
    EXPECT_GT(report.phases.collect_s, 0.0);
    EXPECT_GT(report.phases.infer_s, 0.0);
  }

  EXPECT_EQ(summary.total_signals(),
            summary.reports[0].signals.size() +
                summary.reports[1].signals.size());
  EXPECT_EQ(summary.total_formula_signals() + summary.total_enum_signals(),
            summary.total_signals());
  EXPECT_GT(summary.total_gp_correct(), 0u);
  EXPECT_GT(summary.total_ecrs(), 0u);
}

TEST(Fleet, GoldenSignatureDigestsAtEveryThreadCount) {
  // Frozen products of the whole pipeline. The first digests were
  // captured while the reference implementations still ran alongside the
  // fast paths — the original arbitration-scan bus with per-step UI
  // rebuilds, the recompute-per-consumer analysis and the recursive
  // tree-walking GP fitness all produced the same signatures — so
  // matching them proved the shipped paths still compute what the
  // references did. When
  // report_signature became the state Writer's encoding of the report,
  // those digests first held on the same tree with the old hand-written
  // projection compiled in; these were then re-captured from the new
  // encoding. All three moved when GP's constants came to be tuned by
  // robust Gauss-Newton, after the previous digests held on the same
  // tree with the coordinate line search pasted back. On a mismatch the
  // test prints the fresh digest: a declared behaviour change edits one
  // constant.
  struct Golden {
    const char* name;
    void (*arm)(CampaignOptions&);
    std::uint64_t digest;
  };
  const Golden kGolden[] = {
      {"clean", [](CampaignOptions&) {}, 0x97309b5cc2fccaa1ULL},
      {"faulted", [](CampaignOptions& o) { o.faults.rate = 0.02; },
       0xc24bdfbfa66ca82fULL},
      {"nm", [](CampaignOptions& o) { o.faults.nm = true; },
       0x5ae21c41a137c89bULL},
      // Resets and S3 expiry with the session supervisor: pins the S3
      // timer, the boot window, the keepalive period and the recovery
      // backoff.
      {"stateful",
       [](CampaignOptions& o) {
         o.faults.session_faults = true;
         o.faults.reset_rate = 0.05;
       },
       0xc398dceaedf20dedULL},
  };
  for (const auto& golden : kGolden) {
    FleetOptions options;
    options.campaign.live_window = 4 * util::kSecond;
    options.campaign.gp.population = 48;
    options.campaign.gp.max_generations = 8;
    golden.arm(options.campaign);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      options.fleet_threads = threads;
      const std::uint64_t digest = util::fnv1a64_str(
          fleet_signature(FleetRunner(options).run(small_fleet())),
          0xCBF29CE484222325ULL);
      EXPECT_EQ(digest, golden.digest)
          << golden.name << " at " << threads
          << " fleet threads: fresh digest 0x" << std::hex << digest;
    }
  }
}

TEST(Fleet, FaultyFleetBitIdenticalAcrossThreadCounts) {
  // The determinism contract must survive fault injection: every fault
  // draw happens on campaign-owned state in wire-delivery order, so a
  // faulty fleet replays bit-identically at any thread count.
  const auto cars = small_fleet();
  FleetOptions options;
  options.campaign = small_options();
  options.campaign.live_window = 4 * util::kSecond;
  options.campaign.gp.population = 48;
  options.campaign.faults.rate = 0.01;
  options.campaign.faults.fault_seed = 0xBADC0FFEULL;

  std::string reference;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    options.fleet_threads = threads;
    const auto summary = FleetRunner(options).run(cars);
    const auto signature = fleet_signature(summary);
    if (reference.empty()) {
      reference = signature;
      // The faults really fired and the campaigns really recovered.
      util::FaultStats bus;
      for (const auto& report : summary.reports) bus += report.bus_faults;
      EXPECT_GT(bus.dropped, 0u);
      EXPECT_EQ(summary.cars_failed(), 0u);
    } else {
      EXPECT_EQ(signature, reference) << threads << " threads";
    }
  }
}

TEST(Fleet, ThrowingCampaignBecomesFailedSlotNotFleetAbort) {
  FleetOptions options;
  options.fleet_threads = 2;
  options.campaign = small_options();
  options.campaign.live_window = 2 * util::kSecond;
  options.campaign.run_inference = false;
  options.campaign.run_baselines = false;
  // An id outside the catalog makes the campaign constructor throw —
  // the fleet must capture that into the slot, not terminate.
  const auto summary = FleetRunner(options).run(
      {vehicle::CarId::kA, static_cast<vehicle::CarId>(99)});
  ASSERT_EQ(summary.reports.size(), 2u);
  EXPECT_TRUE(summary.reports[0].completed);
  EXPECT_FALSE(summary.reports[1].completed);
  EXPECT_FALSE(summary.reports[1].failure_reason.empty());
  EXPECT_EQ(summary.cars_ok(), 1u);
  EXPECT_EQ(summary.cars_failed(), 1u);
}

TEST(Fleet, CampaignOwnPoolMatchesSerialInference) {
  // Without a fleet, infer_threads > 1 makes the campaign build its own
  // pool for the GP fan-out; the report must not notice.
  auto serial_options = small_options();
  serial_options.infer_threads = 1;
  Campaign serial(vehicle::CarId::kA, serial_options);
  serial.run();

  auto pooled_options = small_options();
  pooled_options.infer_threads = 4;
  Campaign pooled(vehicle::CarId::kA, pooled_options);
  pooled.run();

  std::size_t formulas = 0;
  for (const auto& finding : pooled.report().signals) {
    if (finding.gp.has_value()) ++formulas;
  }
  EXPECT_GT(formulas, 1u);  // more than one job, so the pool fans out
  EXPECT_EQ(report_signature(pooled.report()),
            report_signature(serial.report()));
}

}  // namespace
}  // namespace dpr::core
