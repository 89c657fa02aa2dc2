// Fleet-level parallelism tests: a multi-threaded core::FleetRunner must
// be bit-identical to the plain serial campaign loop for every thread
// count (campaigns are fully independent and internally seeded), and the
// whole pipeline must keep reproducing its frozen golden signatures.

#include <gtest/gtest.h>

#include "core/fleet.hpp"
#include "gp/batch.hpp"
#include "util/checkpoint.hpp"
#include "util/thread_pool.hpp"

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
  // Frozen products of the whole pipeline. Each digest was captured while
  // the reference implementations still ran alongside the fast paths —
  // the pre-heap bus with per-step UI rebuilds, the recompute-per-consumer
  // analysis and the recursive tree-walking GP fitness all produced these
  // exact signatures — so matching them proves the shipped paths still
  // compute what the references did. On a mismatch the test prints the
  // fresh digest: a declared behaviour change edits one constant.
  struct Golden {
    const char* name;
    void (*arm)(CampaignOptions&);
    std::uint64_t digest;
  };
  const Golden kGolden[] = {
      {"clean", [](CampaignOptions&) {}, 0x425a19046c1d84d2ULL},
      {"faulted", [](CampaignOptions& o) { o.faults.rate = 0.02; },
       0xa5c76d9b6046b408ULL},
      {"nm", [](CampaignOptions& o) { o.faults.nm = true; },
       0xee1384f5677bb317ULL},
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

TEST(Fleet, BatchRunnerSharedPoolMatchesOwnedPool) {
  correlate::Dataset dataset;
  dataset.n_vars = 1;
  for (int i = 0; i < 40; ++i) {
    correlate::DataPoint point;
    point.xs = {static_cast<double>(i * 5)};
    point.y = 0.4 * point.xs[0] + 3.0;
    dataset.points.push_back(point);
  }
  gp::GpConfig config;
  config.population = 48;
  config.max_generations = 8;

  std::vector<gp::BatchJob> jobs;
  for (std::size_t i = 0; i < 6; ++i) {
    gp::BatchJob job;
    job.dataset = &dataset;
    job.config = config;
    job.config.seed ^= i * 0x9E3779B9ULL;
    jobs.push_back(job);
  }

  const auto owned = gp::BatchRunner(2).run(jobs);
  util::ThreadPool pool(2);
  const auto shared = gp::BatchRunner(pool).run(jobs);
  ASSERT_EQ(owned.size(), shared.size());
  for (std::size_t i = 0; i < owned.size(); ++i) {
    ASSERT_EQ(owned[i].has_value(), shared[i].has_value());
    if (owned[i]) {
      EXPECT_EQ(owned[i]->formula, shared[i]->formula);
      EXPECT_EQ(owned[i]->fitness, shared[i]->fitness);
    }
  }
}

}  // namespace
}  // namespace dpr::core
