#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "gp/batch.hpp"
#include "gp/engine.hpp"
#include "gp/genome.hpp"
#include "gp/scaling.hpp"
#include "gp_reference.hpp"
#include "util/clock.hpp"
#include "util/thread_pool.hpp"
#include "util/watchdog.hpp"

namespace dpr::gp {
namespace {

Gene var(std::int32_t v) { return {Op::kVar, v, 0.0}; }
Gene num(double value) { return {Op::kConst, 0, value}; }

TEST(Genome, EvalArithmetic) {
  // (X0 * X1) / 5 — the paper's KWP RPM formula shape.
  const Genome genome{{Op::kDiv}, {Op::kMul}, var(0), var(1), num(5.0)};
  const std::vector<double> vars{241.0, 16.0};
  EXPECT_DOUBLE_EQ(reference::eval(genome, vars).value, 771.2);
  EXPECT_EQ(genome.size(), 5u);
}

TEST(Genome, ProtectedDivision) {
  const Genome genome{{Op::kDiv}, num(1.0), num(0.0)};
  EXPECT_DOUBLE_EQ(reference::eval(genome).value, 1.0);
}

TEST(Genome, ProtectedLogAndSqrt) {
  const Genome log_genome{{Op::kLog}, num(-2.0)};
  EXPECT_DOUBLE_EQ(reference::eval(log_genome).value, std::log(2.0));
  const Genome sqrt_genome{{Op::kSqrt}, num(-4.0)};
  EXPECT_DOUBLE_EQ(reference::eval(sqrt_genome).value, 2.0);
}

TEST(Genome, AllFourteenFunctionsEvaluateFinite) {
  const Op ops[] = {Op::kAdd, Op::kSub, Op::kMul, Op::kDiv, Op::kMin,
                    Op::kMax, Op::kSqrt, Op::kLog, Op::kAbs, Op::kNeg,
                    Op::kSin, Op::kCos, Op::kTan, Op::kInv};
  for (Op op : ops) {
    const Genome genome = arity(op) == 2 ? Genome{{op}, var(0), num(2.0)}
                                         : Genome{{op}, var(0)};
    for (double x : {-5.0, 0.0, 0.5, 100.0}) {
      const std::vector<double> vars{x};
      EXPECT_TRUE(std::isfinite(reference::eval(genome, vars).value))
          << "op " << static_cast<int>(op) << " at " << x;
    }
  }
}

TEST(Genome, SimplifyFoldsConstants) {
  Genome genome{{Op::kAdd}, num(2.0), num(3.0)};
  simplify(genome);
  EXPECT_EQ(genome.size(), 1u);
  EXPECT_DOUBLE_EQ(reference::eval(genome).value, 5.0);
}

TEST(Genome, SimplifyRemovesIdentities) {
  Genome genome{{Op::kMul}, num(1.0), {Op::kAdd}, var(0), num(0.0)};
  simplify(genome);
  EXPECT_EQ(genome.size(), 1u);
  EXPECT_EQ(to_string(genome, variable_names(1)), "X");
}

TEST(Genome, ToStringVariableNaming) {
  const Genome sum{{Op::kAdd}, var(0), var(1)};
  EXPECT_EQ(to_string(sum, variable_names(2)), "(X0 + X1)");
  const Genome single{var(0)};
  EXPECT_EQ(to_string(single, variable_names(1)), "X");
}

TEST(Genome, RandomGenomeRespectsDepthBound) {
  util::Rng rng(5);
  Genome genome;
  for (int i = 0; i < 50; ++i) {
    random_genome(rng, 2, 3, true, genome);
    const std::vector<double> vars{1.0, 2.0};
    EXPECT_LE(reference::eval(genome, vars).depth, 4);
  }
}

TEST(Scaling, Table2ReduceLargeValues) {
  // Most values in 10^3..10^4 -> divide by 10^3 (Table 2 row 2).
  std::vector<double> values;
  for (int i = 0; i < 20; ++i) values.push_back(2000.0 + i * 100);
  const auto scale = choose_scale(values, true);
  EXPECT_DOUBLE_EQ(scale.factor, 1000.0);
}

TEST(Scaling, Table2EnlargeSmallValues) {
  std::vector<double> values;
  for (int i = 1; i <= 20; ++i) values.push_back(0.02 + i * 0.001);
  const auto scale = choose_scale(values, true);
  EXPECT_DOUBLE_EQ(scale.factor, 0.01);  // multiply by 100
}

TEST(Scaling, IdentityInsideTargetBand) {
  std::vector<double> values{1.5, 2.0, 5.0, 9.9};
  EXPECT_TRUE(choose_scale(values, true).identity());
}

TEST(Scaling, XSeriesNeverEnlarged) {
  std::vector<double> values{0.01, 0.02, 0.03, 0.05};
  EXPECT_TRUE(choose_scale(values, false).identity());
}

TEST(Scaling, SymbolSubstitution) {
  SeriesScale reduce{1000.0};
  EXPECT_EQ(scaled_symbol("Y", reduce), "Y/1000");
  SeriesScale enlarge{0.01};
  EXPECT_EQ(scaled_symbol("Y", enlarge), "Y*100");
  EXPECT_EQ(scaled_symbol("X", SeriesScale{}), "X");
}

// --- End-to-end inference on synthetic datasets ------------------------------

correlate::Dataset make_dataset(
    std::size_t n_vars, const std::function<double(double, double)>& truth,
    double x0_lo, double x0_hi, std::size_t n = 40) {
  correlate::Dataset dataset;
  dataset.n_vars = n_vars;
  util::Rng rng(99);
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(x0_lo, x0_hi);
    const double x1 = rng.uniform(0.0, 255.0);
    correlate::DataPoint p;
    p.xs = n_vars == 1 ? std::vector<double>{x0}
                       : std::vector<double>{x0, x1};
    p.y = truth(x0, x1);
    dataset.points.push_back(std::move(p));
  }
  return dataset;
}

GpConfig fast_config() {
  GpConfig config;
  config.population = 128;
  config.max_generations = 20;
  return config;
}

TEST(Infer, RecoversIdentity) {
  const auto dataset =
      make_dataset(1, [](double x, double) { return x; }, 0, 255);
  const auto result = infer_formula(dataset, fast_config());
  ASSERT_TRUE(result.has_value());
  const auto truth = [](std::span<const double> xs) { return xs[0]; };
  EXPECT_LT(relative_error(*result, dataset, truth).mean, 0.02);
}

TEST(Infer, RecoversAffineWithOffset) {
  const auto dataset = make_dataset(
      1, [](double x, double) { return 0.75 * x - 48.0; }, 0, 255);
  const auto result = infer_formula(dataset, fast_config());
  ASSERT_TRUE(result.has_value());
  const auto truth = [](std::span<const double> xs) {
    return 0.75 * xs[0] - 48.0;
  };
  EXPECT_LT(relative_error(*result, dataset, truth).mean, 0.02);
}

TEST(Infer, RecoversProductFormula) {
  // The paper's KWP RPM formula: Y = X0*X1/5.
  const auto dataset = make_dataset(
      2, [](double x0, double x1) { return x0 * x1 / 5.0; }, 30, 250);
  const auto result = infer_formula(dataset, fast_config());
  ASSERT_TRUE(result.has_value());
  const auto truth = [](std::span<const double> xs) {
    return xs[0] * xs[1] / 5.0;
  };
  EXPECT_LT(relative_error(*result, dataset, truth).mean, 0.02);
}

TEST(Infer, RecoversQuadratic) {
  const auto dataset = make_dataset(
      1, [](double x, double) { return 0.004 * x * x; }, 10, 250);
  const auto result = infer_formula(dataset, fast_config());
  ASSERT_TRUE(result.has_value());
  const auto truth = [](std::span<const double> xs) {
    return 0.004 * xs[0] * xs[0];
  };
  EXPECT_LT(relative_error(*result, dataset, truth).mean, 0.02);
}

TEST(Infer, RobustToOutliers) {
  auto dataset =
      make_dataset(1, [](double x, double) { return 2.0 * x; }, 0, 255);
  // Corrupt ~7% of targets with decimal-drop style outliers.
  dataset.points[3].y *= 10.0;
  dataset.points[17].y *= 100.0;
  dataset.points[29].y /= 10.0;
  const auto result = infer_formula(dataset, fast_config());
  ASSERT_TRUE(result.has_value());
  const auto truth = [](std::span<const double> xs) { return 2.0 * xs[0]; };
  EXPECT_LT(relative_error(*result, dataset, truth).mean, 0.02);
}

TEST(Infer, SeedShapesFitExactlyThroughGrossOutliers) {
  // Targets the seed skeletons can express exactly, with every 10th row
  // an OCR-style outlier (y * 7). The trimmed fitness drops those rows,
  // so tuning the seeds' constants must reach the exact fit before any
  // breeding: the tuner weights only the rows the trimmed mean keeps.
  // (A coordinate line search as tuner missed 9 of these 12 runs: every
  // product run stopped short of the exact fit, and every quadratic run
  // bred for all eight generations without converging.)
  struct Target {
    const char* name;
    double (*y)(double, double);
  };
  const Target targets[] = {
      {"0.05*X0*X1 + 3",
       [](double x0, double x1) { return 0.05 * x0 * x1 + 3; }},
      {"0.4*X0 - 0.25*X1 + 12",
       [](double x0, double x1) { return 0.4 * x0 - 0.25 * x1 + 12; }},
      {"1.5*X0 + 0.01*X0^2",
       [](double x0, double) { return 1.5 * x0 + 0.01 * x0 * x0; }},
  };
  for (const auto& target : targets) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      correlate::Dataset dataset;
      dataset.n_vars = 2;
      util::Rng rng(seed);
      for (int i = 0; i < 30; ++i) {
        const auto x0 = static_cast<double>(rng.uniform_int(0, 255));
        const auto x1 = static_cast<double>(rng.uniform_int(0, 255));
        const double y = target.y(x0, x1);
        dataset.points.push_back({{x0, x1}, i % 10 == 3 ? 7 * y : y});
      }
      GpConfig config;
      config.population = 64;
      config.max_generations = 8;
      config.seed = seed;
      const auto result = infer_formula(dataset, config);
      ASSERT_TRUE(result.has_value());
      EXPECT_TRUE(result->converged) << target.name << ", seed " << seed;
      EXPECT_EQ(result->generations_run, 0u)
          << target.name << ", seed " << seed;
      EXPECT_LT(result->fitness, 1e-12)
          << target.name << ", seed " << seed << ": " << result->formula;
    }
  }
}

TEST(Infer, ScalingSubstitutedIntoFormula) {
  // Targets in the thousands: Table 2 post-processing must appear.
  const auto dataset = make_dataset(
      1, [](double x, double) { return 64.0 * x + 32.0; }, 20, 250);
  const auto result = infer_formula(dataset, fast_config());
  ASSERT_TRUE(result.has_value());
  EXPECT_NE(result->formula.find("Y/"), std::string::npos);
}

TEST(Infer, TooFewPointsRejected) {
  correlate::Dataset dataset;
  dataset.n_vars = 1;
  for (int i = 0; i < 3; ++i) {
    dataset.points.push_back(correlate::DataPoint{{double(i)}, double(i)});
  }
  EXPECT_EQ(infer_formula(dataset, fast_config()), std::nullopt);
}

TEST(Infer, DeterministicForFixedSeed) {
  const auto dataset = make_dataset(
      1, [](double x, double) { return 0.5 * x + 3.0; }, 0, 255);
  const auto a = infer_formula(dataset, fast_config());
  const auto b = infer_formula(dataset, fast_config());
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->formula, b->formula);
}

TEST(Infer, TimingsAccountForTheRun) {
  // An exact affine target: its least-squares seed meets the threshold,
  // so the run stops at its seeds and its timings are theirs. Untuned,
  // each seed the lead's floor does not defer (of four one-variable
  // templates and up to four least-squares fits) is scored once and
  // nothing else runs; tuning adds its own evaluations and time.
  const auto dataset = make_dataset(
      1, [](double x, double) { return 3.0 * x + 11.0; }, 0, 255);
  GpConfig config = fast_config();
  config.constant_tuning = false;
  const auto untuned = infer_formula(dataset, config);
  ASSERT_TRUE(untuned.has_value());
  EXPECT_TRUE(untuned->converged);
  EXPECT_EQ(untuned->generations_run, 0u);
  EXPECT_GE(untuned->timings.evaluations, 4u);
  EXPECT_LE(untuned->timings.evaluations, 8u);
  EXPECT_EQ(untuned->timings.tuning_s, 0.0);

  const auto tuned = infer_formula(dataset, fast_config());
  ASSERT_TRUE(tuned.has_value());
  EXPECT_EQ(tuned->generations_run, 0u);
  EXPECT_GT(tuned->timings.evaluations, untuned->timings.evaluations);
  EXPECT_GT(tuned->timings.tuning_s, 0.0);

  for (const auto* result : {&*untuned, &*tuned}) {
    const auto& timings = result->timings;
    EXPECT_GT(timings.total_s, 0.0);
    EXPECT_GT(timings.scoring_s, 0.0);
    EXPECT_EQ(timings.breeding_s, 0.0);
    EXPECT_LE(timings.scoring_s + timings.tuning_s, timings.total_s);
  }
}

TEST(Infer, ConvergedSeedsSkipTheRandomPopulation) {
  // When the tuned seeds already meet criterion (ii), the run ends on
  // them at generation 0 without drawing or scoring the ramped
  // half-and-half genomes, so it evaluates fewer genomes than the
  // population holds.
  const auto dataset = make_dataset(
      1, [](double x, double) { return 0.25 * x - 7.0; }, 0, 255);
  const GpConfig config = fast_config();
  const auto seeded = infer_formula(dataset, config);
  ASSERT_TRUE(seeded.has_value());
  EXPECT_TRUE(seeded->converged);
  EXPECT_EQ(seeded->generations_run, 0u);
  EXPECT_LT(seeded->timings.evaluations, config.population);

  // Without seeds there is nothing to stop at: the random population is
  // drawn and scored in full.
  GpConfig unseeded_config = config;
  unseeded_config.seed_templates = false;
  unseeded_config.seed_least_squares = false;
  const auto unseeded = infer_formula(dataset, unseeded_config);
  ASSERT_TRUE(unseeded.has_value());
  EXPECT_GE(unseeded->timings.evaluations, config.population);

  // Nor does a threshold no fit reaches stop the run at its seeds.
  GpConfig exacting_config = config;
  exacting_config.fitness_threshold = 0.0;
  exacting_config.max_generations = 2;
  const auto exacting = infer_formula(dataset, exacting_config);
  ASSERT_TRUE(exacting.has_value());
  EXPECT_FALSE(exacting->converged);
  EXPECT_GE(exacting->timings.evaluations, config.population);
}

TEST(Infer, SeedsAboveTheLeadsFloorAreNeitherScoredNorTuned) {
  // An exact affine target. Its seven seeds, in population order, are
  // the templates X, (a*X), ((a*X)+b) and (a*(X*X)), then the affine
  // least-squares fit (5 genes) and the degree-2 fit and its robust refit
  // (11 genes each). A seed's penalized fitness is never below its floor,
  // parsimony x size, so once the affine fit leads at about 5 x parsimony
  // the two degree-2 seeds cannot become the elite, and the run stops at
  // its seeds without scoring or tuning them.
  //
  // The reference is the run that settles every seed: parsimony 0 makes
  // every floor 0. Parsimony is a constant of the engine now, so that
  // run's products are frozen here: its formula and fitness, the 7
  // evaluations it made with tuning off, and the 6 tuner inputs (every
  // seed but X) and 82 evaluations with tuning on.
  struct Settled {
    bool tuning;
    const char* formula;
    std::uint64_t fitness_bits;
    std::size_t evaluations;
    std::size_t tuner_inputs;
  };
  const Settled kSettled[] = {
      {false, "Y/100 = (0.11 + (3 * (X/100)))", 0x3dd559250e38e38eULL, 7, 0},
      {true, "Y/100 = ((3 * (X/100)) + 0.11)", 0x3cb0800000000000ULL, 82, 6},
  };
  const auto dataset = make_dataset(
      1, [](double x, double) { return 3.0 * x + 11.0; }, 0, 255);
  for (const auto& settled : kSettled) {
    SCOPED_TRACE(settled.tuning ? "tuning on" : "tuning off");
    GpConfig config = fast_config();
    config.constant_tuning = settled.tuning;
    const auto floored = infer_formula(dataset, config);
    ASSERT_TRUE(floored.has_value());
    EXPECT_TRUE(floored->converged);
    EXPECT_EQ(floored->generations_run, 0u);
    // The same elite as settling every seed.
    EXPECT_EQ(floored->formula, settled.formula);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(floored->fitness),
              settled.fitness_bits);
    if (!settled.tuning) {
      // One evaluation per scored seed.
      EXPECT_EQ(floored->timings.evaluations, 5u);
    } else {
      // Every seed with constants is one tuner input, a memo hit or miss;
      // a tuned seed is not evaluated again before tuning.
      EXPECT_EQ(floored->timings.cache_hits + floored->timings.cache_misses,
                4u);
      EXPECT_LT(floored->timings.evaluations, settled.evaluations);
    }
  }
}

TEST(Batch, PoolMatchesSerialInference) {
  const auto d0 = make_dataset(
      1, [](double x, double) { return 1.5 * x; }, 0, 255);
  const auto d1 = make_dataset(
      1, [](double x, double) { return 0.25 * x + 9.0; }, 0, 255);
  const auto d2 = make_dataset(
      2, [](double x0, double x1) { return x0 * x1 / 5.0; }, 30, 250);

  std::vector<BatchJob> jobs;
  for (const auto* d : {&d0, &d1, &d2}) {
    BatchJob job;
    job.dataset = d;
    job.config = fast_config();
    job.config.seed ^= jobs.size() * 0x1234567ULL;
    jobs.push_back(job);
  }
  util::ThreadPool pool(4);
  const auto serial = infer_batch(jobs);
  const auto parallel = infer_batch(jobs, &pool);
  ASSERT_EQ(serial.size(), 3u);
  ASSERT_EQ(parallel.size(), 3u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(serial[i].has_value());
    ASSERT_TRUE(parallel[i].has_value());
    EXPECT_EQ(serial[i]->formula, parallel[i]->formula) << "job " << i;
    EXPECT_EQ(serial[i]->fitness, parallel[i]->fitness) << "job " << i;
  }
}

TEST(Infer, ExpiredWatchdogStopsTheSearchAtItsNextGeneration) {
  const auto dataset = make_dataset(
      2, [](double x0, double x1) { return std::sin(x0) * x1 + 3.0; }, 0,
      255);
  GpConfig config = fast_config();
  config.fitness_threshold = 0.0;  // never converges: only the cap stops it
  config.max_generations = 5;
  util::SimClock clock;
  util::Watchdog watchdog;
  config.cancel = &watchdog;

  const auto unarmed = infer_formula(dataset, config);
  ASSERT_TRUE(unarmed.has_value());
  EXPECT_EQ(unarmed->generations_run, 5u);

  watchdog.arm("infer", 0.0, 1.0, &clock);
  const auto in_budget = infer_formula(dataset, config);
  ASSERT_TRUE(in_budget.has_value());
  EXPECT_EQ(in_budget->generations_run, 5u);

  clock.advance(2 * util::kSecond);
  const auto expired = infer_formula(dataset, config);
  ASSERT_TRUE(expired.has_value());
  EXPECT_EQ(expired->generations_run, 0u);
  EXPECT_FALSE(expired->formula.empty());
}

TEST(Infer, StopsEarlyWhenConverged) {
  const auto dataset =
      make_dataset(1, [](double x, double) { return x; }, 0, 255);
  const auto result = infer_formula(dataset, fast_config());
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->converged);
  EXPECT_LT(result->generations_run, 20u);
}

/// An affine truth with bounded noise on every row: the trimmed MAE has a
/// floor near the mean |noise|, far above criterion (ii)'s threshold (0.5%
/// of mean |Y|), so only the cap or the stall rule can end a run on it.
correlate::Dataset noisy_affine_dataset() {
  correlate::Dataset dataset;
  dataset.n_vars = 1;
  util::Rng rng(17);
  for (int i = 0; i < 40; ++i) {
    const auto x = static_cast<double>(rng.uniform_int(0, 255));
    dataset.points.push_back({{x}, 0.5 * x + 20.0 + rng.uniform(-2.0, 2.0)});
  }
  return dataset;
}

TEST(Infer, StalledSearchStopsBeforeTheCap) {
  const auto dataset = noisy_affine_dataset();
  GpConfig config;
  config.population = 64;
  const auto stalled = infer_formula(dataset, config);
  ASSERT_TRUE(stalled.has_value());
  EXPECT_FALSE(stalled->converged);
  EXPECT_LT(stalled->generations_run, config.max_generations);

  // The stop returns the search exactly as it stood after that
  // generation: a run capped there ends on the same result.
  config.max_generations = stalled->generations_run;
  const auto capped = infer_formula(dataset, config);
  ASSERT_TRUE(capped.has_value());
  EXPECT_EQ(capped->generations_run, stalled->generations_run);
  EXPECT_EQ(capped->formula, stalled->formula);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(capped->fitness),
            std::bit_cast<std::uint64_t>(stalled->fitness));
  std::string capped_key;
  std::string stalled_key;
  genome_key(capped->best, capped_key);
  genome_key(stalled->best, stalled_key);
  EXPECT_EQ(capped_key, stalled_key);
}

TEST(Infer, TunerMemoCountsItsTraffic) {
  // The constant tuner's memo is a run's one cache, and the timings'
  // cache counters are its traffic. Without tuning nothing is looked up:
  // every scored offspring is an evaluation.
  const auto dataset = noisy_affine_dataset();
  GpConfig config;
  config.population = 64;
  config.constant_tuning = false;
  const auto untuned = infer_formula(dataset, config);
  ASSERT_TRUE(untuned.has_value());
  EXPECT_EQ(untuned->timings.cache_hits, 0u);
  EXPECT_EQ(untuned->timings.cache_misses, 0u);

  // With tuning, a run of several generations hands the tuner fresh
  // inputs and, through the elite, inputs it has tuned before.
  config.constant_tuning = true;
  const auto tuned = infer_formula(dataset, config);
  ASSERT_TRUE(tuned.has_value());
  EXPECT_GT(tuned->generations_run, 1u);
  EXPECT_GT(tuned->timings.cache_hits, 0u);
  EXPECT_GT(tuned->timings.cache_misses, 0u);
}

TEST(Infer, PredictAppliesScalesEndToEnd) {
  const auto dataset = make_dataset(
      1, [](double x, double) { return 100.0 * x; }, 10, 250);
  const auto result = infer_formula(dataset, fast_config());
  ASSERT_TRUE(result.has_value());
  const std::vector<double> x{100.0};
  EXPECT_NEAR(result->predict(x), 10000.0, 200.0);
}

class AblationScaling : public ::testing::TestWithParam<bool> {};

TEST_P(AblationScaling, ExtremeTargetsNeedTable2) {
  // Y in the 10^4 range; without scaling GP tends to flatline (§3.5
  // step 3's motivating failure).
  const auto dataset = make_dataset(
      1, [](double x, double) { return 400.0 * x + 1000.0; }, 20, 250);
  GpConfig config = fast_config();
  config.use_scaling = GetParam();
  config.seed_least_squares = false;  // isolate the scaling effect
  const auto result = infer_formula(dataset, config);
  ASSERT_TRUE(result.has_value());
  const auto truth = [](std::span<const double> xs) {
    return 400.0 * xs[0] + 1000.0;
  };
  const double err = relative_error(*result, dataset, truth).mean;
  if (GetParam()) {
    EXPECT_LT(err, 0.05);
  }
  // (The unscaled variant is exercised for crash-freedom; its accuracy
  // is measured by bench_ablation_scaling.)
}

INSTANTIATE_TEST_SUITE_P(OnOff, AblationScaling, ::testing::Bool());

}  // namespace
}  // namespace dpr::gp

namespace dpr::gp {
namespace {

TEST(Limitations, SeedKeyStyleTransformNotRecovered) {
  // §6 limitation (2): DP-Reverser's GP covers arithmetic/transcendental
  // formulas, not bitwise seed-key transforms. Document the boundary.
  correlate::Dataset dataset;
  dataset.n_vars = 1;
  util::Rng rng(31);
  for (int i = 0; i < 40; ++i) {
    const auto x = static_cast<std::uint32_t>(rng.uniform_int(0, 255));
    const std::uint32_t y = ((x ^ 0xA5u) << 3 | (x ^ 0xA5u) >> 5) & 0xFF;
    dataset.points.push_back(
        correlate::DataPoint{{static_cast<double>(x)},
                             static_cast<double>(y)});
  }
  GpConfig config;
  config.population = 128;
  config.max_generations = 20;
  const auto result = infer_formula(dataset, config);
  ASSERT_TRUE(result.has_value());
  const auto truth = [](std::span<const double> xs) {
    const auto x = static_cast<std::uint32_t>(xs[0]);
    return static_cast<double>(((x ^ 0xA5u) << 3 | (x ^ 0xA5u) >> 5) & 0xFF);
  };
  EXPECT_GT(relative_error(*result, dataset, truth).max, 0.08);
}

TEST(Property, RandomExpressionsNeverProduceNonFiniteFitness) {
  // Protected operators guarantee finite evaluation everywhere.
  util::Rng rng(37);
  Genome genome;
  for (int trial = 0; trial < 300; ++trial) {
    random_genome(rng, 2, 4, rng.chance(0.5), genome);
    const std::vector<double> vars{rng.uniform(-1e4, 1e4),
                                   rng.uniform(-1e4, 1e4)};
    const double value = reference::eval(genome, vars).value;
    // Division/log/inv are protected; only tan can reach huge-but-finite.
    EXPECT_FALSE(std::isnan(value));
  }
}

TEST(Property, SimplifyPreservesSemantics) {
  util::Rng rng(41);
  Genome genome;
  for (int trial = 0; trial < 200; ++trial) {
    random_genome(rng, 2, 4, false, genome);
    Genome simplified = genome;
    simplify(simplified);
    for (int probe = 0; probe < 5; ++probe) {
      const std::vector<double> vars{rng.uniform(0.0, 255.0),
                                     rng.uniform(0.0, 255.0)};
      const double a = reference::eval(genome, vars).value;
      const double b = reference::eval(simplified, vars).value;
      if (std::isfinite(a) && std::isfinite(b)) {
        EXPECT_NEAR(a, b, 1e-6 * std::max(1.0, std::abs(a)));
      }
    }
  }
}

}  // namespace
}  // namespace dpr::gp
