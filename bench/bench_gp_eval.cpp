// GP fitness-evaluation throughput: the gp::Program bytecode tape under
// both kernel tables — portable scalar and AVX2 SIMD (BENCH_gp_eval.json).
//
// The tape is the perf tentpole behind the inference phase: each genome
// is lowered once to a postfix instruction tape and scored against a
// column-major SampleMatrix, one dispatch per node per batch; the SIMD
// kernels then process 4–8 samples per instruction. The contract is speed
// with zero drift — the SIMD tape's trimmed MAE must match the scalar
// tape's bit for bit — so this bench measures single-thread throughput
// for both tables over real campaign datasets *and* hard-fails on any
// mismatch, then cross-checks full inference (formula, fitness bits and
// generations) between them. Each path's time on a dataset
// is the best of kTimedPasses alternating scalar/SIMD passes, with the
// MAE bits compared on every pass. The tape-vs-reference bit check lives
// in gp_program_test's differential fuzz.
//
// Usage: bench_gp_eval [--cars N] [--window S] [--population N]

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "gp/engine.hpp"
#include "gp/genome.hpp"
#include "gp/kernels.hpp"
#include "gp/program.hpp"

namespace {

using namespace dpr;
using Clock = std::chrono::steady_clock;

/// Timed passes per path and dataset. One pass at CI's size takes a few
/// milliseconds, so a single pass is at the mercy of one scheduler
/// hiccup; the best of several alternating passes is not.
constexpr int kTimedPasses = 7;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Representative non-enum datasets from one car's campaign.
std::vector<correlate::Dataset> collect_datasets(vehicle::CarId car,
                                                 util::SimTime window,
                                                 std::size_t cap = 8) {
  auto options = bench::table_options();
  options.live_window = window;
  options.run_inference = false;
  core::Campaign campaign(car, options);
  campaign.collect();
  campaign.analyze();
  std::vector<correlate::Dataset> datasets;
  for (const auto& finding : campaign.report().signals) {
    if (finding.is_enum || finding.dataset.points.size() < 6) continue;
    datasets.push_back(finding.dataset);
    if (datasets.size() >= cap) break;
  }
  return datasets;
}

/// Trimmed MAE over precomputed predictions — the engine's fitness, with
/// the identical keep-count and selection, shared verbatim by both
/// kernel tables so a bit difference can only come from the predictions.
double trimmed_mae(const std::vector<double>& predictions,
                   const std::vector<double>& ys,
                   std::vector<double>& residuals) {
  residuals.clear();
  for (std::size_t i = 0; i < ys.size(); ++i) {
    const double r = std::abs(predictions[i] - ys[i]);
    if (!std::isfinite(r)) return 1e300;
    residuals.push_back(r);
  }
  const std::size_t keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(0.9 * static_cast<double>(
                                            residuals.size())));
  std::nth_element(residuals.begin(), residuals.begin() + (keep - 1),
                   residuals.end());
  double sum = 0.0;
  for (std::size_t i = 0; i < keep; ++i) sum += residuals[i];
  return sum / static_cast<double>(keep);
}

struct EvalCorpus {
  std::vector<double> ys;
  gp::SampleMatrix matrix;  // column-major, for the tape
  std::size_t n_vars = 1;
};

EvalCorpus make_corpus(const correlate::Dataset& dataset) {
  EvalCorpus corpus;
  corpus.n_vars = dataset.n_vars;
  std::vector<std::vector<double>> rows;
  for (const auto& point : dataset.points) {
    rows.push_back(point.xs);
    corpus.ys.push_back(point.y);
  }
  corpus.matrix = gp::SampleMatrix::from_rows(rows, corpus.n_vars);
  return corpus;
}

/// One timed tape pass over a population under the currently selected
/// kernel table. Lowering stays inside the timed region, just as the
/// engine loads every fresh offspring's genome before scoring it.
double time_tape_pass(const std::vector<gp::Genome>& genomes,
                      const EvalCorpus& corpus, gp::Program& program,
                      gp::EvalScratch& scratch,
                      std::vector<double>& residuals,
                      std::vector<double>& maes) {
  const auto start = Clock::now();
  for (const auto& genome : genomes) {
    program.load(genome, corpus.n_vars);
    program.eval_batch(corpus.matrix, scratch);
    maes.push_back(trimmed_mae(scratch.predictions, corpus.ys, residuals));
  }
  return seconds_since(start);
}

struct InferTotals {
  std::size_t evaluations = 0;
  double scoring_s = 0.0;
  double infer_s = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  // 96 s windows approximate the paper's full-log campaign batches
  // (~180-sample datasets, the Table 8 regime where batched evaluation
  // amortizes per-offspring overhead); CI shrinks them with --window
  // for smoke runs.
  std::size_t n_cars = 2;
  double window_s = 96.0;
  std::size_t population = 512;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "usage: bench_gp_eval [--cars N] [--window S] "
                     "[--population N]\n");
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--cars") == 0) {
      n_cars = static_cast<std::size_t>(std::atoll(next()));
    } else if (std::strcmp(argv[i], "--window") == 0) {
      window_s = std::atof(next());
    } else if (std::strcmp(argv[i], "--population") == 0) {
      population = static_cast<std::size_t>(std::atoll(next()));
    } else {
      std::fprintf(stderr, "unknown option %s\n", argv[i]);
      return 2;
    }
  }
  n_cars = std::min(n_cars, vehicle::catalog().size());
  const auto window =
      static_cast<util::SimTime>(window_s * util::kSecond);
  const bool simd_active = gp::simd_supported();

  std::printf("GP fitness evaluation: bytecode tape, scalar vs SIMD "
              "kernels\n");
  std::printf("(%zu cars, %.0f s windows, %zu expressions per dataset, "
              "single thread, best of %d passes, AVX2 %s)\n\n",
              n_cars, window_s, population, kTimedPasses,
              simd_active ? "active" : "unavailable");

  std::vector<correlate::Dataset> datasets;
  for (std::size_t c = 0; c < n_cars; ++c) {
    const auto car_sets =
        collect_datasets(static_cast<vehicle::CarId>(c), window);
    datasets.insert(datasets.end(), car_sets.begin(), car_sets.end());
  }
  if (datasets.empty()) {
    std::fprintf(stderr, "no datasets collected\n");
    return 1;
  }

  // A breeding-shaped genome population per dataset: the mix the engine
  // actually scores (shallow grow trees, occasional full trees).
  util::Rng rng(0x6E5);
  std::size_t samples_total = 0;
  std::size_t mismatches = 0;
  double scalar_s = 0.0;
  double simd_s = 0.0;
  std::vector<double> residuals;
  gp::EvalScratch scratch;
  gp::Program program;

  for (const auto& dataset : datasets) {
    const auto corpus = make_corpus(dataset);
    std::vector<gp::Genome> genomes(population);
    for (auto& genome : genomes) {
      const int depth = 2 + static_cast<int>(rng.uniform_int(0, 3));
      const bool full = rng.chance(0.3);
      gp::random_genome(rng, corpus.n_vars, depth, full, genome);
    }
    samples_total += genomes.size() * corpus.ys.size();

    double scalar_best = std::numeric_limits<double>::infinity();
    double simd_best = scalar_best;
    std::vector<double> scalar_maes;
    std::vector<double> simd_maes;
    for (int pass = 0; pass < kTimedPasses; ++pass) {
      scalar_maes.clear();
      gp::set_simd_enabled(false);
      scalar_best = std::min(
          scalar_best, time_tape_pass(genomes, corpus, program, scratch,
                                      residuals, scalar_maes));
      gp::set_simd_enabled(true);
      if (!simd_active) continue;
      simd_maes.clear();
      simd_best = std::min(
          simd_best, time_tape_pass(genomes, corpus, program, scratch,
                                    residuals, simd_maes));
      for (std::size_t i = 0; i < genomes.size(); ++i) {
        if (bits(scalar_maes[i]) != bits(simd_maes[i])) ++mismatches;
      }
    }
    scalar_s += scalar_best;
    if (simd_active) simd_s += simd_best;
  }

  const double scalar_rate =
      static_cast<double>(samples_total) / scalar_s;
  const double simd_rate =
      simd_active ? static_cast<double>(samples_total) / simd_s : 0.0;
  const double simd_vs_scalar =
      simd_active ? scalar_s / std::max(1e-12, simd_s) : 0.0;
  std::printf("datasets: %zu, sample evaluations per path: %zu\n",
              datasets.size(), samples_total);
  std::printf("  scalar tape:   %8.3f s  (%12.0f sample-evals/s)\n",
              scalar_s, scalar_rate);
  if (simd_active) {
    std::printf("  SIMD tape:     %8.3f s  (%12.0f sample-evals/s)  "
                "%.2fx vs scalar tape\n",
                simd_s, simd_rate, simd_vs_scalar);
  } else {
    std::printf("  SIMD tape:     (not available on this host/build)\n");
  }
  std::printf("  MAE bits: %s\n",
              mismatches == 0 ? "identical" : "DIFFER");

  // --- Table 8 workload: deployed fitness-evaluation throughput -------------
  // The throughput metric is *scored offspring per scoring-second*,
  // compared between the scalar and SIMD kernel tables. Table 8's config:
  // the paper's population and generation cap with the improved-GP extras
  // off, so fitness scoring is the measured phase and every evaluation
  // scores one offspring.
  gp::GpConfig config;
  config.population = 1000;      // the paper's population
  config.max_generations = 30;   // and generation cap
  config.seed_least_squares = false;
  config.seed_templates = false;
  config.constant_tuning = false;
  // No threshold stop; the stall rule may still end a run before the cap.
  config.fitness_threshold = 0.0;

  bool infer_identical = true;
  InferTotals scalar_totals;
  InferTotals simd_totals;
  for (std::size_t i = 0; i < datasets.size(); ++i) {
    config.seed = gp::GpConfig{}.seed ^ (i * 0x9E3779B9ULL);
    gp::set_simd_enabled(false);
    auto start = Clock::now();
    const auto by_scalar = gp::infer_formula(datasets[i], config);
    scalar_totals.infer_s += seconds_since(start);

    std::optional<gp::GpResult> by_simd;
    if (simd_active) {
      gp::set_simd_enabled(true);
      start = Clock::now();
      by_simd = gp::infer_formula(datasets[i], config);
      simd_totals.infer_s += seconds_since(start);
    }
    gp::set_simd_enabled(true);

    if (simd_active && by_scalar.has_value() != by_simd.has_value()) {
      infer_identical = false;
      continue;
    }
    if (!by_scalar) continue;
    if (simd_active && (by_scalar->formula != by_simd->formula ||
                        bits(by_scalar->fitness) != bits(by_simd->fitness) ||
                        by_scalar->generations_run !=
                            by_simd->generations_run)) {
      infer_identical = false;
    }
    const auto add_tape = [&](InferTotals& totals, const gp::GpResult& r) {
      totals.evaluations += r.timings.evaluations;
      totals.scoring_s += r.timings.scoring_s;
    };
    add_tape(scalar_totals, *by_scalar);
    if (simd_active) add_tape(simd_totals, *by_simd);
  }
  const auto throughput = [](const InferTotals& totals) {
    return static_cast<double>(totals.evaluations) /
           std::max(1e-12, totals.scoring_s);
  };
  const double scalar_throughput = throughput(scalar_totals);
  const double simd_throughput = simd_active ? throughput(simd_totals) : 0.0;
  const double simd_throughput_vs_scalar =
      simd_active ? simd_throughput / scalar_throughput : 0.0;
  std::printf("\nTable 8 workload (%zu datasets, population %zu x at most "
              "%zu generations):\n",
              datasets.size(), config.population, config.max_generations);
  std::printf("  fitness scoring: scalar tape %8.3f s (%9.0f scores/s)\n",
              scalar_totals.scoring_s, scalar_throughput);
  if (simd_active) {
    std::printf("                     SIMD tape %8.3f s (%9.0f scores/s)  "
                "%.2fx vs scalar tape\n",
                simd_totals.scoring_s, simd_throughput,
                simd_throughput_vs_scalar);
  }
  std::printf("  end-to-end inference: scalar tape %8.3f s   SIMD tape "
              "%8.3f s   (results %s)\n",
              scalar_totals.infer_s, simd_totals.infer_s,
              infer_identical ? "identical" : "DIFFER");

  if (std::FILE* out = std::fopen("BENCH_gp_eval.json", "w")) {
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"cars\": %zu,\n", n_cars);
    std::fprintf(out, "  \"datasets\": %zu,\n", datasets.size());
    std::fprintf(out, "  \"population\": %zu,\n", population);
    std::fprintf(out, "  \"simd_active\": %s,\n",
                 simd_active ? "true" : "false");
    std::fprintf(out, "  \"sample_evaluations\": %zu,\n", samples_total);
    std::fprintf(out, "  \"timed_passes\": %d,\n", kTimedPasses);
    std::fprintf(out, "  \"scalar_tape_s\": %.6f,\n", scalar_s);
    std::fprintf(out, "  \"simd_tape_s\": %.6f,\n", simd_s);
    std::fprintf(out, "  \"scalar_tape_sample_evals_per_s\": %.0f,\n",
                 scalar_rate);
    std::fprintf(out, "  \"simd_tape_sample_evals_per_s\": %.0f,\n",
                 simd_rate);
    std::fprintf(out, "  \"simd_tape_speedup_vs_scalar\": %.4f,\n",
                 simd_vs_scalar);
    std::fprintf(out, "  \"mae_bit_identical\": %s,\n",
                 mismatches == 0 ? "true" : "false");
    std::fprintf(out, "  \"table8\": {\n");
    std::fprintf(out, "    \"population\": %zu,\n", config.population);
    std::fprintf(out, "    \"generations\": %zu,\n", config.max_generations);
    std::fprintf(out, "    \"scalar_tape_scoring_s\": %.6f,\n",
                 scalar_totals.scoring_s);
    std::fprintf(out, "    \"simd_tape_scoring_s\": %.6f,\n",
                 simd_totals.scoring_s);
    std::fprintf(out, "    \"scalar_tape_scores_per_s\": %.0f,\n",
                 scalar_throughput);
    std::fprintf(out, "    \"simd_tape_scores_per_s\": %.0f,\n",
                 simd_throughput);
    std::fprintf(out, "    \"simd_throughput_vs_scalar\": %.4f,\n",
                 simd_throughput_vs_scalar);
    std::fprintf(out, "    \"scalar_tape_infer_s\": %.6f,\n",
                 scalar_totals.infer_s);
    std::fprintf(out, "    \"simd_tape_infer_s\": %.6f,\n",
                 simd_totals.infer_s);
    std::fprintf(out, "    \"evaluations\": %zu,\n",
                 scalar_totals.evaluations);
    std::fprintf(out, "    \"results_identical\": %s\n",
                 infer_identical ? "true" : "false");
    std::fprintf(out, "  }\n}\n");
    std::fclose(out);
    std::printf("  wrote BENCH_gp_eval.json\n");
  }

  // Bit-identity is the hard contract; when the AVX2 kernels are active
  // the SIMD tape must also not regress below the scalar tape on the raw
  // eval path. The ≥2x SIMD-vs-scalar target is host-dependent, so it is
  // recorded in the JSON, not asserted.
  if (mismatches != 0 || !infer_identical) return 1;
  if (simd_active && simd_vs_scalar < 1.0) return 1;
  return 0;
}
