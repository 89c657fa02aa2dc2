// GP fitness-evaluation throughput: per-sample Expr::eval vs the
// gp::Program bytecode tape, with the tape measured under both kernel
// tables — portable scalar and AVX2 SIMD (BENCH_gp_eval.json).
//
// The tape is the perf tentpole behind the inference phase: each
// expression is lowered once to a postfix instruction tape and scored
// against a column-major SampleMatrix, turning per-(node, sample)
// dispatch into one dispatch per node per batch; the SIMD kernels then
// process 4–8 samples per instruction. The contract is speed with zero
// drift — every trimmed MAE must match Expr::eval bit for bit on every
// kernel table — so this bench measures single-thread throughput for
// all three paths over real campaign datasets *and* hard-fails on any
// mismatch, then cross-checks full inference (formula + fitness bits +
// structural cache hit rate) between the scalar and SIMD tape.
//
// Usage: bench_gp_eval [--cars N] [--window S] [--population N]

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "gp/engine.hpp"
#include "gp/kernels.hpp"
#include "gp/program.hpp"

namespace {

using namespace dpr;
using Clock = std::chrono::steady_clock;

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
/// the identical keep-count and selection, shared verbatim by all
/// timing paths so a bit difference can only come from the predictions.
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
  std::vector<std::vector<double>> rows;  // row-major, for Expr::eval
  std::vector<double> ys;
  gp::SampleMatrix matrix;                // column-major, for the tape
  std::size_t n_vars = 1;
};

EvalCorpus make_corpus(const correlate::Dataset& dataset) {
  EvalCorpus corpus;
  corpus.n_vars = dataset.n_vars;
  for (const auto& point : dataset.points) {
    corpus.rows.push_back(point.xs);
    corpus.ys.push_back(point.y);
  }
  corpus.matrix = gp::SampleMatrix::from_rows(corpus.rows, corpus.n_vars);
  return corpus;
}

/// One timed tape pass over a population under the currently selected
/// kernel table. Compilation stays inside the timed region, just as the
/// engine recompiles every fresh offspring before scoring it.
double time_tape_pass(const std::vector<gp::Expr>& exprs,
                      const EvalCorpus& corpus, gp::Program& program,
                      gp::EvalScratch& scratch,
                      std::vector<double>& residuals,
                      std::vector<double>& maes) {
  const auto start = Clock::now();
  for (const auto& expr : exprs) {
    program.recompile(expr, corpus.n_vars);
    program.eval_batch(corpus.matrix, scratch);
    maes.push_back(trimmed_mae(scratch.predictions, corpus.ys, residuals));
  }
  return seconds_since(start);
}

struct InferTotals {
  std::size_t scored = 0;
  double scoring_s = 0.0;
  double infer_s = 0.0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
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

  std::printf("GP fitness evaluation: Expr::eval vs bytecode tape "
              "(scalar and SIMD kernels)\n");
  std::printf("(%zu cars, %.0f s windows, %zu expressions per dataset, "
              "single thread, AVX2 %s)\n\n",
              n_cars, window_s, population,
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

  // A breeding-shaped expression population per dataset: the mix the
  // engine actually scores (shallow grow trees, occasional full trees).
  util::Rng rng(0x6E5);
  std::size_t samples_total = 0;
  std::size_t mismatches = 0;
  double tree_s = 0.0;
  double scalar_s = 0.0;
  double simd_s = 0.0;
  std::vector<double> predictions;
  std::vector<double> residuals;
  gp::EvalScratch scratch;
  gp::Program program;

  for (const auto& dataset : datasets) {
    const auto corpus = make_corpus(dataset);
    std::vector<gp::Expr> exprs;
    for (std::size_t i = 0; i < population; ++i) {
      exprs.push_back(gp::random_expr(
          rng, corpus.n_vars, 2 + static_cast<int>(rng.uniform_int(0, 3)),
          rng.chance(0.3)));
    }
    samples_total += exprs.size() * corpus.rows.size();

    std::vector<double> tree_maes;
    auto start = Clock::now();
    for (const auto& expr : exprs) {
      predictions.clear();
      for (const auto& row : corpus.rows) {
        predictions.push_back(expr.eval(row));
      }
      tree_maes.push_back(trimmed_mae(predictions, corpus.ys, residuals));
    }
    tree_s += seconds_since(start);

    std::vector<double> scalar_maes;
    gp::set_simd_enabled(false);
    scalar_s += time_tape_pass(exprs, corpus, program, scratch, residuals,
                               scalar_maes);

    std::vector<double> simd_maes;
    if (simd_active) {
      gp::set_simd_enabled(true);
      simd_s += time_tape_pass(exprs, corpus, program, scratch, residuals,
                               simd_maes);
    }
    gp::set_simd_enabled(true);

    for (std::size_t i = 0; i < exprs.size(); ++i) {
      if (bits(tree_maes[i]) != bits(scalar_maes[i])) ++mismatches;
      if (simd_active && bits(tree_maes[i]) != bits(simd_maes[i])) {
        ++mismatches;
      }
    }
  }

  const double tree_rate = static_cast<double>(samples_total) / tree_s;
  const double scalar_rate =
      static_cast<double>(samples_total) / scalar_s;
  const double simd_rate =
      simd_active ? static_cast<double>(samples_total) / simd_s : 0.0;
  const double scalar_speedup = tree_s / std::max(1e-12, scalar_s);
  const double simd_speedup =
      simd_active ? tree_s / std::max(1e-12, simd_s) : 0.0;
  const double simd_vs_scalar =
      simd_active ? scalar_s / std::max(1e-12, simd_s) : 0.0;
  std::printf("datasets: %zu, sample evaluations per path: %zu\n",
              datasets.size(), samples_total);
  std::printf("  Expr::eval:    %8.3f s  (%12.0f sample-evals/s)\n",
              tree_s, tree_rate);
  std::printf("  scalar tape:   %8.3f s  (%12.0f sample-evals/s)  "
              "%.2fx vs tree\n",
              scalar_s, scalar_rate, scalar_speedup);
  if (simd_active) {
    std::printf("  SIMD tape:     %8.3f s  (%12.0f sample-evals/s)  "
                "%.2fx vs tree, %.2fx vs scalar tape\n",
                simd_s, simd_rate, simd_speedup, simd_vs_scalar);
  } else {
    std::printf("  SIMD tape:     (not available on this host/build)\n");
  }
  std::printf("  MAE bits: %s\n",
              mismatches == 0 ? "identical" : "DIFFER");

  // --- Table 8 workload: deployed fitness-evaluation throughput -------------
  // The engine as shipped is tape + structural cache; its throughput
  // metric is *scored offspring per scoring-second* (a cache hit scores
  // an offspring without an evaluation), compared between the scalar and
  // SIMD kernel tables. Table 8's config: the paper's population and
  // generation cap with the improved-GP extras off, so fitness scoring
  // is the measured phase.
  gp::GpConfig config;
  config.population = 1000;      // the paper's population
  config.max_generations = 30;   // and generation cap
  config.seed_least_squares = false;
  config.seed_templates = false;
  config.constant_tuning = false;
  config.fitness_threshold = 0.0;  // run all generations

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
      // Every scored offspring: fresh evaluations plus cache hits.
      totals.scored += r.timings.evaluations + r.timings.cache_hits;
      totals.scoring_s += r.timings.scoring_s;
      totals.cache_hits += r.timings.cache_hits;
      totals.cache_misses += r.timings.cache_misses;
    };
    add_tape(scalar_totals, *by_scalar);
    if (simd_active) add_tape(simd_totals, *by_simd);
  }
  const auto throughput = [](const InferTotals& totals) {
    return static_cast<double>(totals.scored) /
           std::max(1e-12, totals.scoring_s);
  };
  const double scalar_throughput = throughput(scalar_totals);
  const double simd_throughput = simd_active ? throughput(simd_totals) : 0.0;
  const double simd_throughput_vs_scalar =
      simd_active ? simd_throughput / scalar_throughput : 0.0;
  const double hit_rate =
      scalar_totals.cache_hits + scalar_totals.cache_misses == 0
          ? 0.0
          : static_cast<double>(scalar_totals.cache_hits) /
                static_cast<double>(scalar_totals.cache_hits +
                                    scalar_totals.cache_misses);
  std::printf("\nTable 8 workload (%zu datasets, population %zu x %zu "
              "generations):\n",
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
  std::printf("  structural cache: %zu hits / %zu misses (%.1f%% hit "
              "rate)\n",
              scalar_totals.cache_hits, scalar_totals.cache_misses,
              100.0 * hit_rate);

  if (std::FILE* out = std::fopen("BENCH_gp_eval.json", "w")) {
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"cars\": %zu,\n", n_cars);
    std::fprintf(out, "  \"datasets\": %zu,\n", datasets.size());
    std::fprintf(out, "  \"population\": %zu,\n", population);
    std::fprintf(out, "  \"simd_active\": %s,\n",
                 simd_active ? "true" : "false");
    std::fprintf(out, "  \"sample_evaluations\": %zu,\n", samples_total);
    std::fprintf(out, "  \"tree_s\": %.6f,\n", tree_s);
    std::fprintf(out, "  \"scalar_tape_s\": %.6f,\n", scalar_s);
    std::fprintf(out, "  \"simd_tape_s\": %.6f,\n", simd_s);
    std::fprintf(out, "  \"tree_sample_evals_per_s\": %.0f,\n", tree_rate);
    std::fprintf(out, "  \"scalar_tape_sample_evals_per_s\": %.0f,\n",
                 scalar_rate);
    std::fprintf(out, "  \"simd_tape_sample_evals_per_s\": %.0f,\n",
                 simd_rate);
    std::fprintf(out, "  \"scalar_tape_speedup_vs_tree\": %.4f,\n",
                 scalar_speedup);
    std::fprintf(out, "  \"simd_tape_speedup_vs_tree\": %.4f,\n",
                 simd_speedup);
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
    std::fprintf(out, "    \"results_identical\": %s,\n",
                 infer_identical ? "true" : "false");
    std::fprintf(out, "    \"cache_hits\": %zu,\n", scalar_totals.cache_hits);
    std::fprintf(out, "    \"cache_misses\": %zu,\n",
                 scalar_totals.cache_misses);
    std::fprintf(out, "    \"cache_hit_rate\": %.4f\n", hit_rate);
    std::fprintf(out, "  }\n}\n");
    std::fclose(out);
    std::printf("  wrote BENCH_gp_eval.json\n");
  }

  // Bit-identity is the hard contract; "tape at least as fast as
  // Expr::eval" on the raw eval path is the perf floor CI enforces, and
  // when the AVX2 kernels are active the SIMD tape must additionally not
  // regress below the scalar tape there. The ≥2x SIMD-vs-scalar target
  // is host-dependent, so it is recorded in the JSON, not asserted.
  if (mismatches != 0 || !infer_identical) return 1;
  if (scalar_speedup < 1.0) return 1;
  if (simd_active && simd_vs_scalar < 1.0) return 1;
  return 0;
}
