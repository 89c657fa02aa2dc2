#pragma once
// The improved genetic-programming symbolic-regression engine of §3.5:
// tournament selection, subtree crossover, subtree/point mutation, MAE
// fitness, the paper's two stopping criteria (max generations / fitness
// threshold), Table-2 pre/post scaling, plus the "improved" ingredients —
// affine seed templates and per-generation constant refinement — that let
// the search recover manufacturer formulas reliably at small populations.

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "correlate/correlate.hpp"
#include "gp/expr.hpp"
#include "gp/scaling.hpp"
#include "util/watchdog.hpp"

namespace dpr::gp {

struct GpConfig {
  std::size_t population = 256;
  std::size_t max_generations = 30;   // the paper's cap (§4.3)
  /// Stopping criterion (ii): stop when the trimmed MAE falls below this
  /// fraction of the mean |target| (relative, so it is meaningful at
  /// every Table-2 scale).
  double fitness_threshold = 0.005;
  int init_depth_min = 2;
  int init_depth_max = 4;
  int max_depth = 6;
  std::size_t tournament = 7;
  double crossover_rate = 0.65;
  double subtree_mutation_rate = 0.15;
  double point_mutation_rate = 0.12;  // remainder reproduces
  double parsimony = 0.0004;          // fitness penalty per node
  /// Fraction of residuals kept by the trimmed-MAE fitness. OCR errors
  /// that survive the §3.3 filter appear as gross outliers; trimming is
  /// what makes GP "robust to outliers/noise" (§4.4) where plain
  /// least-squares baselines are not.
  double trim_fraction = 0.9;
  bool seed_templates = true;         // affine/product starting points
  bool seed_least_squares = true;     // OLS-initialized affine/poly seeds
  bool constant_tuning = true;        // per-generation constant refinement
  bool use_scaling = true;            // Table 2 pre/post processing
  /// Structural fitness cache: offspring whose canonical tape matches an
  /// already-scored shape reuse that trimmed MAE instead of being
  /// rescored. Cached values are pure functions of the shape and
  /// the dataset, so the cache cannot change any result — only skip work.
  bool fitness_cache = true;
  std::size_t fitness_cache_capacity = 1 << 15;  // entries before eviction
  std::uint64_t seed = 0x6B5;
  /// Worker threads for fitness scoring, constant tuning and offspring
  /// breeding. 0 = hardware concurrency, 1 = fully serial. The evolved
  /// population is decomposed into fixed chunks with per-chunk forked RNG
  /// streams, so the result is bit-identical for every thread count.
  std::size_t n_threads = 1;
  /// Cooperative cancellation: checked once per generation. When the token
  /// expires (phase watchdog deadline) the search stops early and returns
  /// the best expression found so far. null = never cancelled.
  const util::CancelToken* cancel = nullptr;
};

/// Where the inference time went. The per-stage fields are CPU-seconds
/// summed across workers (so they can exceed total_s when n_threads > 1);
/// total_s is the wall clock for the whole call.
struct GpStageTimings {
  double scoring_s = 0.0;   // fitness evaluation of fresh offspring
  double tuning_s = 0.0;    // coordinate-descent constant refinement
  double breeding_s = 0.0;  // selection + crossover/mutation
  double total_s = 0.0;     // wall clock, end to end
  std::size_t evaluations = 0;  // trimmed-MAE evaluations performed
  /// Structural-cache traffic during offspring scoring (a hit replaces
  /// one evaluation). Observational, like the stage
  /// timings: excluded from report signatures.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
};

struct GpResult {
  Expr best;                      // over the *scaled* variables
  std::size_t n_vars = 1;
  double fitness = 1e300;         // MAE on the scaled target
  std::size_t generations_run = 0;
  bool converged = false;         // stopped by the fitness criterion
  std::vector<SeriesScale> x_scales;
  SeriesScale y_scale;
  std::string formula;            // substituted form, e.g. "Y/1000 = X/100"
  GpStageTimings timings;

  /// Predict the displayed value from raw operands (applies scaling).
  double predict(std::span<const double> raw_xs) const;
};

/// Run symbolic regression on an aligned dataset. Returns nullopt when
/// the dataset is too small to constrain a formula.
std::optional<GpResult> infer_formula(const correlate::Dataset& dataset,
                                      const GpConfig& config = {});

/// Mean relative deviation between a result's predictions and a ground
/// truth function over the dataset's X points — the §4.2/§4.3 criterion
/// ("the outputs of the two formulas are almost the same").
double mean_relative_error(
    const GpResult& result, const correlate::Dataset& dataset,
    const std::function<double(std::span<const double>)>& truth);

/// Worst-case relative deviation over the dataset's X points. A formula
/// with the right structure is uniformly close to the ground truth; a
/// locally-fitted wrong structure (e.g. a line through a product surface)
/// shows large pointwise errors even when the mean is small.
double max_relative_error(
    const GpResult& result, const correlate::Dataset& dataset,
    const std::function<double(std::span<const double>)>& truth);

}  // namespace dpr::gp
