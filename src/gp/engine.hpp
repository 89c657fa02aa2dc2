#pragma once
// The improved genetic-programming symbolic-regression engine of §3.5:
// tournament selection, subtree crossover, subtree/point mutation, MAE
// fitness, Table-2 pre/post scaling, plus the "improved" ingredients —
// affine seed templates and constant refinement (robust Gauss-Newton on
// the trimmed MAE: the seeds once, the top three every generation) — that
// let the search recover manufacturer formulas reliably at small
// populations.
//
// Three stopping criteria: the paper's (i) generation cap and (ii)
// fitness threshold, and (iii) a stall rule: stop once five generations
// have gained less than 0.1% of the elite's penalized fitness. OCR
// misreads and clock-alignment error leave some datasets a noise floor
// above the threshold; without (iii) those runs breed to the cap on a
// formula they already hold. (ii) is checked first on the tuned seeds:
// when their elite already meets it, the run ends there at generation 0
// and the random part of the initial population is never drawn or
// scored.
//
// Each seed is tuned right after it is scored, on the tape score() left.
// A seed's penalized fitness (trimmed MAE + parsimony x size) is never
// below its floor, parsimony x size, because the trimmed MAE is never
// negative. So while the lead (the least penalized fitness of the seeds
// settled so far) is below a seed's floor, that seed cannot become the
// elite, and it waits unscored and untuned. When the run stops at its
// seeds, the waiting ones are never settled. Otherwise they are settled
// in index order before the random genomes are drawn, and the population
// is what settling every seed in turn gives.
//
// Individuals are flat prefix genomes (gp/genome.hpp), as in gplearn:
// crossover and subtree mutation splice subtree spans, point mutation and
// constant tuning edit genes in place, and scoring lowers every fresh
// offspring's genome straight to a gp::Program tape. As in gplearn there
// is no fitness cache; the one memo is the tuner's, keyed on the
// serialized genome. Generations are double-buffered, so once warm,
// breeding an offspring allocates nothing. Seeds are genome literals, and
// the result's `best` stays a genome: simplify(), printing and predict()
// run on it.

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "correlate/correlate.hpp"
#include "gp/genome.hpp"
#include "gp/scaling.hpp"
#include "regress/regress.hpp"
#include "util/watchdog.hpp"

namespace dpr::gp {

/// What a run may vary: the settings Tables 2 and 8 sweep, plus the seed.
/// The rest of the gplearn-style search (initial and maximum depth,
/// tournament size, breeding rates, parsimony, trim fraction) is fixed in
/// engine.cpp.
struct GpConfig {
  std::size_t population = 256;
  std::size_t max_generations = 30;   // the paper's cap (§4.3)
  /// Stopping criterion (ii): stop when the trimmed MAE falls below this
  /// fraction of the mean |target| (relative, so it is meaningful at
  /// every Table-2 scale).
  double fitness_threshold = 0.005;
  bool seed_templates = true;         // affine/product starting points
  bool seed_least_squares = true;     // OLS-initialized affine/poly seeds
  bool constant_tuning = true;        // per-generation constant refinement
  bool use_scaling = true;            // Table 2 pre/post processing
  std::uint64_t seed = 0x6B5;
  /// Cooperative cancellation: checked once per generation. When the
  /// phase watchdog has expired the search stops early and returns the
  /// best expression found so far. null = never cancelled.
  const util::Watchdog* cancel = nullptr;
};

/// Where the inference time went: wall-clock seconds per stage, and
/// total_s for the whole call.
struct GpStageTimings {
  double scoring_s = 0.0;   // fitness evaluation of fresh offspring
  double tuning_s = 0.0;    // Gauss-Newton constant refinement
  double breeding_s = 0.0;  // selection + crossover/mutation
  double total_s = 0.0;     // wall clock, end to end
  std::size_t evaluations = 0;  // trimmed-MAE evaluations performed
  /// Constant-tuning memo traffic: a hit returns an input tuned before
  /// in this run without evaluating. Observational, like the stage
  /// timings: excluded from report signatures and checkpoints.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
};

struct GpResult {
  /// Simplified, over the *scaled* variables; the tree "0" until inferred.
  Genome best{Gene{}};
  std::size_t n_vars = 1;
  double fitness = 1e300;         // MAE on the scaled target
  std::size_t generations_run = 0;
  bool converged = false;         // stopped by criterion (ii)
  std::vector<SeriesScale> x_scales;
  SeriesScale y_scale;
  std::string formula;            // substituted form, e.g. "Y/1000 = X/100"
  GpStageTimings timings;

  /// Predict the displayed value from raw operands (applies scaling).
  /// Throws std::out_of_range when `raw_xs` has fewer than n_vars
  /// operands.
  double predict(std::span<const double> raw_xs) const;
};

/// Run symbolic regression on an aligned dataset. Returns nullopt when
/// the dataset is too small to constrain a formula.
std::optional<GpResult> infer_formula(const correlate::Dataset& dataset,
                                      const GpConfig& config = {});

/// regress::relative_error of the result's predictions against the ground
/// truth at the dataset's X points (`expected`, one value per point, or
/// `truth` evaluated once at each). The genome is lowered once per call.
regress::RelativeError relative_error(const GpResult& result,
                                      const correlate::Dataset& dataset,
                                      std::span<const double> expected);
regress::RelativeError relative_error(const GpResult& result,
                                      const correlate::Dataset& dataset,
                                      const regress::Formula& truth);

}  // namespace dpr::gp
