#include "gp/engine.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "gp/genome.hpp"
#include "gp/program.hpp"
#include "regress/regress.hpp"

namespace dpr::gp {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Offspring per breeding chunk. Each chunk owns an RNG stream, forked
/// serially from the run's master stream; the chunk -> stream mapping is
/// part of what fixes the evolved population, so the chunk size never
/// changes.
constexpr std::size_t kBreedChunk = 32;

/// Stopping criterion (iii), the stall: stop once the elite's penalized
/// fitness has gained less than kStallGain of itself over the last
/// kStallGenerations generations. OCR misreads and clock-alignment error
/// put a noise floor under some datasets' trimmed MAE, above criterion
/// (ii)'s threshold; without this rule those runs breed to the cap while
/// the tuner nudges constants by fractions of a percent. Named constants
/// rather than GpConfig fields, so the options digest does not see them.
constexpr std::size_t kStallGenerations = 5;
constexpr double kStallGain = 1e-3;

/// The gplearn-style search settings of §3.5. Tables 2 and 8 vary only
/// what GpConfig holds, so these are constants, outside the options
/// digest like the stall rule's.
constexpr int kInitDepthMin = 2;  // ramped half-and-half depths
constexpr int kInitDepthMax = 4;
constexpr int kMaxDepth = 6;  // a deeper offspring is rejected
constexpr std::size_t kTournament = 7;
constexpr double kCrossoverRate = 0.65;
constexpr double kSubtreeMutationRate = 0.15;
constexpr double kPointMutationRate = 0.12;  // the remainder reproduces
constexpr double kParsimony = 0.0004;        // fitness penalty per gene
/// Fraction of residuals kept by the trimmed-MAE fitness. OCR errors that
/// survive the §3.3 filter appear as gross outliers; trimming is what
/// makes GP "robust to outliers/noise" (§4.4) where plain least-squares
/// baselines are not.
constexpr double kTrimFraction = 0.9;

struct Individual {
  Genome genome;
  double fitness = 1e300;    // raw MAE
  double penalized = 1e300;  // MAE + kParsimony x size
};

/// Everything fitness evaluation reads, fixed for one infer_formula run.
/// `matrix` holds the samples column-major for the tape interpreter's
/// streaming loops.
struct FitnessData {
  const std::vector<double>* ys = nullptr;
  SampleMatrix matrix;
  std::size_t n_vars = 1;
};

/// A run's working state: a reusable tape, the batch buffers, the
/// breeding scratch and the tuner's buffers and memo. One instance lives
/// for the whole run, so once its buffers are warm, breeding, lowering and
/// evaluating an offspring allocate nothing.
struct WorkerScratch {
  Program program;
  EvalScratch eval;
  Genome graft;                    // subtree-mutation replacement
  std::vector<std::uint8_t> open;  // genome_depth scan stack
  std::vector<std::uint8_t> fresh;  // breeding: offspring still to score
  // tune_constants: kConst gene indices, the accepted constants, the step
  // and a candidate, the accepted predictions, the |residuals|, the row
  // weights and order, the Jacobian (column-major, one column per
  // constant) and the normal equations.
  std::vector<std::size_t> const_genes;
  std::vector<double> values, step, trial, base, magnitudes, weights,
      jacobian, normal;
  std::vector<std::size_t> rows;
  /// The run's one cache: what tune_constants made of every input this
  /// run, keyed by genome_key plus the 8 bytes of the input's fitness.
  /// The tuner is a pure function of that key and the dataset, so a hit
  /// is exactly what tuning again would return.
  std::unordered_map<std::string, Individual> tuned;
  std::string tuned_key;  // the memo's key buffer
};

/// How many of `n` residuals the trimmed mean keeps: the smallest
/// kTrimFraction of them, at least one.
std::size_t trimmed_count(std::size_t n) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(kTrimFraction * static_cast<double>(n)));
}

/// Trimmed mean over `residuals` (partitioned in place): ignore the
/// worst (1 - kTrimFraction) fraction so surviving OCR outliers cannot
/// steer the search.
double trimmed_mean(std::vector<double>& residuals) {
  const std::size_t keep = trimmed_count(residuals.size());
  std::nth_element(residuals.begin(),
                   residuals.begin() + static_cast<std::ptrdiff_t>(keep - 1),
                   residuals.end());
  double total = 0.0;
  for (std::size_t i = 0; i < keep; ++i) total += residuals[i];
  return total / static_cast<double>(keep);
}

/// One batched tape pass over the column-major samples. The per-sample
/// arithmetic matches the tests' reference walker (tests/gp_reference.hpp)
/// exactly, so the result is bit-identical to scoring the tree one sample
/// at a time.
double tape_mae(const Program& program, const FitnessData& data,
                EvalScratch& scratch) {
  program.eval_batch(data.matrix, scratch);
  const auto& ys = *data.ys;
  auto& residuals = scratch.residuals;
  residuals.resize(scratch.predictions.size());
  for (std::size_t i = 0; i < residuals.size(); ++i) {
    const double predicted = scratch.predictions[i];
    if (!std::isfinite(predicted)) return 1e300;
    residuals[i] = std::abs(predicted - ys[i]);
  }
  return trimmed_mean(residuals);
}

/// Score an individual: lower its genome and run one trimmed-MAE
/// evaluation. The tape and its predictions stay in `scratch`.
void score(Individual& ind, const FitnessData& data, WorkerScratch& scratch,
           GpStageTimings& timings) {
  scratch.program.load(ind.genome, data.n_vars);
  ind.fitness = tape_mae(scratch.program, data, scratch.eval);
  ind.penalized =
      ind.fitness + kParsimony * static_cast<double>(ind.genome.size());
  ++timings.evaluations;
}

const Individual& tournament(const std::vector<Individual>& pop,
                             util::Rng& rng) {
  const Individual* best = nullptr;
  for (std::size_t i = 0; i < kTournament; ++i) {
    const auto& candidate = pop[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pop.size()) - 1))];
    if (best == nullptr || candidate.penalized < best->penalized) {
      best = &candidate;
    }
  }
  return *best;
}

/// A uniformly drawn gene index of `genome` (= pre-order node index).
std::size_t pick_site(const Genome& genome, util::Rng& rng) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(genome.size()) - 1));
}

/// child = `a` with its subtree at `site` replaced by `graft`. `child` must
/// alias neither input; its capacity is reused.
void splice(const Genome& a, std::size_t site, std::span<const Gene> graft,
            Genome& child) {
  const std::size_t tail = subtree_end(a, site);
  child.resize(site + graft.size() + (a.size() - tail));
  const auto a_begin = a.begin();
  auto out = std::copy(a_begin, a_begin + static_cast<std::ptrdiff_t>(site),
                       child.begin());
  out = std::copy(graft.begin(), graft.end(), out);
  std::copy(a_begin + static_cast<std::ptrdiff_t>(tail), a.end(), out);
}

/// Replace a random subtree of `a` with a random subtree of `b`, writing
/// the offspring to `child`. Returns false when the offspring exceeds
/// kMaxDepth — the caller keeps the parent *and its already-known
/// fitness* instead of rescoring.
bool crossover(const Genome& a, const Genome& b, util::Rng& rng,
               WorkerScratch& scratch, Genome& child) {
  const std::size_t target = pick_site(a, rng);
  const std::size_t source = pick_site(b, rng);
  const std::span<const Gene> donor(b);
  splice(a, target,
         donor.subspan(source, subtree_end(donor, source) - source), child);
  return genome_depth(child, scratch.open) <= kMaxDepth;
}

bool subtree_mutation(const Genome& a, util::Rng& rng, std::size_t n_vars,
                      WorkerScratch& scratch, Genome& child) {
  const std::size_t target = pick_site(a, rng);
  random_genome(rng, n_vars, 2, false, scratch.graft);
  splice(a, target, scratch.graft, child);
  return genome_depth(child, scratch.open) <= kMaxDepth;
}

/// Copies `a` into `child` and mutates genes in place. Returns false when
/// no gene was mutated (the parent's fitness still holds).
bool point_mutation(const Genome& a, util::Rng& rng, std::size_t n_vars,
                    Genome& child) {
  child = a;
  bool mutated = false;
  for (Gene& gene : child) {
    if (!rng.chance(0.15)) continue;
    mutated = true;
    switch (arity(gene.op)) {
      case 0:
        if (gene.op == Op::kConst) {
          // Gaussian constant perturbation.
          gene.value += rng.normal(0.0, 0.3 + 0.1 * std::abs(gene.value));
        } else if (n_vars > 1) {
          gene.var = static_cast<std::int32_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(n_vars) - 1));
        }
        break;
      case 1: {
        static const Op unary[] = {Op::kSqrt, Op::kLog, Op::kAbs, Op::kNeg,
                                   Op::kSin, Op::kCos, Op::kTan, Op::kInv};
        gene.op = unary[rng.uniform_int(0, std::size(unary) - 1)];
        break;
      }
      case 2: {
        static const Op binary[] = {Op::kAdd, Op::kSub, Op::kMul, Op::kDiv,
                                    Op::kMin, Op::kMax};
        gene.op = binary[rng.uniform_int(0, std::size(binary) - 1)];
        break;
      }
    }
  }
  return mutated;
}

// Constant tuning: robust Gauss-Newton on the trimmed-MAE fitness.
constexpr int kTuneIterations = 8;
/// Forward-difference step, relative to max(1, |constant|).
constexpr double kJacobianStep = 1e-7;
/// Ridge on the normal equations, relative to their mean diagonal.
constexpr double kRidge = 1e-12;
/// Reweighting floor, relative to the mean |residual|.
constexpr double kWeightFloor = 1e-6;
/// Step fractions tried along each Gauss-Newton direction, in order.
constexpr double kStepFractions[] = {1.0, 0.5, 0.25, 0.125};
/// Stop once an accepted step gains less than this fraction of the fit.
constexpr double kMinRelativeGain = 1e-9;

/// Solve the k x k system `a` x = `b` in place (row-major `a`; `b`
/// becomes x) by Gaussian elimination with partial pivoting. False when
/// a pivot is zero or the solution is not finite.
bool solve_in_place(std::vector<double>& a, std::vector<double>& b,
                    std::size_t k) {
  for (std::size_t col = 0; col < k; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < k; ++r) {
      if (std::abs(a[r * k + col]) > std::abs(a[pivot * k + col])) pivot = r;
    }
    if (!(std::abs(a[pivot * k + col]) > 0.0)) return false;
    if (pivot != col) {
      for (std::size_t c = 0; c < k; ++c) {
        std::swap(a[col * k + c], a[pivot * k + c]);
      }
      std::swap(b[col], b[pivot]);
    }
    for (std::size_t r = col + 1; r < k; ++r) {
      const double factor = a[r * k + col] / a[col * k + col];
      for (std::size_t c = col; c < k; ++c) {
        a[r * k + c] -= factor * a[col * k + c];
      }
      b[r] -= factor * b[col];
    }
  }
  for (std::size_t i = k; i-- > 0;) {
    double sum = b[i];
    for (std::size_t j = i + 1; j < k; ++j) sum -= a[i * k + j] * b[j];
    b[i] = sum / a[i * k + i];
    if (!std::isfinite(b[i])) return false;
  }
  return true;
}

/// Refine all of an individual's constants at once — part of the
/// "improved" GP: evolution finds the shape, refinement nails the
/// coefficients. Each iteration weights the rows the trimmed mean keeps
/// by 1/|residual| (iteratively reweighted least squares, so the steps
/// aim at the trimmed MAE, not the squared error), takes forward-
/// difference Jacobian columns from the tape, solves the damped normal
/// equations and backtracks along the step until the trimmed MAE
/// improves. Seed skeletons are linear in their constants, so the first
/// step lands near the robust optimum. Counts its trimmed-MAE evaluations
/// and its memo hits and misses in `timings`. The genome is lowered once,
/// or not at all when `scored` says score() has just left `ind`'s tape
/// and predictions in `scratch`: pool slot c is the c-th kConst gene, so
/// trial constants are patched into the tape, and only the accepted ones
/// are written back to the genes.
void tune_constants(Individual& ind, const FitnessData& data,
                    WorkerScratch& scratch, GpStageTimings& timings,
                    bool scored) {
  auto& constants = scratch.const_genes;
  constants.clear();
  for (std::size_t i = 0; i < ind.genome.size(); ++i) {
    if (ind.genome[i].op == Op::kConst) constants.push_back(i);
  }
  const std::size_t k = constants.size();
  if (k == 0) return;

  auto& key = scratch.tuned_key;
  genome_key(ind.genome, key);
  const auto fitness_bits = std::bit_cast<std::uint64_t>(ind.fitness);
  key.append(reinterpret_cast<const char*>(&fitness_bits),
             sizeof fitness_bits);
  if (const auto it = scratch.tuned.find(key); it != scratch.tuned.end()) {
    ind = it->second;
    ++timings.cache_hits;
    return;
  }
  ++timings.cache_misses;

  const auto& ys = *data.ys;
  const std::size_t n = ys.size();
  Program& program = scratch.program;
  EvalScratch& eval = scratch.eval;
  if (!scored) {
    program.load(ind.genome, data.n_vars);
    program.eval_batch(data.matrix, eval);
    ++timings.evaluations;
  }

  auto& values = scratch.values;
  auto& base = scratch.base;
  values.resize(k);
  for (std::size_t c = 0; c < k; ++c) {
    values[c] = ind.genome[constants[c]].value;
  }
  base = eval.predictions;
  const std::size_t keep = trimmed_count(n);
  double fitness = ind.fitness;

  auto& magnitudes = scratch.magnitudes;
  auto& weights = scratch.weights;
  auto& rows = scratch.rows;
  auto& jacobian = scratch.jacobian;
  auto& normal = scratch.normal;
  auto& step = scratch.step;
  auto& trial = scratch.trial;
  for (int iteration = 0; iteration < kTuneIterations; ++iteration) {
    // Residuals r = y - p; weights 1/|r| on the rows the trimmed mean
    // keeps (the `keep` smallest |r|, compared as cached), 0 elsewhere.
    auto& residuals = eval.residuals;
    residuals.resize(n);
    magnitudes.resize(n);
    double mean_abs = 0.0;
    bool finite = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (!std::isfinite(base[i])) finite = false;
      residuals[i] = ys[i] - base[i];
      magnitudes[i] = std::abs(residuals[i]);
      mean_abs += magnitudes[i];
    }
    if (!finite) break;
    mean_abs /= static_cast<double>(n);
    const double floor = std::max(1e-12, kWeightFloor * mean_abs);
    rows.resize(n);
    for (std::size_t i = 0; i < n; ++i) rows[i] = i;
    std::nth_element(rows.begin(),
                     rows.begin() + static_cast<std::ptrdiff_t>(keep - 1),
                     rows.end(), [&](std::size_t a, std::size_t b) {
                       return magnitudes[a] < magnitudes[b];
                     });
    weights.assign(n, 0.0);
    for (std::size_t j = 0; j < keep; ++j) {
      weights[rows[j]] = 1.0 / std::max(magnitudes[rows[j]], floor);
    }

    // Jacobian column c: forward difference in constant c, the slot
    // restored by assignment.
    jacobian.resize(n * k);
    for (std::size_t c = 0; c < k; ++c) {
      const double v = values[c];
      const double moved = v + kJacobianStep * std::max(1.0, std::abs(v));
      const double h = moved - v;
      program.set_constant(c, moved);
      program.eval_batch(data.matrix, eval);
      ++timings.evaluations;
      program.set_constant(c, v);
      double* column = jacobian.data() + c * n;
      for (std::size_t i = 0; i < n; ++i) {
        const double d = (eval.predictions[i] - base[i]) / h;
        column[i] = std::isfinite(d) ? d : 0.0;
      }
    }

    // (JᵀWJ + λI) δ = JᵀWr, λ = kRidge * trace / k.
    normal.assign(k * k, 0.0);
    step.assign(k, 0.0);
    for (std::size_t a = 0; a < k; ++a) {
      const double* ja = jacobian.data() + a * n;
      for (std::size_t i = 0; i < n; ++i) {
        step[a] += ja[i] * weights[i] * residuals[i];
      }
      for (std::size_t b = a; b < k; ++b) {
        const double* jb = jacobian.data() + b * n;
        double sum = 0.0;
        for (std::size_t i = 0; i < n; ++i) sum += ja[i] * weights[i] * jb[i];
        normal[a * k + b] = sum;
        normal[b * k + a] = sum;
      }
    }
    double trace = 0.0;
    for (std::size_t a = 0; a < k; ++a) trace += normal[a * k + a];
    const double ridge = kRidge * trace / static_cast<double>(k);
    for (std::size_t a = 0; a < k; ++a) normal[a * k + a] += ridge;
    if (!solve_in_place(normal, step, k)) break;

    // Backtrack along δ until the trimmed MAE improves.
    bool accepted = false;
    double gain = 0.0;
    trial.resize(k);
    for (const double fraction : kStepFractions) {
      for (std::size_t c = 0; c < k; ++c) {
        trial[c] = values[c] + fraction * step[c];
        program.set_constant(c, trial[c]);
      }
      const double mae = tape_mae(program, data, eval);
      ++timings.evaluations;
      if (mae + 1e-15 < fitness) {
        gain = fitness - mae;
        fitness = mae;
        values.swap(trial);
        base = eval.predictions;
        accepted = true;
        break;
      }
    }
    // On acceptance the tape already holds `values`, the accepted trial.
    if (!accepted || gain < kMinRelativeGain * fitness) break;
  }

  for (std::size_t c = 0; c < k; ++c) {
    ind.genome[constants[c]].value = values[c];
  }
  ind.fitness = fitness;
  ind.penalized =
      ind.fitness + kParsimony * static_cast<double>(ind.genome.size());
  scratch.tuned.emplace(key, ind);
}

Gene var_gene(std::size_t v) {
  return {Op::kVar, static_cast<std::int32_t>(v), 0.0};
}
Gene const_gene(double value) { return {Op::kConst, 0, value}; }

/// Affine / product seed templates (improved-GP ingredient): cheap
/// skeletons matching the shapes manufacturer formulas overwhelmingly
/// take. Evolution is free to discard them. A template's constants are
/// drawn in reverse pre-order (the rightmost first), into named locals so
/// the draw order is fixed by the code, not by argument evaluation.
std::vector<Genome> seed_templates(util::Rng& rng, std::size_t n_vars) {
  const auto draw = [&rng] { return const_gene(rng.uniform(-5.0, 5.0)); };
  const Gene add{Op::kAdd};
  const Gene mul{Op::kMul};
  std::vector<Genome> seeds;
  for (std::size_t v = 0; v < n_vars; ++v) {
    const Gene x = var_gene(v);
    seeds.push_back({x});
    seeds.push_back({mul, draw(), x});  // (a * X)
    const Gene b = draw();
    const Gene a = draw();
    seeds.push_back({add, mul, a, x, b});  // ((a * X) + b)
  }
  const Gene x0 = var_gene(0);
  if (n_vars >= 2) {
    const Gene x1 = var_gene(1);
    seeds.push_back({mul, x0, x1});
    seeds.push_back({mul, draw(), mul, x0, x1});  // (a * (X0 * X1))
    {
      const Gene b = draw();
      const Gene a = draw();
      // ((a * X0) + (b * X1))
      seeds.push_back({add, mul, a, x0, mul, b, x1});
    }
    const Gene d = draw();
    const Gene b = draw();
    const Gene a = draw();
    // (((a * X0) + (b * X1)) + d)
    seeds.push_back({add, add, mul, a, x0, mul, b, x1, d});
  }
  seeds.push_back({mul, draw(), mul, x0, x0});  // quadratic: (a * (X0 * X0))
  return seeds;
}

/// Ordinary-least-squares seeds (improved-GP ingredient): solve the
/// affine and degree-2 bases directly on the (scaled) data and inject the
/// solutions into the initial population. Evolution keeps them only if
/// they actually fit — nonlinear targets still require search. `xs` is
/// row-major, `n_vars` operands per row of `ys`; each basis is one
/// row-major design matrix (regress::append_basis_row).
std::vector<Genome> least_squares_seeds(std::span<const double> xs,
                                        const std::vector<double>& ys,
                                        std::size_t n_vars) {
  std::vector<Genome> seeds;
  // (((c0 + (c1 * B1)) + (c2 * B2)) + ...), skipping near-zero terms: in
  // prefix order one add per kept term, c0, then each (mul, ci, Bi).
  auto emit = [&seeds](const std::vector<double>& coeffs,
                       const std::vector<Genome>& basis) {
    Genome terms;
    std::size_t n_terms = 0;
    for (std::size_t i = 1; i < coeffs.size() && i - 1 < basis.size();
         ++i) {
      if (std::abs(coeffs[i]) < 1e-12) continue;
      terms.push_back({Op::kMul});
      terms.push_back(const_gene(coeffs[i]));
      terms.insert(terms.end(), basis[i - 1].begin(), basis[i - 1].end());
      ++n_terms;
    }
    Genome seed(n_terms, Gene{Op::kAdd});
    seed.push_back(const_gene(coeffs[0]));
    seed.insert(seed.end(), terms.begin(), terms.end());
    seeds.push_back(std::move(seed));
  };

  // Solve, then re-solve once excluding gross-residual rows (OCR
  // outliers): a one-step robust refit.
  const std::size_t n = ys.size();
  std::vector<double> design, residuals, sorted, kept_design, kept_ys;
  auto solve_robust = [&](std::size_t width) {
    std::vector<std::vector<double>> solutions;
    const auto first = regress::solve_least_squares(design, width, ys);
    if (!first) return solutions;
    solutions.push_back(*first);

    residuals.resize(n);
    for (std::size_t r = 0; r < n; ++r) {
      const double* row = design.data() + r * width;
      double predicted = 0.0;
      for (std::size_t c = 0; c < width; ++c) {
        predicted += (*first)[c] * row[c];
      }
      residuals[r] = std::abs(predicted - ys[r]);
    }
    sorted = residuals;
    std::nth_element(sorted.begin(), sorted.begin() +
                         static_cast<std::ptrdiff_t>(sorted.size() / 2),
                     sorted.end());
    const double cut = std::max(1e-9, 3.0 * sorted[sorted.size() / 2]);
    kept_design.clear();
    kept_ys.clear();
    for (std::size_t r = 0; r < n; ++r) {
      if (residuals[r] <= cut) {
        const double* row = design.data() + r * width;
        kept_design.insert(kept_design.end(), row, row + width);
        kept_ys.push_back(ys[r]);
      }
    }
    if (kept_ys.size() >= n * 2 / 3 && kept_ys.size() < n) {
      if (const auto second =
              regress::solve_least_squares(kept_design, width, kept_ys)) {
        solutions.push_back(*second);
      }
    }
    return solutions;
  };

  // Affine basis: X0 (, X1); degree-2 basis: those, then X0^2, X0*X1,
  // X1^2 — the design columns after the intercept, in order.
  std::vector<Genome> basis;
  for (std::size_t v = 0; v < n_vars; ++v) basis.push_back({var_gene(v)});
  for (const bool polynomial : {false, true}) {
    if (polynomial) {
      for (std::size_t i = 0; i < n_vars; ++i) {
        for (std::size_t j = i; j < n_vars; ++j) {
          basis.push_back({{Op::kMul}, var_gene(i), var_gene(j)});
        }
      }
    }
    design.clear();
    design.reserve(n * (basis.size() + 1));
    for (std::size_t r = 0; r < n; ++r) {
      regress::append_basis_row(xs.subspan(r * n_vars, n_vars), polynomial,
                                design);
    }
    for (const auto& sol : solve_robust(basis.size() + 1)) emit(sol, basis);
  }
  return seeds;
}

/// `result`'s prediction from raw operands through its lowered `best`;
/// `scaled` is the operand buffer, reused across calls.
double predict_lowered(const GpResult& result, const Program& program,
                       EvalScratch& scratch, std::span<const double> raw_xs,
                       std::vector<double>& scaled) {
  if (raw_xs.size() < result.n_vars) {
    throw std::out_of_range("gp: fewer operands than variables");
  }
  scaled.resize(raw_xs.size());
  for (std::size_t i = 0; i < raw_xs.size(); ++i) {
    const double factor =
        i < result.x_scales.size() ? result.x_scales[i].factor : 1.0;
    scaled[i] = raw_xs[i] / factor;
  }
  return program.eval_scalar(scaled, scratch) * result.y_scale.factor;
}

}  // namespace

double GpResult::predict(std::span<const double> raw_xs) const {
  Program program;
  program.load(best, n_vars);
  EvalScratch scratch;
  std::vector<double> scaled;
  return predict_lowered(*this, program, scratch, raw_xs, scaled);
}

std::optional<GpResult> infer_formula(const correlate::Dataset& dataset,
                                      const GpConfig& config) {
  if (dataset.points.size() < 6) return std::nullopt;
  const std::size_t n_vars = dataset.n_vars;
  const auto wall_start = Clock::now();

  // --- Table 2 pre-processing ---------------------------------------------
  GpResult result;
  result.n_vars = n_vars;
  result.x_scales.assign(n_vars, SeriesScale{});
  if (config.use_scaling) {
    for (std::size_t v = 0; v < n_vars; ++v) {
      std::vector<double> column;
      column.reserve(dataset.points.size());
      for (const auto& p : dataset.points) column.push_back(p.xs[v]);
      result.x_scales[v] = choose_scale(column, /*allow_enlarge=*/false);
    }
    std::vector<double> targets;
    targets.reserve(dataset.points.size());
    for (const auto& p : dataset.points) targets.push_back(p.y);
    result.y_scale = choose_scale(targets, /*allow_enlarge=*/true);
  }

  // The scaled operands, row-major, and the scaled targets.
  const std::size_t n_samples = dataset.points.size();
  std::vector<double> xs;
  std::vector<double> ys;
  xs.reserve(n_samples * n_vars);
  ys.reserve(n_samples);
  for (const auto& p : dataset.points) {
    for (std::size_t v = 0; v < n_vars; ++v) {
      xs.push_back(p.xs[v] / result.x_scales[v].factor);
    }
    ys.push_back(p.y / result.y_scale.factor);
  }

  // --- Fitness machinery ---------------------------------------------------
  // Mirror the samples into a column-major matrix once.
  FitnessData data;
  data.ys = &ys;
  data.matrix = SampleMatrix(n_samples, n_vars);
  for (std::size_t i = 0; i < n_samples; ++i) {
    for (std::size_t v = 0; v < n_vars; ++v) {
      data.matrix.at(i, v) = xs[i * n_vars + v];
    }
  }
  data.n_vars = n_vars;

  // --- Seeds -----------------------------------------------------------------
  util::Rng rng(config.seed);
  std::vector<Individual> population;
  population.reserve(config.population);
  if (config.seed_templates) {
    for (auto& seed : seed_templates(rng, n_vars)) {
      population.push_back({std::move(seed)});
    }
  }
  if (config.seed_least_squares) {
    for (auto& seed : least_squares_seeds(xs, ys, n_vars)) {
      population.push_back({std::move(seed)});
    }
  }
  const std::size_t seed_count = population.size();

  // One scratch, reused by every stage and generation.
  WorkerScratch scratch;
  GpStageTimings timings;
  // A seed is scored, then tuned on the tape and predictions score() left:
  // the template *shapes* are right, their random constants are not.
  const auto settle = [&](Individual& seed) {
    const auto t0 = Clock::now();
    score(seed, data, scratch, timings);
    const auto t1 = Clock::now();
    timings.scoring_s += std::chrono::duration<double>(t1 - t0).count();
    if (config.constant_tuning) {
      tune_constants(seed, data, scratch, timings, /*scored=*/true);
      timings.tuning_s += seconds_since(t1);
    }
  };
  // The seeds are settled in population order, except that a seed waits
  // while the lead (the least penalized fitness settled so far) is below
  // its floor, kParsimony x size: the trimmed MAE is never negative, so
  // such a seed can never become the elite. It keeps its 1e300 defaults,
  // and min_element below still picks the elite settling every seed
  // would, first on ties.
  std::vector<std::size_t> deferred;
  double lead = 1e300;
  for (std::size_t i = 0; i < seed_count; ++i) {
    Individual& seed = population[i];
    if (lead < kParsimony * static_cast<double>(seed.genome.size())) {
      deferred.push_back(i);
      continue;
    }
    settle(seed);
    lead = std::min(lead, seed.penalized);
  }

  // Absolute form of stopping criterion (ii), anchored to the scaled
  // target's magnitude.
  double mean_abs_y = 0.0;
  for (double y : ys) mean_abs_y += std::abs(y);
  mean_abs_y /= static_cast<double>(ys.size());
  const double stop_below =
      config.fitness_threshold * std::max(1e-6, mean_abs_y);

  const auto by_penalized = [](const Individual& a, const Individual& b) {
    return a.penalized < b.penalized;
  };
  // --- Initial population ----------------------------------------------------
  // When the tuned seeds' elite already meets criterion (ii), the run ends
  // on it at generation 0 below, the waiting seeds are never settled and
  // no random genome is drawn or scored. Otherwise the waiting seeds are
  // settled in index order, so the seeds are exactly what settling each in
  // turn gives, and the ramped half-and-half genomes fill the population.
  // Scoring and tuning draw nothing, so those come from the RNG state the
  // seed templates left, as if drawn before the seeds were scored.
  if (seed_count == 0 ||
      std::min_element(population.begin(), population.end(), by_penalized)
              ->fitness > stop_below) {
    for (const std::size_t i : deferred) settle(population[i]);
    while (population.size() < config.population) {
      // Ramped half-and-half.
      const int depth =
          static_cast<int>(rng.uniform_int(kInitDepthMin, kInitDepthMax));
      const bool full = rng.chance(0.5);
      Individual ind;
      random_genome(rng, n_vars, depth, full, ind.genome);
      population.push_back(std::move(ind));
    }
    const auto t0 = Clock::now();
    for (std::size_t i = seed_count; i < population.size(); ++i) {
      score(population[i], data, scratch, timings);
    }
    timings.scoring_s += seconds_since(t0);
  }
  Individual best =
      *std::min_element(population.begin(), population.end(), by_penalized);

  // --- Evolution ---------------------------------------------------------------
  // Offspring per generation and their chunk count, fixed for the run.
  const std::size_t offspring =
      config.population > 0 ? config.population - 1 : 0;
  const std::size_t n_chunks =
      std::max<std::size_t>(1, (offspring + kBreedChunk - 1) / kBreedChunk);

  // Double-buffered generations: offspring are bred into `next`, whose
  // genomes still hold the generation before last, so every genome
  // buffer's capacity is reused and a warm loop breeds without allocating.
  std::vector<Individual> next;
  std::vector<util::Rng> chunk_rngs;
  chunk_rngs.reserve(n_chunks);
  // The elite's penalized fitness after each generation, for criterion
  // (iii).
  std::vector<double> elite;
  elite.reserve(config.max_generations);
  std::size_t generation = 0;
  for (; generation < config.max_generations; ++generation) {
    if (best.fitness <= stop_below) break;  // criterion (ii)
    // Cooperative cancellation (phase watchdog): stop evolving and return
    // the best-so-far instead of wedging a worker past its deadline.
    if (config.cancel != nullptr && config.cancel->expired()) break;

    // Fork one RNG stream per breeding chunk from the master: the stream
    // a chunk sees is a function of (seed, generation, chunk) only.
    chunk_rngs.clear();
    for (std::size_t c = 0; c < n_chunks; ++c) chunk_rngs.push_back(rng.fork());

    next.resize(std::max<std::size_t>(1, config.population));
    next[0] = best;  // elitism: its fitness carries over, never rescored

    // Chunk c breeds the offspring [c, c + 1) * offspring / n_chunks,
    // then scores the fresh ones. Breeding reads only the previous
    // generation and the chunk's stream, and scoring draws nothing, so
    // splitting the passes orders every draw as interleaving them would;
    // each pass is timed once.
    for (std::size_t c = 0; c < n_chunks; ++c) {
      util::Rng& crng = chunk_rngs[c];
      const std::size_t begin = c * offspring / n_chunks;
      const std::size_t end = (c + 1) * offspring / n_chunks;
      scratch.fresh.assign(end - begin, 0);
      const auto t0 = Clock::now();
      for (std::size_t i = begin; i < end; ++i) {
        const double roll = crng.uniform();
        Individual& child = next[1 + i];
        // Set when the child is a plain copy of a parent whose fitness
        // carries over; otherwise the child is fresh and needs scoring.
        const Individual* kept = nullptr;
        if (roll < kCrossoverRate) {
          const Individual& pa = tournament(population, crng);
          const Individual& pb = tournament(population, crng);
          if (!crossover(pa.genome, pb.genome, crng, scratch, child.genome)) {
            kept = &pa;  // rejected oversize
          }
        } else if (roll < kCrossoverRate + kSubtreeMutationRate) {
          const Individual& pa = tournament(population, crng);
          if (!subtree_mutation(pa.genome, crng, n_vars, scratch,
                                child.genome)) {
            kept = &pa;
          }
        } else if (roll < kCrossoverRate + kSubtreeMutationRate +
                              kPointMutationRate) {
          const Individual& pa = tournament(population, crng);
          if (!point_mutation(pa.genome, crng, n_vars, child.genome)) {
            kept = &pa;  // no site mutated
          }
        } else {  // reproduce
          kept = &tournament(population, crng);
        }
        if (kept != nullptr) {
          child = *kept;
        } else {
          scratch.fresh[i - begin] = 1;
        }
      }
      const auto t1 = Clock::now();
      timings.breeding_s += std::chrono::duration<double>(t1 - t0).count();
      for (std::size_t i = begin; i < end; ++i) {
        if (scratch.fresh[i - begin] != 0) {
          score(next[1 + i], data, scratch, timings);
        }
      }
      timings.scoring_s += seconds_since(t1);
    }
    population.swap(next);

    // Refine the constants of the few fittest individuals, then promote
    // the overall champion.
    if (config.constant_tuning) {
      const std::size_t top = std::min<std::size_t>(3, population.size());
      std::partial_sort(population.begin(),
                        population.begin() + static_cast<std::ptrdiff_t>(top),
                        population.end(), by_penalized);
      const auto t0 = Clock::now();
      for (std::size_t k = 0; k < top; ++k) {
        tune_constants(population[k], data, scratch, timings,
                       /*scored=*/false);
      }
      timings.tuning_s += seconds_since(t0);
    }
    const auto it =
        std::min_element(population.begin(), population.end(), by_penalized);
    if (it->penalized < best.penalized) best = *it;

    elite.push_back(best.penalized);  // criterion (iii)
    if (elite.size() > kStallGenerations &&
        elite[elite.size() - 1 - kStallGenerations] - best.penalized <
            kStallGain * best.penalized) {
      ++generation;  // this generation ran
      break;
    }
  }

  simplify(best.genome);
  result.best = std::move(best.genome);
  result.fitness = best.fitness;
  result.generations_run = generation;
  result.converged = best.fitness <= stop_below;
  timings.total_s = seconds_since(wall_start);
  result.timings = timings;

  // --- Table 2 post-processing: substitute the scale factors back ------------
  // Each scaled variable prints as its substituted form, e.g. "(X0/100)".
  // Appended rather than concatenated: g++ 12 misreports `"(" + string`
  // under -Wrestrict at -O3.
  std::vector<std::string> names = variable_names(n_vars);
  for (std::size_t v = 0; v < n_vars; ++v) {
    if (result.x_scales[v].identity()) continue;
    std::string substituted(1, '(');
    substituted += scaled_symbol(names[v], result.x_scales[v]);
    substituted += ')';
    names[v] = std::move(substituted);
  }
  result.formula = scaled_symbol("Y", result.y_scale) + " = " +
                   to_string(result.best, names);
  return result;
}

regress::RelativeError relative_error(const GpResult& result,
                                      const correlate::Dataset& dataset,
                                      std::span<const double> expected) {
  Program program;
  program.load(result.best, result.n_vars);
  EvalScratch scratch;
  std::vector<double> scaled;
  return regress::relative_error(
      dataset,
      [&](std::span<const double> raw_xs) {
        return predict_lowered(result, program, scratch, raw_xs, scaled);
      },
      expected);
}

regress::RelativeError relative_error(const GpResult& result,
                                      const correlate::Dataset& dataset,
                                      const regress::Formula& truth) {
  return relative_error(result, dataset, regress::evaluate(truth, dataset));
}

}  // namespace dpr::gp
