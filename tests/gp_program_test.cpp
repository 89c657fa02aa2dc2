// Differential tests for the prefix genome and the gp::Program bytecode
// engine: the tape lowered from a genome must reproduce the recursive
// reference walker (gp_reference.hpp) bit for bit (the fleet's
// report_signature determinism gates depend on it), simplify() and
// to_string() must keep what the retired pointer tree printed, and deep
// genomes must never touch the C stack limits.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "gp/engine.hpp"
#include "gp/genome.hpp"
#include "gp/kernels.hpp"
#include "gp/program.hpp"
#include "gp_reference.hpp"
#include "util/checkpoint.hpp"

namespace dpr::gp {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

Gene var(std::int32_t v) { return {Op::kVar, v, 0.0}; }
Gene num(double value) { return {Op::kConst, 0, value}; }

Program lower(const Genome& genome, std::size_t n_vars) {
  Program program;
  program.load(genome, n_vars);
  return program;
}

/// A gene's identity as the tree sees it: op, plus the variable index of
/// a kVar or the value bits of a kConst (the other payload is unused).
using GeneId = std::tuple<Op, std::int32_t, std::uint64_t>;
std::vector<GeneId> gene_ids(const Genome& genome) {
  std::vector<GeneId> ids;
  for (const Gene& gene : genome) {
    ids.emplace_back(gene.op, gene.op == Op::kVar ? gene.var : 0,
                     gene.op == Op::kConst ? bits(gene.value) : 0);
  }
  return ids;
}

/// Forces a kernel table for one scope and restores the old setting.
class SimdGuard {
 public:
  explicit SimdGuard(bool enable) : previous_(simd_enabled()) {
    set_simd_enabled(enable);
  }
  ~SimdGuard() { set_simd_enabled(previous_); }

 private:
  bool previous_;
};

TEST(SampleMatrix, ColumnMajorLayout) {
  const std::vector<std::vector<double>> rows{{1.0, 10.0},
                                             {2.0, 20.0},
                                             {3.0, 30.0}};
  const auto matrix = SampleMatrix::from_rows(rows, 2);
  EXPECT_EQ(matrix.n_samples(), 3u);
  EXPECT_EQ(matrix.n_vars(), 2u);
  const auto x0 = matrix.column(0);
  const auto x1 = matrix.column(1);
  ASSERT_EQ(x0.size(), 3u);
  EXPECT_DOUBLE_EQ(x0[0], 1.0);
  EXPECT_DOUBLE_EQ(x0[2], 3.0);
  EXPECT_DOUBLE_EQ(x1[1], 20.0);
  // Columns really are contiguous.
  EXPECT_EQ(x0.data() + 3, x1.data());
}

TEST(SampleMatrix, RowWidthMismatchRejected) {
  const std::vector<std::vector<double>> rows{{1.0, 2.0}, {3.0}};
  EXPECT_THROW(SampleMatrix::from_rows(rows, 2), std::invalid_argument);
}

TEST(Genome, PrefixOrderSubtreeSpansAndPrinting) {
  // (X0 * X1) / 5 in pre-order: div, mul, X0, X1, 5.
  const Genome genome{{Op::kDiv}, {Op::kMul}, var(0), var(1), num(5.0)};
  // Subtree spans by arity count: the mul subtree is genes [1, 4).
  EXPECT_EQ(subtree_end(genome, 0), 5u);
  EXPECT_EQ(subtree_end(genome, 1), 4u);
  EXPECT_EQ(subtree_end(genome, 2), 3u);
  EXPECT_EQ(subtree_end(genome, 4), 5u);
  EXPECT_EQ(genome_depth(genome), 3);
  EXPECT_EQ(to_string(genome, variable_names(2)), "((X0 * X1) / 5)");
  EXPECT_EQ(to_string(genome, {"a", "b"}), "((a * b) / 5)");
  EXPECT_THROW(to_string(genome, {"a"}), std::out_of_range);
}

TEST(Genome, MalformedGenomeRejected) {
  const Genome dangling{{Op::kAdd}, var(0)};
  const Genome two_roots{var(0), num(1.0)};
  Program program;
  for (const Genome& bad : {dangling, two_roots, Genome{}}) {
    EXPECT_THROW(program.load(bad, 1), std::invalid_argument);
    Genome copy = bad;
    EXPECT_THROW(simplify(copy), std::invalid_argument);
  }
}

TEST(Program, LowersGenomeToFusedPostfixTape) {
  // (X0 * X1) / 5 — five genes, one pool constant.
  const Genome genome{{Op::kDiv}, {Op::kMul}, var(0), var(1), num(5.0)};
  const auto program = lower(genome, 2);
  EXPECT_EQ(program.size(), 5u);
  EXPECT_EQ(program.n_constants(), 1u);
  EXPECT_DOUBLE_EQ(program.constant(0), 5.0);
  // Fused operands: mul reads both variable columns directly, div reads
  // the constant immediate — only the running result needs a column.
  EXPECT_EQ(program.stack_need(), 1u);

  EvalScratch scratch;
  const std::vector<double> vars{241.0, 16.0};
  EXPECT_EQ(bits(program.eval_scalar(vars, scratch)),
            bits(reference::eval(genome, vars).value));
}

TEST(Program, BareLeafProgramsEvaluate) {
  // A single-node tree compiles to zero instructions; the result operand
  // points straight at the variable column / constant pool.
  EvalScratch scratch;
  const auto constant = lower({num(2.5)}, 1);
  EXPECT_EQ(bits(constant.eval_scalar({}, scratch)), bits(2.5));

  const auto variable = lower({var(0)}, 1);
  const std::vector<std::vector<double>> rows{{7.0}, {-0.0}};
  const auto matrix = SampleMatrix::from_rows(rows, 1);
  variable.eval_batch(matrix, scratch);
  EXPECT_EQ(bits(scratch.predictions[0]), bits(7.0));
  EXPECT_EQ(bits(scratch.predictions[1]), bits(-0.0));
  constant.eval_batch(matrix, scratch);
  EXPECT_EQ(bits(scratch.predictions[0]), bits(2.5));
  EXPECT_EQ(bits(scratch.predictions[1]), bits(2.5));
}

TEST(Program, RejectsOutOfRangeVariable) {
  const Genome genome{{Op::kAdd}, var(0), var(5)};
  EXPECT_THROW(lower(genome, 2), std::invalid_argument);
  EXPECT_NO_THROW(lower(genome, 6));
}

TEST(GpResult, PredictThrowsOnTooFewOperands) {
  // eval_scalar does not bounds-check its operands, so predict() checks
  // them: a result over two variables refuses a one-wide input instead of
  // reading past it. The reference walker refuses the same way.
  GpResult result;
  result.best = {{Op::kAdd}, var(0), var(1)};
  result.n_vars = 2;
  result.x_scales.assign(2, SeriesScale{});
  const std::vector<double> narrow{1.0};
  const std::vector<double> wide{1.0, 2.0};
  EXPECT_THROW(result.predict(narrow), std::out_of_range);
  EXPECT_EQ(result.predict(wide), 3.0);
  EXPECT_THROW(reference::eval(result.best, narrow), std::out_of_range);
}

TEST(Program, ConstantPoolIsInGenomeOrder) {
  // Pool slot k is the k-th kConst gene, so tuning can patch gene and
  // tape in lockstep: (2 - X) * 3 has constants 2 then 3.
  const Genome genome{{Op::kMul}, {Op::kSub}, num(2.0), var(0), num(3.0)};
  auto program = lower(genome, 1);
  ASSERT_EQ(program.n_constants(), 2u);
  EXPECT_EQ(program.constant(0), 2.0);
  EXPECT_EQ(program.constant(1), 3.0);
  EvalScratch scratch;
  const std::vector<double> x{5.0};
  EXPECT_EQ(program.eval_scalar(x, scratch), -9.0);
  program.set_constant(0, 7.0);
  EXPECT_EQ(program.eval_scalar(x, scratch), 6.0);
}

TEST(Genome, KeyDistinguishesShapesAndConstants) {
  const auto key = [](const Genome& genome) {
    std::string out;
    genome_key(genome, out);
    return out;
  };
  const Genome a{{Op::kAdd}, var(0), num(1.0)};
  const Genome b{{Op::kAdd}, var(0), num(2.0)};
  const Genome c{{Op::kSub}, var(0), num(1.0)};
  const Genome zero{{Op::kAdd}, var(0), num(0.0)};
  const Genome negative_zero{{Op::kAdd}, var(0), num(-0.0)};
  const Genome x1{{Op::kAdd}, var(1), num(1.0)};
  EXPECT_EQ(key(a), key(Genome(a)));
  EXPECT_NE(key(a), key(b));  // same shape, different constant bits
  EXPECT_NE(key(a), key(c));  // same operands, different op
  EXPECT_NE(key(zero), key(negative_zero));
  EXPECT_NE(key(a), key(x1));  // different variable
  // Same genes, different nesting: (X0 + X0) + X0 vs X0 + (X0 + X0).
  const Genome left{{Op::kAdd}, {Op::kAdd}, var(0), var(0), var(0)};
  const Genome right{{Op::kAdd}, var(0), {Op::kAdd}, var(0), var(0)};
  EXPECT_NE(key(left), key(right));
}

TEST(Genome, DistinctTreesGetDistinctKeys) {
  // A few thousand random trees, many of them small enough to repeat:
  // two trees share a key exactly when they are the same tree.
  util::Rng rng(0xC0FFEE);
  std::map<std::string, std::vector<GeneId>> by_key;
  std::set<std::vector<GeneId>> trees;
  std::string key;
  for (int trial = 0; trial < 4000; ++trial) {
    const std::size_t n_vars = 1 + rng.uniform_int(0, 1);
    Genome genome;
    random_genome(rng, n_vars, static_cast<int>(rng.uniform_int(0, 3)),
                  rng.chance(0.5), genome);
    if (rng.chance(0.2)) {
      // Constants from a tiny pool, signed zeros included, so equal
      // shapes with equal and with differing constant bits both occur.
      static const double pool[] = {0.0, -0.0, 1.0};
      for (Gene& gene : genome) {
        if (gene.op == Op::kConst) gene.value = pool[rng.uniform_int(0, 2)];
      }
    }
    genome_key(genome, key);
    const auto ids = gene_ids(genome);
    trees.insert(ids);
    const auto [it, inserted] = by_key.emplace(key, ids);
    if (!inserted) {
      EXPECT_EQ(it->second, ids) << "two different trees share a key";
    }
  }
  EXPECT_EQ(by_key.size(), trees.size());
  EXPECT_LT(trees.size(), 4000u);  // the corpus really repeats trees
}

TEST(Genome, PrintAndSimplifyMatchPointerTreeGolden) {
  // 2000 random genomes, each printed, then simplified and printed again,
  // with FNV-1a folded over every string. Frozen from the pointer-tree
  // Expr that simplify() and to_string() replaced: a changed spelling,
  // constant format, rewrite rule or rule order moves the digest.
  util::Rng rng(0x51A1F);
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  std::size_t changed = 0;
  Genome genome;
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t n_vars = 1 + rng.uniform_int(0, 1);
    const int depth = static_cast<int>(rng.uniform_int(1, 6));
    const bool full = rng.chance(0.3);
    random_genome(rng, n_vars, depth, full, genome);
    const auto names = variable_names(n_vars);
    const std::string printed = to_string(genome, names);
    simplify(genome);
    const std::string simplified = to_string(genome, names);
    if (simplified != printed) ++changed;
    digest = util::fnv1a64_str(printed, digest);
    digest = util::fnv1a64_str(simplified, digest);
  }
  EXPECT_EQ(digest, 0xdf86aa4ec5198b27ULL)
      << "fresh: 0x" << std::hex << digest;
  EXPECT_EQ(changed, 727u);
}

TEST(Program, DifferentialFuzzTreeVsTapeBitIdentical) {
  // ≥1000 random genomes × random inputs: single-sample tape, batched
  // scalar-kernel, and batched SIMD-kernel execution must all reproduce
  // the recursive reference walker's doubles bit for bit —
  // protected-operator thresholds, NaN, and ±inf lanes included.
  util::Rng rng(0xD1FF);
  EvalScratch scratch;
  std::size_t checked = 0;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Genome genome;
  for (int trial = 0; trial < 1200; ++trial) {
    const std::size_t n_vars = 1 + rng.uniform_int(0, 1);
    const int depth = static_cast<int>(rng.uniform_int(1, 5));
    random_genome(rng, n_vars, depth, rng.chance(0.5), genome);
    Program program;
    program.load(genome, n_vars);
    ASSERT_EQ(program.size(), genome.size());

    // A batch per expression, spanning sign changes, the protected-op
    // thresholds, and non-finite lanes (every SIMD lane of a 12-sample
    // batch sees a mix of edge and ordinary values).
    std::vector<std::vector<double>> rows;
    for (int s = 0; s < 12; ++s) {
      std::vector<double> row(n_vars);
      for (auto& v : row) {
        const double roll = rng.uniform();
        v = roll < 0.08   ? 0.0
            : roll < 0.16 ? rng.uniform(-1e-9, 1e-9)
            : roll < 0.20 ? nan
            : roll < 0.24 ? (rng.chance(0.5) ? inf : -inf)
                          : rng.uniform(-300.0, 300.0);
      }
      rows.push_back(std::move(row));
    }
    const auto matrix = SampleMatrix::from_rows(rows, n_vars);
    // Equality is bitwise except when both sides are NaN: which of two
    // NaN operands an x86 arithmetic instruction propagates depends on
    // the operand order the compiler happened to emit, and GCC can even
    // commute the auto-vectorized main lanes and the remainder lanes of
    // the *same* scalar-kernel loop differently — so walker, scalar
    // tape, and SIMD tape can legitimately return NaNs of different
    // sign/payload. Every NaN scores the same fitness penalty, so
    // signatures are unaffected; non-NaN values stay strictly bitwise
    // everywhere (the per-op kernel test below keeps strict equality on
    // its single-NaN operand mixes).
    const auto tree_matches = [](double want, double got) {
      return bits(want) == bits(got) ||
             (std::isnan(want) && std::isnan(got));
    };
    std::vector<double> walked(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto walk = reference::eval(genome, rows[i]);
      EXPECT_EQ(walk.depth, genome_depth(genome)) << "trial " << trial;
      walked[i] = walk.value;
      EXPECT_TRUE(
          tree_matches(walked[i], program.eval_scalar(rows[i], scratch)))
          << "trial " << trial << " sample " << i;
    }
    std::vector<double> scalar_tape(rows.size());
    for (const bool simd : {false, true}) {
      if (simd && !simd_supported()) continue;
      SimdGuard guard(simd);
      program.eval_batch(matrix, scratch);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_TRUE(tree_matches(walked[i], scratch.predictions[i]))
            << "trial " << trial << " sample " << i
            << (simd ? " (simd)" : " (scalar)");
        if (!simd) {
          scalar_tape[i] = scratch.predictions[i];
        } else {
          EXPECT_TRUE(tree_matches(scalar_tape[i], scratch.predictions[i]))
              << "scalar vs simd tape, trial " << trial << " sample " << i;
        }
        ++checked;
      }
    }
  }
  EXPECT_GE(checked, 1000u * 12u);
}

TEST(Kernels, SimdMatchesScalarPerOpIncludingEdgeLanes) {
  // Direct per-op kernel equality across every loop shape and awkward
  // length (SIMD main blocks, 4-lane remainder, scalar tail), on operand
  // mixes saturated with non-finite and threshold values.
  if (!simd_supported()) {
    GTEST_SKIP() << "no AVX2 kernel table compiled/supported here";
  }
  const KernelTable& scalar = scalar_kernels();
  const KernelTable& simd = *avx2_kernels();
  const double edges[] = {0.0,
                          -0.0,
                          1e-10,
                          -1e-10,
                          9.9e-10,
                          -9.9e-10,
                          1e-9,
                          -1e-9,
                          1.0,
                          -1.0,
                          300.0,
                          -300.0,
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::min(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()};
  constexpr std::size_t kNEdges = std::size(edges);
  const Op all_ops[] = {Op::kAdd, Op::kSub, Op::kMul, Op::kDiv,
                        Op::kMin, Op::kMax, Op::kSqrt, Op::kLog,
                        Op::kAbs, Op::kNeg, Op::kSin, Op::kCos,
                        Op::kTan, Op::kInv};
  util::Rng rng(0x51D);
  for (const std::size_t n : {1u, 3u, 4u, 7u, 8u, 9u, 16u, 33u, 100u}) {
    std::vector<double> a(n), b(n), got(n), want(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng.chance(0.5) ? edges[rng.uniform_int(0, kNEdges - 1)]
                             : rng.uniform(-500.0, 500.0);
      b[i] = rng.chance(0.5) ? edges[rng.uniform_int(0, kNEdges - 1)]
                             : rng.uniform(-500.0, 500.0);
    }
    const double k = edges[rng.uniform_int(0, kNEdges - 1)];
    for (const Op op : all_ops) {
      if (arity(op) == 1) {
        scalar.unary(op, want.data(), a.data(), n);
        simd.unary(op, got.data(), a.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(bits(want[i]), bits(got[i]))
              << "unary op " << static_cast<int>(op) << " n=" << n
              << " lane " << i << " x=" << a[i];
        }
        continue;
      }
      scalar.binary(op, want.data(), a.data(), b.data(), n);
      simd.binary(op, got.data(), a.data(), b.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(bits(want[i]), bits(got[i]))
            << "binary op " << static_cast<int>(op) << " n=" << n
            << " lane " << i << " a=" << a[i] << " b=" << b[i];
      }
      scalar.binary_ak(op, want.data(), a.data(), k, n);
      simd.binary_ak(op, got.data(), a.data(), k, n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(bits(want[i]), bits(got[i]))
            << "binary_ak op " << static_cast<int>(op) << " n=" << n
            << " lane " << i << " a=" << a[i] << " k=" << k;
      }
      scalar.binary_kb(op, want.data(), k, b.data(), n);
      simd.binary_kb(op, got.data(), k, b.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(bits(want[i]), bits(got[i]))
            << "binary_kb op " << static_cast<int>(op) << " n=" << n
            << " lane " << i << " k=" << k << " b=" << b[i];
      }
    }
  }
}

TEST(Kernels, InPlaceColumnUpdateIsSafe) {
  // The tape reuses stack slots: dst may be exactly the operand column.
  // Both tables must handle the exact-aliasing case.
  for (const bool simd : {false, true}) {
    if (simd && !simd_supported()) continue;
    const KernelTable& table = simd ? *avx2_kernels() : scalar_kernels();
    std::vector<double> col(37);
    for (std::size_t i = 0; i < col.size(); ++i) {
      col[i] = static_cast<double>(i) - 18.0;
    }
    std::vector<double> expected(col.size());
    for (std::size_t i = 0; i < col.size(); ++i) {
      expected[i] = apply_binary(Op::kMul, col[i], col[i]);
    }
    table.binary(Op::kMul, col.data(), col.data(), col.data(), col.size());
    for (std::size_t i = 0; i < col.size(); ++i) {
      EXPECT_EQ(bits(expected[i]), bits(col[i])) << "lane " << i;
    }
  }
}

TEST(Program, DeepChainNeverTouchesTheCStack) {
  // 200k unary genes: a recursive walk would overflow the stack; every
  // structural operation on the genome must be iterative — scans,
  // lowering, printing and simplify alike.
  constexpr int kDepth = 200000;
  constexpr auto kNodes = static_cast<std::size_t>(kDepth) + 1;
  Genome genome(kDepth, Gene{Op::kNeg});
  genome.push_back(num(1.5));
  EXPECT_EQ(genome_depth(genome), kDepth + 1);
  EXPECT_EQ(subtree_end(genome, 0), kNodes);
  std::string key;
  genome_key(genome, key);
  EXPECT_FALSE(key.empty());

  Program program;
  program.load(genome, 1);  // iterative lowering
  EXPECT_EQ(program.size(), kNodes);
  EXPECT_EQ(program.stack_need(), 1u);
  EvalScratch scratch;
  EXPECT_DOUBLE_EQ(program.eval_scalar({}, scratch), 1.5);

  const std::string printed = to_string(genome, variable_names(1));
  std::string expected;
  for (int i = 0; i < kDepth; ++i) expected += "(-";
  expected += "1.5";
  expected.append(kDepth, ')');
  EXPECT_EQ(printed, expected);

  simplify(genome);  // folds link by link, an even count of negations
  ASSERT_EQ(genome.size(), 1u);
  EXPECT_EQ(to_string(genome, variable_names(1)), "1.5");
}

TEST(Program, RandomGenomeDepthRequestIsCapped) {
  util::Rng rng(7);
  Genome genome;
  random_genome(rng, 2, 1 << 30, false, genome);
  EXPECT_LE(genome_depth(genome), kMaxGrowDepth + 1);
  random_genome(rng, 2, 4096, true, genome);
  EXPECT_LE(genome_depth(genome), kMaxFullDepth + 1);
}

// --- The full engine --------------------------------------------------------

/// 48 points of Y = 0.75*X - 40 (one variable) or Y = X0*X1/5 (two), plus
/// uniform noise in [-noise, noise] on Y when `noise` > 0.
correlate::Dataset synthetic_dataset(std::uint64_t seed, std::size_t n_vars,
                                     double noise = 0.0) {
  correlate::Dataset dataset;
  dataset.n_vars = n_vars;
  util::Rng rng(seed);
  for (int i = 0; i < 48; ++i) {
    correlate::DataPoint p;
    p.xs.resize(n_vars);
    for (auto& x : p.xs) x = rng.uniform(0.0, 255.0);
    p.y = n_vars == 1 ? 0.75 * p.xs[0] - 40.0
                      : p.xs[0] * p.xs[1] / 5.0;
    if (noise > 0.0) p.y += rng.uniform(-noise, noise);
    dataset.points.push_back(std::move(p));
  }
  return dataset;
}

TEST(TapeEngine, InferMatchesTreeEngineBitwise) {
  // The acceptance gate in miniature: for several datasets, tape
  // inference must return exactly the values frozen below — formula
  // string, fitness bits, generation count, everything report_signature
  // folds in. The retired recursive tree-walking fitness engine returned
  // the same as long as constants were tuned by a coordinate line
  // search; these rows were re-frozen when robust Gauss-Newton replaced
  // it (the exact fits now score ~1e-15 instead of ~1e-10).
  struct Golden {
    std::uint64_t seed;
    std::size_t n_vars;
    const char* formula;
    std::uint64_t fitness_bits;
    std::size_t generations;
    bool converged;
    const char* best;
  };
  static constexpr Golden kGolden[] = {
      {11, 1, "Y/10 = ((0.75 * (X/10)) + -4)", 0x3cc4b88ee23b88eeULL, 0, true,
       "((0.75 * X) + -4)"},
      {11, 2, "Y/1000 = (2 * ((X0/100) * (X1/100)))", 0x3c85b8ee23b88ee2ULL,
       0, true, "(2 * (X0 * X1))"},
      {12, 1, "Y/10 = ((7.5 * (X/100)) + -4)", 0x3cbe82fa0be82fa1ULL, 0, true,
       "((7.5 * X) + -4)"},
      {12, 2, "Y/1000 = (2 * ((X0/100) * (X1/100)))", 0x3caa3594d653594dULL,
       0, true, "(2 * (X0 * X1))"},
  };
  for (const auto& golden : kGolden) {
    const auto dataset = synthetic_dataset(golden.seed, golden.n_vars);
    GpConfig config;
    config.population = 96;
    config.max_generations = 12;
    const auto result = infer_formula(dataset, config);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->formula, golden.formula)
        << "seed " << golden.seed << ", " << golden.n_vars << " vars";
    EXPECT_EQ(bits(result->fitness), golden.fitness_bits)
        << "fresh bits 0x" << std::hex << bits(result->fitness);
    EXPECT_EQ(result->generations_run, golden.generations);
    EXPECT_EQ(result->converged, golden.converged);
    EXPECT_EQ(to_string(result->best, variable_names(golden.n_vars)),
              golden.best);
  }
}

TEST(TapeEngine, EvolvedResultsMatchPointerTreeBreedingBitwise) {
  // The golden datasets above stop at their tuned seeds: those runs draw
  // no random genome and breed nothing. Here seeding is off and there is
  // no early stop, so each result is what eight generations of
  // crossover, subtree and point mutation produced: any change to a
  // breeding draw, its order or a splice moves it. The pointer-tree
  // breeding engine the prefix genome replaced matched these rows up to
  // the coordinate line-search tuner; three were re-frozen when
  // Gauss-Newton tuning replaced it (the tuned top three each generation
  // steer the evolution).
  struct Golden {
    std::uint64_t seed;
    std::size_t n_vars;
    std::uint64_t fitness_bits;
    const char* best;
  };
  static constexpr Golden kGolden[] = {
      {11, 1, 0x3feb3fd62729aa7aULL, "(sqrt((6.813 - X)) * log(X))"},
      {11, 2, 0x3fd7bbab9d933d8fULL,
       "(((X1 + X1) / (2.749 / X0)) + (((X1 + X1) / (2.749 / X0)) + X1))"},
      {12, 1, 0x3fe0da0f67658d2bULL, "(-((min(1.725, X) * X) * -3.254))"},
      {12, 2, 0x3fe523006783d2c0ULL, "(X1 + (X1 * X0))"},
  };
  for (const auto& golden : kGolden) {
    const auto dataset = synthetic_dataset(golden.seed, golden.n_vars);
    GpConfig config;
    config.population = 64;
    config.max_generations = 8;
    config.seed_templates = false;
    config.seed_least_squares = false;
    config.fitness_threshold = 0.0;
    const auto result = infer_formula(dataset, config);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(to_string(result->best, variable_names(golden.n_vars)),
              golden.best)
        << "seed " << golden.seed << ", " << golden.n_vars << " vars";
    EXPECT_EQ(bits(result->fitness), golden.fitness_bits)
        << "fresh bits 0x" << std::hex << bits(result->fitness);
    EXPECT_EQ(result->generations_run, 8u);
  }
}

TEST(TapeEngine, SeedTemplateDrawsMatchPointerTreeGolden) {
  // The goldens above stop at their least-squares seeds, which draw
  // nothing, before any random genome is drawn. Here those are off and
  // the template constants, drawn from the run's RNG, decide the result.
  // Under the pointer-tree engine and the coordinate line search,
  // drawing them in any other order moved every row. Gauss-Newton tuning
  // lands these linear templates on the same exact fit from any start,
  // so with tuning on a reordered two-constant draw no longer moves the
  // first four rows. The last four run the same datasets with tuning
  // off: there the drawn constants reach the result as drawn, so a
  // reordered draw moves them. With the threshold at 0 only the cap and
  // the stall rule stop a run: the tuning-on rows hold their exact fit
  // from the start and stall out after generation 6, the earliest the
  // rule allows.
  struct Golden {
    std::uint64_t seed;
    std::size_t n_vars;
    bool constant_tuning;
    std::uint64_t fitness_bits;
    std::size_t generations;
    const char* best;
    const char* formula;
  };
  static constexpr Golden kGolden[] = {
      {11, 1, true, 0x3cc4b88ee23b88eeULL, 6, "((0.75 * X) + -4)",
       "Y/10 = ((0.75 * (X/10)) + -4)"},
      {11, 2, true, 0x3c85b8ee23b88ee2ULL, 6, "(2 * (X0 * X1))",
       "Y/1000 = (2 * ((X0/100) * (X1/100)))"},
      {12, 1, true, 0x3cbe82fa0be82fa1ULL, 6, "((7.5 * X) + -4)",
       "Y/10 = ((7.5 * (X/100)) + -4)"},
      {12, 2, true, 0x3caa3594d653594dULL, 6, "(2 * (X0 * X1))",
       "Y/1000 = (2 * ((X0/100) * (X1/100)))"},
      {11, 1, false, 0x3ff063ef244e5267ULL, 8,
       "((((X - 2.551) - (-4.594 / X)) - (-4.594 / X)) + -6.017)",
       "Y/10 = (((((X/10) - 2.551) - (-4.594 / (X/10))) - "
       "(-4.594 / (X/10))) + -6.017)"},
      {11, 2, false, 0x3fb0c3a84aaebbf3ULL, 8, "((X0 * 1.948) * X1)",
       "Y/1000 = (((X0/100) * 1.948) * (X1/100))"},
      {12, 1, false, 0x3ff08b5f97450160ULL, 8,
       "(-((min((X / 3.357), (X + X)) * (X / 0.9811)) * -8.086))",
       "Y/10 = (-((min(((X/100) / 3.357), ((X/100) + (X/100))) * "
       "((X/100) / 0.9811)) * -8.086))"},
      {12, 2, false, 0x3fe1edffcc1e70e1ULL, 8,
       "((((sin(X1) - X0) + (X1 * X0)) / ((X0 - X0) + (1/X1))) + X0)",
       "Y/1000 = ((((sin((X1/100)) - (X0/100)) + ((X1/100) * (X0/100))) / "
       "(((X0/100) - (X0/100)) + (1/(X1/100)))) + (X0/100))"},
  };
  for (const auto& golden : kGolden) {
    SCOPED_TRACE("seed " + std::to_string(golden.seed) + ", " +
                 std::to_string(golden.n_vars) + " vars, tuning " +
                 (golden.constant_tuning ? "on" : "off"));
    const auto dataset = synthetic_dataset(golden.seed, golden.n_vars);
    GpConfig config;
    config.population = 64;
    config.max_generations = 8;
    config.seed_least_squares = false;
    config.constant_tuning = golden.constant_tuning;
    config.fitness_threshold = 0.0;
    const auto result = infer_formula(dataset, config);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(to_string(result->best, variable_names(golden.n_vars)),
              golden.best);
    EXPECT_EQ(result->formula, golden.formula);
    EXPECT_EQ(bits(result->fitness), golden.fitness_bits)
        << "fresh bits 0x" << std::hex << bits(result->fitness);
    EXPECT_EQ(result->generations_run, golden.generations);
  }
}

TEST(TapeEngine, DeferredSeedsLeaveEveryResultAsSettlingThemGolden) {
  // A seed waits, unscored and untuned, while the lead's penalized
  // fitness is below its floor (parsimony x size). On these near-exact
  // datasets the least-squares affine or product fit leads, and the
  // larger seeds wait: one of one variable's, five of two variables'.
  // The first two rows stop at the seeds, so the waiting ones
  // are never settled; the last two run three generations with the
  // threshold at 0, so they are settled before the random genomes are
  // drawn, and tournaments read their fitness from generation 1 on. Every
  // value was captured on the engine that scored and tuned each seed in
  // turn; an engine that never settles the waiting seeds fails the last
  // two rows.
  struct Golden {
    std::size_t n_vars;
    double noise;
    bool stop_at_seeds;
    const char* formula;
    std::uint64_t fitness_bits;
    std::uint64_t key_digest;  // FNV-1a over genome_key(best)
    std::size_t generations;
  };
  static constexpr Golden kGolden[] = {
      {1, 0.01, true, "Y/10 = ((7.5 * (X/100)) + -4)", 0x3f3e7445512b77b3ULL,
       0x75b61ad91fdc9b80ULL, 0},
      {2, 1.0, true, "Y/1000 = (2 * ((X0/100) * (X1/100)))",
       0x3f3feb3e3986bf49ULL, 0x706b820eed04036bULL, 0},
      {1, 0.01, false, "Y/10 = ((7.5 * (X/100)) + -4)",
       0x3f3e0c735f94aa4dULL, 0x240941846358a4c2ULL, 3},
      {2, 1.0, false, "Y/1000 = (2 * ((X0/100) * (X1/100)))",
       0x3f3f1ce1b0771516ULL, 0x5c08098abf12891eULL, 3},
  };
  for (const auto& golden : kGolden) {
    SCOPED_TRACE(std::to_string(golden.n_vars) + " vars, " +
                 (golden.stop_at_seeds ? "stops at its seeds" : "goes on"));
    const auto dataset = synthetic_dataset(12, golden.n_vars, golden.noise);
    GpConfig config;
    config.population = 64;
    if (!golden.stop_at_seeds) {
      config.fitness_threshold = 0.0;
      config.max_generations = 3;
    }
    const auto result = infer_formula(dataset, config);
    ASSERT_TRUE(result.has_value());
    std::string key;
    genome_key(result->best, key);
    const std::uint64_t key_digest =
        util::fnv1a64_str(key, 0xCBF29CE484222325ULL);
    EXPECT_EQ(result->formula, golden.formula);
    EXPECT_EQ(bits(result->fitness), golden.fitness_bits)
        << "fresh bits 0x" << std::hex << bits(result->fitness);
    EXPECT_EQ(key_digest, golden.key_digest)
        << "fresh digest 0x" << std::hex << key_digest;
    EXPECT_EQ(result->generations_run, golden.generations);
  }
}

TEST(TapeEngine, SimdAndScalarTapeInferBitIdentical) {
  // The other half of the acceptance gate: with the AVX2 kernel table
  // forced off and on, tape inference must produce the same
  // report-signature inputs bit for bit.
  if (!simd_supported()) {
    GTEST_SKIP() << "no AVX2 kernel table compiled/supported here";
  }
  for (const std::size_t n_vars : {1u, 2u}) {
    const auto dataset = synthetic_dataset(44, n_vars);
    GpConfig config;
    config.population = 96;
    config.max_generations = 12;

    std::optional<GpResult> reference;
    {
      SimdGuard guard(false);
      reference = infer_formula(dataset, config);
    }
    ASSERT_TRUE(reference.has_value());

    SimdGuard guard(true);
    const auto result = infer_formula(dataset, config);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->formula, reference->formula) << n_vars << " vars";
    EXPECT_EQ(bits(result->fitness), bits(reference->fitness));
    EXPECT_EQ(result->generations_run, reference->generations_run);
    EXPECT_EQ(result->converged, reference->converged);
  }
}

}  // namespace
}  // namespace dpr::gp
