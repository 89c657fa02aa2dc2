#pragma once
// The GP program as a flat prefix genome — the representation gplearn,
// the library the paper ran, keeps a program in from seeding to printing.
// One Gene per tree node in pre-order (node, lhs subtree, rhs subtree), so
// every subtree is one contiguous span. Crossover and subtree mutation
// splice spans found by an arity-count scan, point mutation edits genes
// in place, gp::Program lowers a genome span straight to its tape, and
// simplify() and to_string() are passes over the array. Every walk here
// is iterative with growable scratch, so pathologically deep genomes
// never touch the C stack. The tests keep an independent evaluator, a
// recursive reference walker (tests/gp_reference.hpp).
//
// The function set matches the paper's 14 supported functions (§6):
// addition, subtraction, multiplication, division, square root, log,
// absolute value, negation, maximum, minimum, sine, cosine, tangent,
// inverse.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace dpr::gp {

enum class Op : std::uint8_t {
  kConst,
  kVar,
  // Binary functions.
  kAdd,
  kSub,
  kMul,
  kDiv,   // protected: |denominator| < 1e-9 evaluates to 1
  kMin,
  kMax,
  // Unary functions.
  kSqrt,  // protected: sqrt(|x|)
  kLog,   // protected: log(|x|), 0 at 0
  kAbs,
  kNeg,
  kSin,
  kCos,
  kTan,   // clamped to [-1e6, 1e6]
  kInv,   // protected: 1/x, 0 when |x| < 1e-9
};

constexpr int arity(Op op) {
  switch (op) {
    case Op::kConst:
    case Op::kVar:
      return 0;
    case Op::kSqrt:
    case Op::kLog:
    case Op::kAbs:
    case Op::kNeg:
    case Op::kSin:
    case Op::kCos:
    case Op::kTan:
    case Op::kInv:
      return 1;
    default:
      return 2;
  }
}

struct Gene {
  Op op = Op::kConst;
  std::int32_t var = 0;  // for kVar
  double value = 0.0;    // for kConst
};

using Genome = std::vector<Gene>;

/// One past the last gene of the subtree rooted at `start`: the arity-count
/// scan (each gene opens arity(op) child slots and fills one).
std::size_t subtree_end(std::span<const Gene> genome, std::size_t start);

/// Tree depth (a single leaf is 1). `open` is caller-owned scratch (one
/// entry per open ancestor), so a warm caller scans without allocating.
int genome_depth(std::span<const Gene> genome,
                 std::vector<std::uint8_t>& open);
int genome_depth(std::span<const Gene> genome);

/// Serialize the key of the constant tuner's memo (gp/engine.cpp) into
/// `out` (cleared first): per gene the op byte, then the variable index
/// (u32) for kVar or the raw value bits (u64) for kConst. Prefix order
/// plus per-op payload sizes make the stream self-delimiting, so two
/// genomes get equal keys iff they encode the same tree — constants that
/// differ only in the sign of zero or a NaN payload included. Gene bytes
/// are never hashed raw: their padding is indeterminate.
void genome_key(std::span<const Gene> genome, std::string& out);

/// Random tree generation ("grow" when `full` is false) up to `depth`,
/// appended to `out` (cleared first). Draws happen in pre-order, one node
/// at a time. The requested depth is clamped to kMaxGrowDepth (grow) or
/// kMaxFullDepth (full trees double per level, so the cap also bounds the
/// node count).
inline constexpr int kMaxGrowDepth = 64;
inline constexpr int kMaxFullDepth = 16;
void random_genome(util::Rng& rng, std::size_t n_vars, int depth, bool full,
                   Genome& out);

/// Constant folding and algebraic identity cleanup, in place. Bottom up,
/// each operator whose subtree holds no kVar folds to its value when that
/// value is finite; otherwise 0+x, x+0, x-0, 1*x and x*1 drop to x, 0*x
/// and x*0 to 0, and x/1 to x. Throws std::invalid_argument unless the
/// genome is exactly one complete tree.
void simplify(Genome& genome);

/// The plain variable names: "X" for a single variable, else "X0", "X1"...
std::vector<std::string> variable_names(std::size_t n_vars);

/// Render a complete genome with `names[v]` for variable v, e.g.
/// "((0.75 * X) + -48)"; constants print with 4 significant digits.
/// Throws std::out_of_range for a variable without a name.
std::string to_string(std::span<const Gene> genome,
                      const std::vector<std::string>& names);

}  // namespace dpr::gp
