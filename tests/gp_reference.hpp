#pragma once
// The tests' reference evaluator for GP genomes: a short recursive walk
// over the prefix array, the plain reading of the function set's
// semantics. It copies the protected-op formulas instead of calling
// apply_unary/apply_binary (gp/kernels.hpp), so the tape's bit-exactness
// contract keeps an oracle of its own. It recurses once per level, so
// deep chains are tested elsewhere.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <stdexcept>

#include "gp/genome.hpp"
#include "gp/vmath.hpp"

namespace dpr::gp::reference {

struct Walk {
  double value = 0.0;
  int depth = 0;  // a single leaf is 1
};

/// Walks the subtree that starts at `at` and advances `at` past it.
inline Walk walk(std::span<const Gene> genome, std::size_t& at,
                 std::span<const double> vars) {
  if (at >= genome.size()) throw std::invalid_argument("malformed genome");
  const Gene& gene = genome[at++];
  switch (arity(gene.op)) {
    case 0:
      if (gene.op == Op::kConst) return {gene.value, 1};
      // A reference outside the operand vector is a hard error, never a
      // silent 0.
      if (gene.var < 0 || static_cast<std::size_t>(gene.var) >= vars.size()) {
        throw std::out_of_range("variable index out of range");
      }
      return {vars[static_cast<std::size_t>(gene.var)], 1};
    case 1: {
      const Walk x = walk(genome, at, vars);
      const double v = x.value;
      double out = 0.0;
      switch (gene.op) {
        case Op::kSqrt: out = std::sqrt(std::abs(v)); break;
        case Op::kLog: out = vm_log(v); break;
        case Op::kAbs: out = std::abs(v); break;
        case Op::kNeg: out = -v; break;
        case Op::kSin: out = vm_sin(v); break;
        case Op::kCos: out = vm_cos(v); break;
        case Op::kTan: out = vm_tan(v); break;
        default: out = std::abs(v) < 1e-9 ? 0.0 : 1.0 / v; break;  // kInv
      }
      return {out, x.depth + 1};
    }
    default: {
      const Walk lhs = walk(genome, at, vars);
      const Walk rhs = walk(genome, at, vars);
      const double a = lhs.value;
      const double b = rhs.value;
      double out = 0.0;
      switch (gene.op) {
        case Op::kAdd: out = a + b; break;
        case Op::kSub: out = a - b; break;
        case Op::kMul: out = a * b; break;
        case Op::kDiv: out = std::abs(b) < 1e-9 ? 1.0 : a / b; break;
        case Op::kMin: out = std::min(a, b); break;
        default: out = std::max(a, b); break;  // kMax
      }
      return {out, std::max(lhs.depth, rhs.depth) + 1};
    }
  }
}

/// The value and depth of a genome that must be exactly one tree.
/// Throws std::out_of_range on a variable outside `vars`.
inline Walk eval(std::span<const Gene> genome,
                 std::span<const double> vars = {}) {
  std::size_t at = 0;
  const Walk result = walk(genome, at, vars);
  if (at != genome.size()) throw std::invalid_argument("malformed genome");
  return result;
}

}  // namespace dpr::gp::reference
