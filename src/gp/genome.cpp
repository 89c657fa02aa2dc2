#include "gp/genome.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <sstream>
#include <stdexcept>

#include "gp/program.hpp"

namespace dpr::gp {

std::size_t subtree_end(std::span<const Gene> genome, std::size_t start) {
  std::size_t i = start;
  for (std::ptrdiff_t open = 1; open > 0 && i < genome.size(); ++i) {
    open += arity(genome[i].op) - 1;
  }
  return i;
}

int genome_depth(std::span<const Gene> genome,
                 std::vector<std::uint8_t>& open) {
  // `open` holds, per ancestor of the next gene, how many of its children
  // are still unfinished; a gene's depth is its ancestor count plus one.
  open.clear();
  std::size_t deepest = 0;
  for (const Gene& gene : genome) {
    deepest = std::max(deepest, open.size() + 1);
    if (const int n_children = arity(gene.op); n_children > 0) {
      open.push_back(static_cast<std::uint8_t>(n_children));
      continue;
    }
    // A leaf finishes its parent's child, and so on up while that was the
    // parent's last one.
    while (!open.empty() && --open.back() == 0) open.pop_back();
  }
  return static_cast<int>(deepest);
}

int genome_depth(std::span<const Gene> genome) {
  std::vector<std::uint8_t> open;
  return genome_depth(genome, open);
}

void genome_key(std::span<const Gene> genome, std::string& out) {
  out.clear();
  for (const Gene& gene : genome) {
    out.push_back(static_cast<char>(gene.op));
    if (gene.op == Op::kVar) {
      const auto var = static_cast<std::uint32_t>(gene.var);
      out.append(reinterpret_cast<const char*>(&var), sizeof var);
    } else if (gene.op == Op::kConst) {
      out.append(reinterpret_cast<const char*>(&gene.value),
                 sizeof gene.value);
    }
  }
}

namespace {

Op random_function(util::Rng& rng) {
  // Arithmetic-weighted function choice: real ECU formulas are mostly
  // affine/products, but the full 14-function set stays reachable.
  static const Op weighted[] = {
      Op::kAdd, Op::kAdd, Op::kAdd, Op::kSub, Op::kSub, Op::kMul, Op::kMul,
      Op::kMul, Op::kDiv, Op::kDiv, Op::kSqrt, Op::kLog, Op::kAbs,
      Op::kNeg, Op::kMin, Op::kMax, Op::kSin, Op::kCos, Op::kTan,
      Op::kInv};
  return weighted[rng.uniform_int(0, std::size(weighted) - 1)];
}

}  // namespace

void random_genome(util::Rng& rng, std::size_t n_vars, int depth, bool full,
                   Genome& out) {
  out.clear();
  depth = std::min(depth, full ? kMaxFullDepth : kMaxGrowDepth);
  // Depth budgets of the subtrees still to generate, lhs on top, so genes
  // (and their draws) come out in pre-order. Each level down leaves at
  // most one pending rhs behind, so the clamped depth bounds the stack.
  std::array<int, kMaxGrowDepth + 2> pending{};
  std::size_t top = 0;
  pending[top++] = depth;
  while (top > 0) {
    const int budget = pending[--top];
    Gene gene;
    const bool make_leaf = budget <= 0 || (!full && rng.chance(0.3));
    if (make_leaf) {
      if (rng.chance(0.6)) {
        gene.op = Op::kVar;
        gene.var = static_cast<std::int32_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n_vars) - 1));
      } else {
        gene.value = rng.uniform(-10.0, 10.0);
      }
    } else {
      gene.op = random_function(rng);
      for (int c = 0; c < arity(gene.op); ++c) pending[top++] = budget - 1;
    }
    out.push_back(gene);
  }
}

namespace {

bool is_const(const Gene& gene, double v) {
  return gene.op == Op::kConst && gene.value == v;
}

std::string format_const(double v) {
  std::ostringstream out;
  out.precision(4);
  out << v;
  return out.str();
}

/// How an operator prints: `open` lhs [`separator` rhs] `close`.
struct Spelling {
  const char* open;
  const char* separator;
  const char* close;
};

Spelling spelling(Op op) {
  switch (op) {
    case Op::kAdd: return {"(", " + ", ")"};
    case Op::kSub: return {"(", " - ", ")"};
    case Op::kMul: return {"(", " * ", ")"};
    case Op::kDiv: return {"(", " / ", ")"};
    case Op::kMin: return {"min(", ", ", ")"};
    case Op::kMax: return {"max(", ", ", ")"};
    case Op::kSqrt: return {"sqrt(", "", ")"};
    case Op::kLog: return {"log(", "", ")"};
    case Op::kAbs: return {"abs(", "", ")"};
    case Op::kNeg: return {"(-", "", ")"};
    case Op::kSin: return {"sin(", "", ")"};
    case Op::kCos: return {"cos(", "", ")"};
    case Op::kTan: return {"tan(", "", ")"};
    case Op::kInv: return {"(1/", "", ")"};
    default: return {"?", "", ""};
  }
}

}  // namespace

void simplify(Genome& genome) {
  // Right to left, an operator finds its children already simplified: the
  // finished subtrees sit packed at the tail, [front, size), its lhs first
  // and its rhs next. `done` holds where each finished subtree starts, the
  // rightmost at the bottom, and whether it reads a variable. A simplified
  // subtree is never longer than its source, so `front` stays past every
  // gene still to read and the pass runs in place. Siblings are disjoint
  // and the rules pure, so simplifying the rhs before the lhs changes
  // nothing.
  struct Done {
    std::size_t at;
    bool reads_var;
  };
  std::vector<Done> done;
  std::size_t front = genome.size();
  Program program;
  EvalScratch scratch;
  for (std::size_t i = genome.size(); i-- > 0;) {
    const Gene gene = genome[i];
    const auto n_children = static_cast<std::size_t>(arity(gene.op));
    if (done.size() < n_children) {
      throw std::invalid_argument("gp: malformed genome");
    }
    // This subtree ends where the finished subtree below its children
    // starts; its rhs starts where its lhs ends.
    const std::size_t end = done.size() > n_children
                                ? done[done.size() - 1 - n_children].at
                                : genome.size();
    const std::size_t rhs_at =
        n_children == 2 ? done[done.size() - 2].at : end;
    bool reads_var = gene.op == Op::kVar;
    for (std::size_t c = 0; c < n_children; ++c) {
      reads_var |= done.back().reads_var;
      done.pop_back();
    }
    genome[--front] = gene;
    if (n_children > 0 && !reads_var) {
      program.load(std::span<const Gene>(genome).subspan(front, end - front),
                   0);
      const double v = program.eval_scalar({}, scratch);
      if (std::isfinite(v)) {
        front = end - 1;
        genome[front] = Gene{Op::kConst, 0, v};
        done.push_back({front, false});
        continue;
      }
    }
    const std::size_t lhs_at = front + 1;
    const auto lhs_is = [&](double v) {
      return rhs_at - lhs_at == 1 && is_const(genome[lhs_at], v);
    };
    const auto rhs_is = [&](double v) {
      return end - rhs_at == 1 && is_const(genome[rhs_at], v);
    };
    // The dropped operand is a constant leaf, so the kept one reads a
    // variable exactly when the whole subtree did.
    const auto keep_lhs = [&] {
      std::move_backward(genome.begin() + static_cast<std::ptrdiff_t>(lhs_at),
                         genome.begin() + static_cast<std::ptrdiff_t>(rhs_at),
                         genome.begin() + static_cast<std::ptrdiff_t>(end));
      front = end - (rhs_at - lhs_at);
    };
    const auto keep_rhs = [&] { front = rhs_at; };
    const auto zero = [&] {
      front = end - 1;
      genome[front] = Gene{Op::kConst, 0, 0.0};
      reads_var = false;
    };
    switch (gene.op) {
      case Op::kAdd:
        if (lhs_is(0.0)) keep_rhs();
        else if (rhs_is(0.0)) keep_lhs();
        break;
      case Op::kSub:
        if (rhs_is(0.0)) keep_lhs();
        break;
      case Op::kMul:
        if (lhs_is(1.0)) keep_rhs();
        else if (rhs_is(1.0)) keep_lhs();
        else if (lhs_is(0.0) || rhs_is(0.0)) zero();
        break;
      case Op::kDiv:
        if (rhs_is(1.0)) keep_lhs();
        break;
      default:
        break;
    }
    done.push_back({front, reads_var});
  }
  if (done.size() != 1) throw std::invalid_argument("gp: malformed genome");
  genome.erase(genome.begin(),
               genome.begin() + static_cast<std::ptrdiff_t>(front));
}

std::vector<std::string> variable_names(std::size_t n_vars) {
  if (n_vars <= 1) return {"X"};
  std::vector<std::string> names(n_vars, "X");
  for (std::size_t v = 0; v < n_vars; ++v) names[v] += std::to_string(v);
  return names;
}

std::string to_string(std::span<const Gene> genome,
                      const std::vector<std::string>& names) {
  // Left to right: an operator prints its opening; a leaf prints itself
  // and then finishes its parent's child, and so on up while that was the
  // parent's last one. `open` holds, per open ancestor, its op and how
  // many of its children are still unprinted. Everything appends to one
  // buffer.
  std::string out;
  std::vector<std::pair<Op, int>> open;
  for (const Gene& gene : genome) {
    if (const int n_children = arity(gene.op); n_children > 0) {
      out += spelling(gene.op).open;
      open.emplace_back(gene.op, n_children);
      continue;
    }
    if (gene.op == Op::kConst) {
      out += format_const(gene.value);
    } else if (gene.var >= 0 &&
               static_cast<std::size_t>(gene.var) < names.size()) {
      out += names[static_cast<std::size_t>(gene.var)];
    } else {
      throw std::out_of_range("gp: variable index has no name");
    }
    while (!open.empty()) {
      auto& [op, unprinted] = open.back();
      if (--unprinted > 0) {
        out += spelling(op).separator;
        break;
      }
      out += spelling(op).close;
      open.pop_back();
    }
  }
  return out;
}

}  // namespace dpr::gp
