#include "gp/genome.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <memory>
#include <stdexcept>

namespace dpr::gp {

Genome to_genome(const Expr& expr) {
  // Iterative pre-order (rhs pushed first so lhs pops first): the node
  // order crossover and mutation site draws index into.
  Genome genome;
  std::vector<const Node*> stack{expr.root()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    genome.push_back({node->op, node->var, node->value});
    if (node->rhs) stack.push_back(node->rhs.get());
    if (node->lhs) stack.push_back(node->lhs.get());
  }
  return genome;
}

Expr to_expr(std::span<const Gene> genome) {
  // Right to left, every operator finds its lhs on top of the stack of
  // finished subtrees and its rhs beneath it.
  std::vector<std::unique_ptr<Node>> done;
  for (std::size_t i = genome.size(); i-- > 0;) {
    const Gene& gene = genome[i];
    const auto n_children = static_cast<std::size_t>(arity(gene.op));
    if (done.size() < n_children) {
      throw std::invalid_argument("gp: malformed genome");
    }
    auto node = std::make_unique<Node>();
    node->op = gene.op;
    node->var = gene.var;
    node->value = gene.value;
    if (n_children >= 1) {
      node->lhs = std::move(done.back());
      done.pop_back();
    }
    if (n_children == 2) {
      node->rhs = std::move(done.back());
      done.pop_back();
    }
    done.push_back(std::move(node));
  }
  if (done.size() != 1) throw std::invalid_argument("gp: malformed genome");
  return Expr(std::move(done.back()));
}

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

Expr random_expr(util::Rng& rng, std::size_t n_vars, int depth, bool full) {
  Genome genome;
  random_genome(rng, n_vars, depth, full, genome);
  return to_expr(genome);
}

}  // namespace dpr::gp
