#pragma once
// The GP individual as a flat prefix genome — the representation gplearn,
// the library the paper ran, stores programs in. One Gene per tree node,
// in Expr pre-order (node, lhs subtree, rhs subtree), so a pre-order node
// index *is* a genome index and every subtree is one contiguous span.
// Crossover and subtree mutation splice spans found by an arity-count
// scan, point mutation edits genes in place, and gp::Program lowers a
// genome span straight to its tape. Every walk here is iterative with
// growable scratch, so pathologically deep genomes never touch the C
// stack. Expr is the tree form for seed skeletons, simplify(), printing
// and checkpoint I/O; to_genome/to_expr convert between the two.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "gp/expr.hpp"
#include "util/rng.hpp"

namespace dpr::gp {

struct Gene {
  Op op = Op::kConst;
  std::int32_t var = 0;  // for kVar
  double value = 0.0;    // for kConst
};

using Genome = std::vector<Gene>;

/// Pre-order flattening of `expr`.
Genome to_genome(const Expr& expr);

/// Rebuild the tree a genome encodes. Iterative; throws
/// std::invalid_argument unless the genome is exactly one complete tree.
Expr to_expr(std::span<const Gene> genome);

/// One past the last gene of the subtree rooted at `start`: the arity-count
/// scan (each gene opens arity(op) child slots and fills one).
std::size_t subtree_end(std::span<const Gene> genome, std::size_t start);

/// Tree depth (a single leaf is 1), equal to Expr::depth of to_expr(genome).
/// `open` is caller-owned scratch (one entry per open ancestor), so a
/// warm caller scans without allocating.
int genome_depth(std::span<const Gene> genome,
                 std::vector<std::uint8_t>& open);
int genome_depth(std::span<const Gene> genome);

/// Serialize the fitness-cache key into `out` (cleared first): per gene the
/// op byte, then the variable index (u32) for kVar or the raw value bits
/// (u64) for kConst. Prefix order plus per-op payload sizes make the
/// stream self-delimiting, so two genomes get equal keys iff they encode
/// the same tree — constants that differ only in the sign of zero or a NaN
/// payload included. Gene bytes are never hashed raw: their padding is
/// indeterminate.
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
/// to_expr(random_genome(...)): the same draws, as a tree.
Expr random_expr(util::Rng& rng, std::size_t n_vars, int depth, bool full);

}  // namespace dpr::gp
