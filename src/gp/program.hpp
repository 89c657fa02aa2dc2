#pragma once
// Flat bytecode execution engine for GP genomes. Program lowers a prefix
// genome span (gp/genome.hpp) to a postfix tape and executes it with an
// iterative stack machine over a column-major SampleMatrix: the operator
// dispatch runs once per *node* instead of once per (node, sample), the
// inner loops stream over contiguous columns, and a scoring pass performs
// zero allocations once the scratch buffers are warm. Every instruction
// applies the function set's exact operation (protected-op semantics
// included) to the operands a recursive walk of the tree would hand it, so
// every sample's result is bit-identical to the tests' reference walker
// (tests/gp_reference.hpp) — the property the fleet's report_signature
// determinism gates rely on.
//
// load() is the one lowering: a single right-to-left scan over the genome
// (right to left, an operator finds its lhs then its rhs on the operand
// stack) that emits fused instructions. An operator reads leaf arguments
// straight from the sample columns or the constant pool instead of first
// materializing them as stack columns, which removes roughly half the
// memory traffic of a typical small tree. The constant pool is in genome
// order, so constant tuning patches pool slot k in lockstep with the k-th
// kConst gene and never relowers.
//
// Every scored offspring is lowered and evaluated; there is no fitness
// cache. On the 30-180-row datasets a campaign produces, keying, hashing
// and probing a genome cost about as much as lowering and evaluating it.

#include <cstdint>
#include <span>
#include <vector>

#include "gp/genome.hpp"

namespace dpr::gp {

/// Column-major (structure-of-arrays) sample storage: column v holds
/// variable v of every sample contiguously, so a tape instruction that
/// touches one variable streams over adjacent memory.
class SampleMatrix {
 public:
  SampleMatrix() = default;
  SampleMatrix(std::size_t n_samples, std::size_t n_vars)
      : n_samples_(n_samples),
        n_vars_(n_vars),
        data_(n_samples * n_vars, 0.0) {}

  /// Transpose row-major points (the correlate::Dataset layout) into
  /// columns. Every row must have exactly `n_vars` entries.
  static SampleMatrix from_rows(const std::vector<std::vector<double>>& rows,
                                std::size_t n_vars);

  std::size_t n_samples() const { return n_samples_; }
  std::size_t n_vars() const { return n_vars_; }

  double& at(std::size_t sample, std::size_t var) {
    return data_[var * n_samples_ + sample];
  }
  double at(std::size_t sample, std::size_t var) const {
    return data_[var * n_samples_ + sample];
  }
  std::span<const double> column(std::size_t var) const {
    return {data_.data() + var * n_samples_, n_samples_};
  }

 private:
  std::size_t n_samples_ = 0;
  std::size_t n_vars_ = 0;
  std::vector<double> data_;  // data_[var * n_samples + sample]
};

/// Growable 64-byte-aligned double buffer for the evaluation stack.
/// Unlike std::vector, ensure() never value-initializes: the tape writes
/// every stack column before reading it, so zero-filling was pure waste —
/// the old vector::resize cleared the whole stack's growth on every call
/// instead of only tracking the live watermark. Capacity only grows
/// (watermark semantics); contents are scratch and survive nothing.
class AlignedBuffer {
 public:
  AlignedBuffer() = default;
  ~AlignedBuffer() { release(); }
  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(other.data_), capacity_(other.capacity_) {
    other.data_ = nullptr;
    other.capacity_ = 0;
  }
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      release();
      data_ = other.data_;
      capacity_ = other.capacity_;
      other.data_ = nullptr;
      other.capacity_ = 0;
    }
    return *this;
  }
  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  /// Grow capacity to at least `n` doubles (geometric, uninitialized).
  void ensure(std::size_t n) {
    if (n > capacity_) grow(n);
  }
  double* data() { return data_; }
  std::size_t capacity() const { return capacity_; }

 private:
  void grow(std::size_t n);
  void release();

  double* data_ = nullptr;
  std::size_t capacity_ = 0;
};

/// Reusable buffers for batched evaluation. Owned by the caller (one per
/// GP run) so the hot loop never allocates once the buffers have grown to
/// the workload's size.
struct EvalScratch {
  AlignedBuffer stack;              // stack_need padded column slots
  std::vector<double> predictions;  // one prediction per sample
  std::vector<double> residuals;    // trimmed-MAE scratch
};

/// A compiled genome: postfix tape with fused leaf operands.
class Program {
 public:
  Program() = default;

  /// Lower `genome` into this program, reusing its buffers (no allocation
  /// once capacities are warm). Iterative, so pathologically deep genomes
  /// cannot overflow the C stack. Throws std::invalid_argument if a gene
  /// references a variable index outside [0, n_vars) — bad genomes
  /// surface here instead of silently evaluating to 0 — or if the genome
  /// is not exactly one complete tree.
  void load(std::span<const Gene> genome, std::size_t n_vars);

  /// Gene count of the loaded genome. (Fused instructions cover several
  /// genes each, so this is intentionally *not* the instruction count —
  /// parsimony pressure keys off tree size.)
  std::size_t size() const { return size_; }
  /// Peak operand-stack columns of one tape pass (leaf operands are
  /// fused into their consumers and never occupy a column).
  std::size_t stack_need() const { return stack_need_; }
  std::size_t n_constants() const { return constants_.size(); }

  /// Constant pool access for constant tuning: pool slot k holds the
  /// k-th kConst gene in genome order.
  double constant(std::size_t k) const { return constants_[k]; }
  void set_constant(std::size_t k, double value) { constants_[k] = value; }

  /// Evaluate one sample. Iterative; bit-identical to the reference
  /// walker. `vars` is not bounds-checked: it must hold the n_vars
  /// operands load() validated against.
  double eval_scalar(std::span<const double> vars,
                     EvalScratch& scratch) const;

  /// Evaluate every sample in one tape pass, writing predictions[i] for
  /// sample i. One dispatch per instruction; the per-instruction loops
  /// run through the active kernel table (AVX2 when compiled + supported
  /// + enabled, scalar otherwise — see gp/kernels.hpp), streaming over
  /// contiguous stack columns padded to 64-byte-aligned strides. The
  /// final instruction writes straight into `predictions` when it
  /// produces the result column. Bit-identical to the reference walker
  /// under every kernel table.
  void eval_batch(const SampleMatrix& samples, EvalScratch& scratch) const;

 private:
  /// Where an instruction operand lives.
  enum class Src : std::uint8_t { kStack, kVar, kConst };
  struct Operand {
    Src src;
    std::uint32_t index;  // stack slot / variable column / pool index
  };
  /// A fused instruction: always an operator; leaf arguments are read
  /// through the operand descriptors, results land in stack column dst.
  struct Instr {
    Op op;
    Operand a;
    Operand b;  // unused for unary ops
    std::uint32_t dst;
  };

  std::vector<Instr> code_;          // fused instructions
  Operand result_{Src::kStack, 0};   // where the final value lives
  std::vector<double> constants_;    // constant pool, genome order
  std::vector<Operand> vstack_;      // lowering-time operand stack, reused
  std::size_t size_ = 0;
  std::size_t stack_need_ = 0;
};

}  // namespace dpr::gp
