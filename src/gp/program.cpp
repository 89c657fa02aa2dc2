#include "gp/program.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <new>
#include <stdexcept>

#include "gp/kernels.hpp"

namespace dpr::gp {

void AlignedBuffer::grow(std::size_t n) {
  // Geometric growth so a worker scanning programs of increasing depth
  // reallocates O(log) times; memory is left uninitialized on purpose.
  const std::size_t target = std::max(n, capacity_ * 2);
  release();
  data_ = static_cast<double*>(
      ::operator new(target * sizeof(double), std::align_val_t{64}));
  capacity_ = target;
}

void AlignedBuffer::release() {
  if (data_ != nullptr) {
    ::operator delete(data_, std::align_val_t{64});
    data_ = nullptr;
  }
  capacity_ = 0;
}

SampleMatrix SampleMatrix::from_rows(
    const std::vector<std::vector<double>>& rows, std::size_t n_vars) {
  SampleMatrix matrix(rows.size(), n_vars);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].size() != n_vars) {
      throw std::invalid_argument("gp: sample row width != n_vars");
    }
    for (std::size_t v = 0; v < n_vars; ++v) matrix.at(i, v) = rows[i][v];
  }
  return matrix;
}

void Program::load(std::span<const Gene> genome, std::size_t n_vars) {
  code_.clear();
  vstack_.clear();
  size_ = genome.size();
  stack_need_ = 0;
  std::size_t n_constants = 0;
  for (const Gene& gene : genome) {
    if (gene.op == Op::kVar &&
        (gene.var < 0 || static_cast<std::size_t>(gene.var) >= n_vars)) {
      throw std::invalid_argument(
          "gp: variable index out of range for this dataset");
    }
    if (gene.op == Op::kConst) ++n_constants;
  }
  constants_.resize(n_constants);

  // Simulate the operand stack over the genome right to left: an
  // operator's subtrees are then already lowered, with its lhs on top of
  // the stack and its rhs beneath. Leaves push a descriptor (variable
  // column / constant-pool slot) without emitting anything; operators
  // consume descriptors and emit one fused instruction whose result
  // occupies stack column `depth`. Live stack operands always sit in
  // columns 0..depth-1, so dense slot assignment never clobbers a live
  // value (an instruction may write the column it reads — element i is
  // fully read before element i is written). Each instruction gets the
  // operands the recursive evaluator would hand it, so evaluating the rhs
  // subtree first changes no bit of any value.
  std::size_t depth = 0;
  const auto pop = [this, &depth]() {
    if (vstack_.empty()) throw std::invalid_argument("gp: malformed genome");
    const Operand operand = vstack_.back();
    vstack_.pop_back();
    if (operand.src == Src::kStack) --depth;
    return operand;
  };
  for (std::size_t i = genome.size(); i-- > 0;) {
    const Gene& gene = genome[i];
    switch (arity(gene.op)) {
      case 0:
        if (gene.op == Op::kVar) {
          vstack_.push_back(
              {Src::kVar, static_cast<std::uint32_t>(gene.var)});
        } else {
          constants_[--n_constants] = gene.value;
          vstack_.push_back(
              {Src::kConst, static_cast<std::uint32_t>(n_constants)});
        }
        break;
      case 1: {
        const Operand a = pop();
        const auto dst = static_cast<std::uint32_t>(depth);
        code_.push_back({gene.op, a, {Src::kStack, 0}, dst});
        vstack_.push_back({Src::kStack, dst});
        stack_need_ = std::max(stack_need_, ++depth);
        break;
      }
      case 2: {
        const Operand a = pop();
        const Operand b = pop();
        const auto dst = static_cast<std::uint32_t>(depth);
        code_.push_back({gene.op, a, b, dst});
        vstack_.push_back({Src::kStack, dst});
        stack_need_ = std::max(stack_need_, ++depth);
        break;
      }
    }
  }
  if (vstack_.size() != 1) throw std::invalid_argument("gp: malformed genome");
  result_ = vstack_.back();
}

double Program::eval_scalar(std::span<const double> vars,
                            EvalScratch& scratch) const {
  scratch.stack.ensure(std::max<std::size_t>(1, stack_need_));
  double* st = scratch.stack.data();
  const auto value = [&](Operand operand) {
    switch (operand.src) {
      case Src::kStack:
        return st[operand.index];
      case Src::kVar:
        return vars[operand.index];
      default:
        return constants_[operand.index];
    }
  };
  for (const Instr& ins : code_) {
    st[ins.dst] = arity(ins.op) == 1
                      ? apply_unary(ins.op, value(ins.a))
                      : apply_binary(ins.op, value(ins.a), value(ins.b));
  }
  return value(result_);
}

void Program::eval_batch(const SampleMatrix& samples,
                         EvalScratch& scratch) const {
  const std::size_t n = samples.n_samples();
  scratch.predictions.resize(n);
  if (n == 0) return;
  // Stack columns are padded to a multiple of 8 doubles so every column
  // starts on a 64-byte boundary of the aligned scratch base (sample
  // columns stay unpadded — the kernels use unaligned loads for those).
  const std::size_t stride = (n + 7) & ~std::size_t{7};
  scratch.stack.ensure(std::max<std::size_t>(1, stack_need_) * stride);
  double* stack = scratch.stack.data();
  double* preds = scratch.predictions.data();
  const KernelTable& kernels = active_kernels();
  // A fused operand is either a column pointer (stack slot or sample
  // column) or a constant immediate; the four pointer/immediate kernel
  // shapes keep the inner loops branch-free.
  const auto column_of = [&](Operand operand) -> const double* {
    switch (operand.src) {
      case Src::kStack:
        return stack + operand.index * stride;
      case Src::kVar:
        return samples.column(operand.index).data();
      default:
        return nullptr;  // constant immediate
    }
  };
  // When the final instruction produces the result column (always the
  // case for an operator-rooted tree), it writes straight into the
  // predictions buffer — the closing memcpy disappears.
  const std::size_t n_code = code_.size();
  const bool last_writes_result = n_code > 0 &&
                                  result_.src == Src::kStack &&
                                  code_[n_code - 1].dst == result_.index;
  for (std::size_t pc = 0; pc < n_code; ++pc) {
    const Instr& ins = code_[pc];
    double* dst = (last_writes_result && pc + 1 == n_code)
                      ? preds
                      : stack + ins.dst * stride;
    const double* a = column_of(ins.a);
    if (arity(ins.op) == 1) {
      if (a != nullptr) {
        kernels.unary(ins.op, dst, a, n);
      } else {
        // Constant operand: apply_unary is pure, so computing it once
        // and broadcasting produces the same bits as computing it per
        // sample.
        const double v = apply_unary(ins.op, constants_[ins.a.index]);
        for (std::size_t i = 0; i < n; ++i) dst[i] = v;
      }
      continue;
    }
    const double* b = column_of(ins.b);
    if (a != nullptr && b != nullptr) {
      kernels.binary(ins.op, dst, a, b, n);
    } else if (a != nullptr) {
      kernels.binary_ak(ins.op, dst, a, constants_[ins.b.index], n);
    } else if (b != nullptr) {
      kernels.binary_kb(ins.op, dst, constants_[ins.a.index], b, n);
    } else {
      const double v = apply_binary(ins.op, constants_[ins.a.index],
                                    constants_[ins.b.index]);
      for (std::size_t i = 0; i < n; ++i) dst[i] = v;
    }
  }
  if (last_writes_result) return;
  switch (result_.src) {
    case Src::kStack:
      std::memcpy(preds, stack + result_.index * stride, n * sizeof(double));
      break;
    case Src::kVar: {
      const auto column = samples.column(result_.index);
      std::memcpy(preds, column.data(), n * sizeof(double));
      break;
    }
    default: {
      const double v = constants_[result_.index];
      for (std::size_t i = 0; i < n; ++i) preds[i] = v;
      break;
    }
  }
}

}  // namespace dpr::gp
