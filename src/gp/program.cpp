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

FitnessCache::FitnessCache(std::size_t capacity)
    : shard_capacity_(std::max<std::size_t>(1, capacity / kShards)) {
  // Power-of-two slot counts at ≤ 0.5 max load, so linear probes always
  // terminate quickly. Shards start at kInitialSlots and grow on demand.
  max_slots_ = 2;
  while (max_slots_ < shard_capacity_ * 2) max_slots_ <<= 1;
  for (auto& shard : shards_) {
    shard.slots.resize(std::min(kInitialSlots, max_slots_));
  }
}

std::uint64_t FitnessCache::hash_key(std::string_view key) {
  // Chunked xor-multiply mix (8 bytes per step). Quality only matters
  // for shard choice and probe placement — equality is always decided by
  // comparing full keys, so a colliding pair can share a slot chain but
  // never a value.
  std::uint64_t h = 0x9E3779B97F4A7C15ULL ^ key.size();
  const char* p = key.data();
  std::size_t remaining = key.size();
  while (remaining >= 8) {
    std::uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    h = (h ^ chunk) * 0xFF51AFD7ED558CCDULL;
    h ^= h >> 33;
    p += 8;
    remaining -= 8;
  }
  std::uint64_t tail = 0;
  if (remaining > 0) std::memcpy(&tail, p, remaining);
  h = (h ^ tail) * 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return h | 1;  // 0 is the empty-slot sentinel
}

bool FitnessCache::slot_matches(const Shard& shard, const Slot& slot,
                                std::string_view key) {
  if (slot.len != key.size()) return false;
  if (slot.len <= kInlineKey) {
    return std::memcmp(slot.key, key.data(), slot.len) == 0;
  }
  std::uint32_t index;
  std::memcpy(&index, slot.key, sizeof index);
  return shard.overflow[index] == key;
}

void FitnessCache::grow(Shard& shard) {
  std::vector<Slot> old(shard.slots.size() * 2);
  old.swap(shard.slots);
  const std::size_t mask = shard.slots.size() - 1;
  for (const Slot& slot : old) {
    if (slot.hash == 0) continue;
    std::size_t i = slot.hash & mask;
    while (shard.slots[i].hash != 0) i = (i + 1) & mask;
    shard.slots[i] = slot;
  }
}

std::optional<double> FitnessCache::lookup(std::string_view key) {
  const std::uint64_t hash = hash_key(key);
  Shard& shard = shard_for(hash);
  const std::size_t mask = shard.slots.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = shard.slots[i];
    if (slot.hash == 0) break;
    if (slot.hash == hash && slot_matches(shard, slot, key)) {
      ++hits_;
      return slot.fitness;
    }
  }
  ++misses_;
  return std::nullopt;
}

void FitnessCache::insert(std::string_view key, double fitness) {
  const std::uint64_t hash = hash_key(key);
  Shard& shard = shard_for(hash);
  if (shard.count >= shard_capacity_) {
    // Epoch eviction: drop the whole shard. Cached values are pure
    // functions of the key, so eviction affects hit rate, never results.
    for (auto& slot : shard.slots) slot.hash = 0;
    shard.overflow.clear();
    shard.count = 0;
    ++evictions_;
  }
  // Keep the load at ≤ 0.5 after this insert; at max_slots_ the capacity
  // bound above already guarantees it.
  if ((shard.count + 1) * 2 > shard.slots.size() &&
      shard.slots.size() < max_slots_) {
    grow(shard);
  }
  const std::size_t mask = shard.slots.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    Slot& slot = shard.slots[i];
    if (slot.hash == 0) {
      slot.hash = hash;
      slot.fitness = fitness;
      slot.len = static_cast<std::uint32_t>(key.size());
      if (key.size() <= kInlineKey) {
        std::memcpy(slot.key, key.data(), key.size());
      } else {
        const auto index = static_cast<std::uint32_t>(shard.overflow.size());
        shard.overflow.emplace_back(key);
        std::memcpy(slot.key, &index, sizeof index);
      }
      ++shard.count;
      return;
    }
    if (slot.hash == hash && slot_matches(shard, slot, key)) {
      return;  // already cached
    }
  }
}

}  // namespace dpr::gp
