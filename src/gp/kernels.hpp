#pragma once
// Per-op batch kernels for the GP tape interpreter.
//
// Program::eval_batch dispatches one instruction at a time; the inner
// per-sample loop is one of four shapes (column∘column, column∘constant,
// constant∘column, unary column). This header names those shapes as a
// table of function pointers so the interpreter can swap implementations
// at runtime: a portable scalar table (kernels_scalar.cpp) and an AVX2
// table (kernels_avx2.cpp, compiled only when DPR_ENABLE_AVX2 and the
// target is x86-64) that runs each instruction 8 samples per iteration.
//
// Bit-exactness contract: every kernel must produce, lane for lane, the
// exact bits of apply_unary/apply_binary below — which are themselves the
// verbatim protected-op formulas of Expr::eval. The AVX2 kernels achieve
// this with correctly-rounded IEEE vector arithmetic plus masked blends
// for the protected ops (compiled with contraction off so no FMA sneaks
// in); log/sin/cos/tan use the function set's own vmath.hpp definitions,
// whose scalar sequence the vector kernels mirror operation for
// operation — no libm call sits on any batch path. report_signature
// equality across {scalar, SIMD} rests on this contract.

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "gp/expr.hpp"
#include "gp/vmath.hpp"

namespace dpr::gp {

/// The protected operators, shared verbatim between Expr::eval, the
/// scalar tape, and the SIMD tails so every path matches Expr::eval
/// exactly.
inline double apply_unary(Op op, double x) {
  switch (op) {
    case Op::kSqrt:
      return std::sqrt(std::abs(x));
    case Op::kLog:
      return vm_log(x);
    case Op::kAbs:
      return std::abs(x);
    case Op::kNeg:
      return -x;
    case Op::kSin:
      return vm_sin(x);
    case Op::kCos:
      return vm_cos(x);
    case Op::kTan:
      return vm_tan(x);
    case Op::kInv:
      return std::abs(x) < 1e-9 ? 0.0 : 1.0 / x;
    default:
      return x;
  }
}

inline double apply_binary(Op op, double a, double b) {
  switch (op) {
    case Op::kAdd:
      return a + b;
    case Op::kSub:
      return a - b;
    case Op::kMul:
      return a * b;
    case Op::kDiv:
      return std::abs(b) < 1e-9 ? 1.0 : a / b;
    case Op::kMin:
      return std::min(a, b);
    case Op::kMax:
      return std::max(a, b);
    default:
      return a;
  }
}

/// One batch-loop implementation per operand shape. `dst` may alias `a`
/// or `b` only *exactly* (same pointer, the tape's write-what-you-read
/// slot reuse) — never partially overlap — so a kernel may load a full
/// block before storing it.
struct KernelTable {
  /// dst[i] = apply_unary(op, a[i])
  void (*unary)(Op op, double* dst, const double* a, std::size_t n);
  /// dst[i] = apply_binary(op, a[i], b[i])
  void (*binary)(Op op, double* dst, const double* a, const double* b,
                 std::size_t n);
  /// dst[i] = apply_binary(op, a[i], k)
  void (*binary_ak)(Op op, double* dst, const double* a, double k,
                    std::size_t n);
  /// dst[i] = apply_binary(op, k, b[i])
  void (*binary_kb)(Op op, double* dst, double k, const double* b,
                    std::size_t n);
};

/// Portable scalar kernels; always available, the bit-exact reference.
const KernelTable& scalar_kernels();

/// AVX2 kernels, or nullptr when the build carries no AVX2 code path.
const KernelTable* avx2_kernels();

/// Was an AVX2 code path compiled into this binary (DPR_ENABLE_AVX2 on an
/// x86-64 target)?
bool simd_compiled();

/// simd_compiled() and the running CPU reports AVX2.
bool simd_supported();

/// Process-wide switch (default on): off forces the scalar table even on
/// AVX2 hardware — the test and benchmark hook for A/B timing and
/// equality audits.
void set_simd_enabled(bool enabled);
bool simd_enabled();

/// The table eval_batch should use right now: AVX2 when compiled,
/// supported, and enabled; scalar otherwise.
const KernelTable& active_kernels();

}  // namespace dpr::gp
