#pragma once
// The GP function set's own log/sin/cos/tan.
//
// No vector libm matches glibc bit for bit, so routing kLog/kSin/kCos/
// kTan through std:: calls forced every kernel table to run them one
// scalar lane at a time — and they dominate tape runtime (a single
// scalar log costs ~8x a whole vectorized add column). Instead the
// function set defines these four operators as a fixed sequence of
// correctly-rounded IEEE operations (fdlibm-style polynomial cores,
// Cody-Waite pi/2 reduction, branch-free quadrant selection). The
// scalar definitions below ARE the specification; kernels_avx2.cpp
// mirrors them operation for operation with masked blends. Because
// every step is correctly rounded per lane and contraction is off in
// the vector TU, scalar and vector disagree in no lane — Expr::eval,
// the scalar tape, and the SIMD tape all produce identical bits.
//
// Accuracy (vs true math): log within ~1 ulp on [1e-9, inf); sin/cos/
// tan use a two-term reduction, good to ~1e-15 absolute for |x| up to
// ~1e6 and degrading — deterministically — for astronomically large
// arguments, which GP fitness treats as noise anyway. These are GP
// operator semantics, not a libm replacement.

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace dpr::gp {

namespace vmath {

// log core: atanh series on s = f/(2+f) (fdlibm e_log.c coefficients).
inline constexpr double kLg1 = 6.666666666666735130e-01;
inline constexpr double kLg2 = 3.999999999940941908e-01;
inline constexpr double kLg3 = 2.857142874366239149e-01;
inline constexpr double kLg4 = 2.222219843214978396e-01;
inline constexpr double kLg5 = 1.818357216161805012e-01;
inline constexpr double kLg6 = 1.531383769920937332e-01;
inline constexpr double kLg7 = 1.479819860511658591e-01;
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;
inline constexpr double kSqrt2 = 1.41421356237309514547e+00;
// 2^52 + 1023: subtracting it from (exponent bits | 2^52-magic) turns a
// biased exponent into an unbiased double in one exact operation.
inline constexpr double kExpMagic = 4503599627371519.0;

// sin/cos polynomial cores (fdlibm k_sin.c / k_cos.c coefficients).
inline constexpr double kS1 = -1.66666666666666324348e-01;
inline constexpr double kS2 = 8.33333333332248946124e-03;
inline constexpr double kS3 = -1.98412698298579493134e-04;
inline constexpr double kS4 = 2.75573137070700676789e-06;
inline constexpr double kS5 = -2.50507602534068634195e-08;
inline constexpr double kS6 = 1.58969099521155010221e-10;
inline constexpr double kC1 = 4.16666666666666019037e-02;
inline constexpr double kC2 = -1.38888888888741095749e-03;
inline constexpr double kC3 = 2.48015872894767294178e-05;
inline constexpr double kC4 = -2.75573143513906633035e-07;
inline constexpr double kC5 = 2.08757232129817482790e-09;
inline constexpr double kC6 = -1.13596475577881948265e-11;

// Two-term Cody-Waite pi/2 (fdlibm pio2_1 / pio2_1t) and 2/pi.
inline constexpr double kInvPio2 = 6.36619772367581382433e-01;
inline constexpr double kPio2Hi = 1.57079632673412561417e+00;
inline constexpr double kPio2Lo = 6.07710050650619224932e-11;

/// sin(r) for a reduced |r| <= pi/4 (NaN/garbage r propagates).
inline double sin_poly(double r) {
  const double z = r * r;
  const double p = kS2 + z * (kS3 + z * (kS4 + z * (kS5 + z * kS6)));
  return r + (z * r) * (kS1 + z * p);
}

/// cos(r) for a reduced |r| <= pi/4 (NaN/garbage r propagates).
inline double cos_poly(double r) {
  const double z = r * r;
  const double p =
      kC1 + z * (kC2 + z * (kC3 + z * (kC4 + z * (kC5 + z * kC6))));
  return (1.0 - 0.5 * z) + (z * z) * p;
}

/// Reduce x to r with x = r + q*(pi/2), |r| <= ~pi/4, and qf = q mod 4
/// as a double in {0,1,2,3}. Non-finite x yields NaN r and NaN qf (every
/// qf comparison then misses, so callers fall through to their default
/// lane value — which is itself NaN). The qf arithmetic is exact for
/// every finite n: n*0.25 is a power-of-two scale, floor is exact, and
/// the final subtraction of two nearby integers is exact.
inline void reduce_pio2(double x, double& r, double& qf) {
  const double n = std::nearbyint(x * kInvPio2);  // ties-to-even, like
                                                  // _mm256_round_pd
  const double r1 = x - n * kPio2Hi;
  r = r1 - n * kPio2Lo;
  const double j = n * 0.25;
  qf = n - 4.0 * std::floor(j);
}

}  // namespace vmath

/// Protected log: log(|x|), 0 when |x| < 1e-9 (so the core never sees
/// zero or a subnormal), +inf at +-inf, NaN propagated with the sign
/// bit cleared.
inline double vm_log(double x) {
  const double v = std::abs(x);
  if (v < 1e-9) return 0.0;
  // Split v = m * 2^e with m in [1,2); exponent via the 2^52 magic-bias
  // trick because the vector ISA has no int64->double convert and the
  // scalar spec must take the identical route.
  const std::uint64_t u = std::bit_cast<std::uint64_t>(v);
  const std::uint64_t ebits = u >> 52;  // sign bit is clear, no mask
  double m = std::bit_cast<double>((u & 0x000FFFFFFFFFFFFFull) |
                                   0x3FF0000000000000ull);
  double e = std::bit_cast<double>(ebits | 0x4330000000000000ull) -
             vmath::kExpMagic;
  // Fold m into [sqrt2/2, sqrt2] so f = m-1 stays small.
  const bool fold = m > vmath::kSqrt2;
  m = fold ? m * 0.5 : m;
  e = fold ? e + 1.0 : e;
  const double f = m - 1.0;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (vmath::kLg2 + w * (vmath::kLg4 + w * vmath::kLg6));
  const double t2 =
      z * (vmath::kLg1 +
           w * (vmath::kLg3 + w * (vmath::kLg5 + w * vmath::kLg7)));
  const double big_r = t2 + t1;
  const double hfsq = 0.5 * f * f;
  double r = e * vmath::kLn2Hi -
             ((hfsq - (s * (hfsq + big_r) + e * vmath::kLn2Lo)) - f);
  // The mantissa-splitting core maps inf/NaN to finite garbage; restore
  // them in the same blend order the vector kernel uses.
  r = (v == std::numeric_limits<double>::infinity()) ? v : r;
  r = (v != v) ? v : r;
  return r;
}

inline double vm_sin(double x) {
  double r, qf;
  vmath::reduce_pio2(x, r, qf);
  const double s = vmath::sin_poly(r);
  const double c = vmath::cos_poly(r);
  double v = s;
  v = (qf == 1.0) ? c : v;
  v = (qf == 2.0) ? -s : v;
  v = (qf == 3.0) ? -c : v;
  return v;
}

inline double vm_cos(double x) {
  double r, qf;
  vmath::reduce_pio2(x, r, qf);
  const double s = vmath::sin_poly(r);
  const double c = vmath::cos_poly(r);
  double v = c;
  v = (qf == 1.0) ? -s : v;
  v = (qf == 2.0) ? -c : v;
  v = (qf == 3.0) ? s : v;
  return v;
}

/// tan clamped to [-1e6, 1e6] (the function set's historical clamp);
/// computed as sin/cos off one shared reduction, with the odd quadrants
/// folded into the operands so there is a single division.
inline double vm_tan(double x) {
  double r, qf;
  vmath::reduce_pio2(x, r, qf);
  const double s = vmath::sin_poly(r);
  const double c = vmath::cos_poly(r);
  const bool odd = (qf == 1.0) || (qf == 3.0);
  const double num = odd ? -c : s;
  const double den = odd ? s : c;
  double v = num / den;
  v = (v < -1e6) ? -1e6 : v;
  v = (v > 1e6) ? 1e6 : v;
  return v;
}

}  // namespace dpr::gp
