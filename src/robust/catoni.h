#ifndef HTDP_ROBUST_CATONI_H_
#define HTDP_ROBUST_CATONI_H_

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "linalg/vector_ops.h"
#include "robust/catoni_constants.h"
#include "util/check.h"
#include "util/simd.h"

namespace htdp {

namespace catoni_internal {

// kSqrt2, kInvSqrt2Pi, the kTinyB / kCancellationLimit branch thresholds
// and kPhiBound now live in robust/catoni_constants.h (constexpr data only)
// so the per-ISA kernel TUs of the runtime dispatcher can share them
// without instantiating any inline code from this header.

/// True when SmoothedPhi evaluates (a, b) by the closed form -- the common,
/// tight-loop branch of the batched kernels.
inline bool ClosedFormApplies(double abs_a, double b) {
  const double cancellation =
      std::max(abs_a * abs_a * abs_a / 6.0, 0.5 * abs_a * b * b);
  return b >= kTinyB && cancellation <= kCancellationLimit;
}

/// E_z[phi(a + bz)] via an exact split (saturated tails + composite
/// Gauss-Legendre over the unsaturated interval). Numerically stable for
/// arbitrarily large |a|, b; much slower than the closed form, so SmoothedPhi
/// only reaches it past the cancellation limit. Out of line: it is the cold
/// branch of the batched kernels.
double SmoothedPhiBySplit(double a, double b);

}  // namespace catoni_internal

/// Maximum magnitude of the Catoni truncation function: |phi(x)| <= 2*sqrt(2)/3.
/// This bound is what gives the robust estimators their finite sensitivity.
inline double PhiBound() { return catoni_internal::kPhiBound; }

/// The soft truncation function of Catoni & Giulini (2017), Eq. (2):
///   phi(x) = x - x^3/6            for |x| <= sqrt(2)
///   phi(x) = sign(x) * 2*sqrt(2)/3 otherwise.
/// phi is odd, non-decreasing, bounded by PhiBound(), and satisfies
///   -log(1 - x + x^2/2) <= phi(x) <= log(1 + x + x^2/2).
inline double Phi(double x) {
  if (x > catoni_internal::kSqrt2) return PhiBound();
  if (x < -catoni_internal::kSqrt2) return -PhiBound();
  return x - x * x * x / 6.0;
}

/// CDF of the standard normal distribution.
inline double NormalCdf(double x) {
  return 0.5 * std::erfc(-x / catoni_internal::kSqrt2);
}

/// The correction term C_hat(a, b) of Eq. (5), in the explicit T1..T5 form
/// given in the paper's appendix. Requires b > 0.
///
/// Defined inline so the scalar estimator and the batched row kernels share
/// one definition: with identical operations in identical order, the batched
/// path is bit-for-bit the scalar path.
inline double CatoniCorrection(double a, double b) {
  using catoni_internal::kInvSqrt2Pi;
  using catoni_internal::kSqrt2;
  HTDP_CHECK_GT(b, 0.0);
  // Notation from the appendix ("Explicit Form of C_hat(a,b)").
  const double v_minus = (kSqrt2 - a) / b;
  const double v_plus = (kSqrt2 + a) / b;
  const double f_minus = NormalCdf(-v_minus);
  const double f_plus = NormalCdf(-v_plus);
  const double e_minus = std::exp(-0.5 * v_minus * v_minus);
  const double e_plus = std::exp(-0.5 * v_plus * v_plus);

  const double t1 = PhiBound() * (f_minus - f_plus);
  const double t2 = -(a - a * a * a / 6.0) * (f_minus + f_plus);
  const double t3 = b * kInvSqrt2Pi * (1.0 - 0.5 * a * a) * (e_plus - e_minus);
  const double t4 =
      0.5 * a * b * b *
      (f_plus + f_minus + kInvSqrt2Pi * (v_plus * e_plus + v_minus * e_minus));
  const double t5 = (b * b * b / 6.0) * kInvSqrt2Pi *
                    ((2.0 + v_minus * v_minus) * e_minus -
                     (2.0 + v_plus * v_plus) * e_plus);
  return t1 + t2 + t3 + t4 + t5;
}

namespace catoni_internal {

/// The clamped closed-form branch of SmoothedPhi, shared verbatim with the
/// batched kernels. Only valid where ClosedFormApplies. The clamp exists
/// because the true expectation of a bounded function is bounded; removing
/// any residual floating-point overshoot keeps the sensitivity bound
/// 4*sqrt(2)*s/(3m) used in the privacy analysis exact.
inline double SmoothedPhiClosedForm(double a, double b) {
  const double value =
      a * (1.0 - 0.5 * b * b) - a * a * a / 6.0 + CatoniCorrection(a, b);
  return std::clamp(value, -PhiBound(), PhiBound());
}

}  // namespace catoni_internal

/// Closed form of E_z[ phi(a + b z) ] for z ~ N(0, 1):
///   a (1 - b^2/2) - a^3/6 + C_hat(a, b)          (Eq. (5)).
/// For b == 0 this degenerates to phi(a). This is the "noise multiplication
/// + noise smoothing" step of the robust estimator evaluated analytically,
/// so the estimator itself needs no auxiliary randomness. Requires b >= 0.
inline double SmoothedPhi(double a, double b) {
  HTDP_CHECK_GE(b, 0.0);
  const double abs_a = std::abs(a);
  if (b < catoni_internal::kTinyB) [[unlikely]] {
    // Phi is bounded by PhiBound() already, so the clamp is the identity
    // here (kept for uniformity with the other branches).
    return std::clamp(Phi(a), -PhiBound(), PhiBound());
  }
  if (catoni_internal::ClosedFormApplies(abs_a, b)) [[likely]] {
    return catoni_internal::SmoothedPhiClosedForm(a, b);
  }
  return std::clamp(catoni_internal::SmoothedPhiBySplit(a, b), -PhiBound(),
                    PhiBound());
}

/// Array form of SmoothedPhi: out[j] = SmoothedPhi(a[j], b[j]) for j in
/// [0, n). Requires b[j] >= 0; a, b and out must not overlap.
///
/// With `use_simd` true (and the SIMD layer compiled in, see util/simd.h)
/// the call routes through the runtime ISA dispatcher (util/simd_dispatch.h:
/// AVX-512 / AVX2 / baseline picked by a one-time CPUID probe). Each full
/// lane group is classified per lane, with exactly the scalar
/// ClosedFormApplies arithmetic, so an element can never be smoothed by a
/// different branch than the scalar path would pick. A group whose every
/// lane is warm runs the vectorized closed form alone (ExpPd / ErfcxPd
/// cores from util/simd_math.h); a group with cold lanes evaluates the
/// branches its lanes need and blends them per lane: tiny-b lanes get the
/// clamped Phi(a) in the scalar operation order, exact-split lanes a vector
/// split (saturated tails plus one 16-point Gauss-Legendre panel). Every
/// lane's value depends only on its own (a[j], b[j]) and is clamped to
/// +/-PhiBound(). Only the remainder tail and groups holding a non-finite
/// (or negative-b) input go to the scalar SmoothedPhi. Tiny-b lanes are
/// bit-identical to scalar SmoothedPhi; closed-form and split lanes agree
/// with it within SmoothedPhiBatchTolerance(a[j], b[j]).
///
/// With `use_simd` false every element takes the scalar SmoothedPhi path:
/// the result is bit-identical to n scalar calls (the golden scalar
/// reference; see the HTDP_SIMD contract in util/simd.h).
///
/// Allocation-free: all scratch lives in registers / on the stack.
void SmoothedPhiBatch(const double* HTDP_RESTRICT a,
                      const double* HTDP_RESTRICT b,
                      double* HTDP_RESTRICT out, std::size_t n,
                      bool use_simd);

/// Convenience overload following the process-wide SIMD toggle.
inline void SmoothedPhiBatch(const double* HTDP_RESTRICT a,
                             const double* HTDP_RESTRICT b,
                             double* HTDP_RESTRICT out, std::size_t n) {
  SmoothedPhiBatch(a, b, out, n, SimdEnabled());
}

/// The documented agreement bound between the vectorized batch kernel and
/// scalar SmoothedPhi at the same input: |batch - scalar| is bounded by a
/// small floor (the polynomial exp/erfc cores are a few ULP from libm and
/// the result is O(1)) plus machine epsilon times the closed form's
/// CONDITIONING -- the magnitude by which the T1..T5 terms amplify last-bit
/// differences of their exp/erfc inputs before cancelling. Two factors
/// drive it: the cancellation magnitude that kCancellationLimit caps
/// (max(|a|^3/6, |a| b^2/2), the T2/T4 scale), and the T3/T5 prefactors
/// b and b^3/6, which dominate in the small-|a|, large-b corner of the
/// closed-form region. The scalar path amplifies libm's own rounding by the
/// same factors, so this is the inherent agreement limit of two correctly-
/// rounded-to-a-few-ULP evaluations, not SIMD sloppiness. The bound is
/// capped at 2 * PhiBound(): both evaluations clamp, so no disagreement can
/// exceed the function's range. tests/robust_test.cc sweeps a log-spaced
/// (a, b) grid straddling kTinyB and kCancellationLimit and pins the batch
/// kernel to this bound.
inline double SmoothedPhiBatchTolerance(double a, double b) {
  const double abs_a = std::abs(a);
  const double cancellation =
      std::max(abs_a * abs_a * abs_a / 6.0, 0.5 * abs_a * b * b);
  const double correction_scale = 0.4 * (b + b * b * b / 6.0);
  const double conditioning =
      std::max({1.0, cancellation, correction_scale});
  return std::min(1e-13 + 256.0 * 2.220446049250313e-16 * conditioning,
                  2.0 * PhiBound());
}

}  // namespace htdp

#endif  // HTDP_ROBUST_CATONI_H_
