#ifndef HTDP_UTIL_SIMD_KERNELS_IMPL_H_
#define HTDP_UTIL_SIMD_KERNELS_IMPL_H_

// The per-ISA batch kernels behind util/simd_dispatch.h, included ONLY by
// the kernel translation units (util/simd_kernels_{base,avx2,avx512}.cc) so
// each compiles this one source at its own ISA. Everything here lives in
// the ISA-keyed inline namespace (distinct symbols per TU; see the ODR note
// in util/simd.h), and the only functions reached outside it are either
// extern libm calls or the baseline-compiled scalar spill
// (simd_dispatch_internal::SmoothedPhiScalarSpill) -- this TU must never
// instantiate scalar inline code that other TUs also emit.
//
// Every kernel computes the same per-element operation sequence at every
// ISA (the tables differ in lane count and encoding only), so dispatch
// changes WHICH ISA runs them, not WHAT they compute: at equal lane count
// the results are bit-identical.

#include <cmath>
#include <cstddef>

#include "robust/catoni_constants.h"
#include "util/simd.h"
#include "util/simd_dispatch.h"
#include "util/simd_math.h"

#if !HTDP_SIMD_COMPILED
#error "simd_kernels_impl.h requires the vector layer (HTDP_SIMD_COMPILED)"
#endif

namespace htdp {
namespace simd_kernel_impl {
inline namespace HTDP_SIMD_ISA_NS {

using simd::VecD;
using simd::VecI;

constexpr std::size_t kW = static_cast<std::size_t>(simd::kLanes);

/// Vectorized SmoothedPhiClosedForm: the scalar T1..T5 operation sequence of
/// CatoniCorrection evaluated in lanes, with ExpPd / HalfErfcFromExp in
/// place of libm's exp / erfc and the literal divisions by 6 strength-
/// reduced to a multiply (both are within the SmoothedPhiBatchTolerance
/// contract). Only valid where ClosedFormApplies; the caller masks.
inline VecD ClosedFormLanes(VecD a, VecD b) {
  using catoni_internal::kInvSqrt2Pi;
  using catoni_internal::kPhiBound;
  using catoni_internal::kSqrt2;
  const VecD sixth = simd::Set1(1.0 / 6.0);
  const VecD half = simd::Set1(0.5);
  const VecD inv_sqrt2pi = simd::Set1(kInvSqrt2Pi);
  const VecD phi_bound = simd::Set1(kPhiBound);

  const VecD v_minus = (simd::Set1(kSqrt2) - a) / b;
  const VecD v_plus = (simd::Set1(kSqrt2) + a) / b;
  const VecD e_minus = simd::ExpPd(-(half * v_minus * v_minus));
  const VecD e_plus = simd::ExpPd(-(half * v_plus * v_plus));
  const VecD f_minus = simd::HalfErfcFromExp(v_minus, e_minus);
  const VecD f_plus = simd::HalfErfcFromExp(v_plus, e_plus);

  const VecD a_cubed_sixth = a * a * a * sixth;
  const VecD t1 = phi_bound * (f_minus - f_plus);
  const VecD t2 = -((a - a_cubed_sixth) * (f_minus + f_plus));
  const VecD t3 =
      b * inv_sqrt2pi * (simd::Set1(1.0) - half * a * a) * (e_plus - e_minus);
  const VecD t4 = half * a * b * b *
                  (f_plus + f_minus +
                   inv_sqrt2pi * (v_plus * e_plus + v_minus * e_minus));
  const VecD t5 = (b * b * b * sixth) * inv_sqrt2pi *
                  ((simd::Set1(2.0) + v_minus * v_minus) * e_minus -
                   (simd::Set1(2.0) + v_plus * v_plus) * e_plus);
  const VecD correction = t1 + t2 + t3 + t4 + t5;
  const VecD value =
      a * (simd::Set1(1.0) - half * b * b) - a_cubed_sixth + correction;
  return simd::Clamp(value, -phi_bound, phi_bound);
}

/// Lanes of the tiny-b branch: clamped Phi(a) with the scalar Phi's
/// comparisons and operation order (division by 6 included), so these lanes
/// are bit-identical to scalar SmoothedPhi.
inline VecD PhiLanes(VecD a) {
  using catoni_internal::kPhiBound;
  using catoni_internal::kSqrt2;
  const VecD phi_bound = simd::Set1(kPhiBound);
  const VecD cubic = a - a * a * a / simd::Set1(6.0);
  VecD value = simd::Select(a < simd::Set1(-kSqrt2), -phi_bound, cubic);
  value = simd::Select(a > simd::Set1(kSqrt2), phi_bound, value);
  return simd::Clamp(value, -phi_bound, phi_bound);
}

/// Lanes of the exact-split branch: SmoothedPhiBySplit's decomposition --
/// the saturated tails as +/- kPhiBound times normal tail masses, the cubic
/// middle as a Gauss-Legendre sum over the unsaturated z-interval clipped
/// to +/-40 -- with ExpPd / HalfErfcFromExp in place of libm and ONE
/// 16-point panel in place of the scalar eight. One panel is enough: a
/// split lane has max(|a|^3/6, |a| b^2/2) > kCancellationLimit, so a
/// middle inside the clip needs b > (|a| - sqrt2)/40 >= 4.5 (|a| > 181.7)
/// or b > 104 (|a| b^2 > 2e6), i.e. a half-width sqrt2/b <= 0.32, over
/// which the degree-31 rule integrates cubic * Gaussian to rounding.
/// Requires finite a and finite b >= kTinyB; the caller masks.
inline VecD SplitLanes(VecD a, VecD b) {
  using catoni_internal::kGaussLegendre16Nodes;
  using catoni_internal::kGaussLegendre16Points;
  using catoni_internal::kGaussLegendre16Weights;
  using catoni_internal::kInvSqrt2Pi;
  using catoni_internal::kPhiBound;
  using catoni_internal::kSqrt2;
  const VecD half = simd::Set1(0.5);
  const VecD sixth = simd::Set1(1.0 / 6.0);
  const VecD phi_bound = simd::Set1(kPhiBound);

  const VecD z_lo = (simd::Set1(-kSqrt2) - a) / b;
  const VecD z_hi = (simd::Set1(kSqrt2) - a) / b;
  // 1 - NormalCdf(z_hi) and NormalCdf(z_lo); ExpPd flushes the huge-|z|
  // (even infinite) lanes to 0, where both masses are exact 0 or 1.
  const VecD upper =
      simd::HalfErfcFromExp(z_hi, simd::ExpPd(-(half * z_hi * z_hi)));
  const VecD lower =
      simd::HalfErfcFromExp(-z_lo, simd::ExpPd(-(half * z_lo * z_lo)));
  const VecD tails = phi_bound * upper - phi_bound * lower;

  // Clipping both ends into [-40, 40] keeps every node finite; lanes whose
  // interval is empty after the clip get no middle term.
  const VecD clip = simd::Set1(40.0);
  const VecD lo = simd::Clamp(z_lo, -clip, clip);
  const VecD hi = simd::Clamp(z_hi, -clip, clip);
  const VecI has_middle = hi > lo;
  VecD middle = simd::Set1(0.0);
  if (!simd::NoneTrue(has_middle)) {
    const VecD half_width = half * (hi - lo);
    const VecD center = lo + half_width;
    VecD sum = simd::Set1(0.0);
    for (int i = 0; i < kGaussLegendre16Points; ++i) {
      const VecD z =
          center + half_width * simd::Set1(kGaussLegendre16Nodes[i]);
      const VecD v = a + b * z;  // in [-sqrt2, sqrt2] on has_middle lanes
      sum = sum + simd::Set1(kGaussLegendre16Weights[i]) *
                      (v - v * v * v * sixth) * simd::ExpPd(-(half * z * z));
    }
    middle = simd::Select(
        has_middle, sum * (simd::Set1(kInvSqrt2Pi) * half_width), middle);
  }
  return simd::Clamp(tails + middle, -phi_bound, phi_bound);
}

void SmoothedPhiBatchKernel(const double* a, const double* b, double* out,
                            std::size_t n) {
  using catoni_internal::kCancellationLimit;
  using catoni_internal::kTinyB;
  const VecD zero = simd::Set1(0.0);
  const VecD one = simd::Set1(1.0);
  const VecD max_finite = simd::Set1(__DBL_MAX__);
  std::size_t j = 0;
  for (; j + kW <= n; j += kW) {
    const VecD va = simd::LoadU(a + j);
    const VecD vb = simd::LoadU(b + j);
    // Branch classification with exactly the scalar ClosedFormApplies
    // arithmetic (including the division by 6), so vector and scalar can
    // never pick different branches for the same element.
    const VecD abs_a = simd::Abs(va);
    const VecD cancellation =
        simd::Max(abs_a * abs_a * abs_a / simd::Set1(6.0),
                  simd::Set1(0.5) * abs_a * vb * vb);
    const VecI hot = (vb >= simd::Set1(kTinyB)) &
                     (cancellation <= simd::Set1(kCancellationLimit));
    if (simd::AllTrue(hot)) [[likely]] {
      simd::StoreU(out + j, ClosedFormLanes(va, vb));
      continue;
    }
    // A group with a cold lane (tiny-b or exact-split) evaluates each
    // branch its lanes need and blends per lane, every branch fed safe
    // inputs in the lanes it does not own; each lane's value depends only on
    // its own (a, b). Non-finite a or b (and b < 0, which the scalar path
    // rejects) divert the group to the baseline-compiled scalar spill.
    const VecI finite =
        (abs_a <= max_finite) & (vb >= zero) & (vb <= max_finite);
    if (!simd::AllTrue(finite)) [[unlikely]] {
      simd_dispatch_internal::SmoothedPhiScalarSpill(a + j, b + j, out + j,
                                                     kW);
      continue;
    }
    const VecI tiny = vb < simd::Set1(kTinyB);
    const VecI split = ~(hot | tiny);
    VecD value = zero;
    if (!simd::NoneTrue(hot)) {
      value = simd::Select(hot,
                           ClosedFormLanes(simd::Select(hot, va, zero),
                                           simd::Select(hot, vb, one)),
                           value);
    }
    if (!simd::NoneTrue(tiny)) {
      value = simd::Select(tiny, PhiLanes(va), value);
    }
    if (!simd::NoneTrue(split)) {
      value = simd::Select(split,
                           SplitLanes(simd::Select(split, va, zero),
                                      simd::Select(split, vb, one)),
                           value);
    }
    simd::StoreU(out + j, value);
  }
  if (j < n) {
    simd_dispatch_internal::SmoothedPhiScalarSpill(a + j, b + j, out + j,
                                                   n - j);
  }
}

void SmoothedPhiTransformKernel(const double* xs, std::size_t n, double scale,
                                double sqrt_beta, double* phi) {
  // One stack block of the robust-mean kernels (kSimdBlock in
  // robust/robust_mean.cc); the table contract caps n at 256.
  constexpr std::size_t kBlock = 256;
  double a_buf[kBlock];
  double b_buf[kBlock];
  if (n > kBlock) n = kBlock;
  const VecD v_scale = simd::Set1(scale);
  const VecD v_sqrt_beta = simd::Set1(sqrt_beta);
  std::size_t j = 0;
  // Elementwise derivation (division, abs, division): bit-identical to the
  // scalar `a = x/scale; b = |a|/sqrt_beta` at any lane width.
  for (; j + kW <= n; j += kW) {
    const VecD a = simd::LoadU(xs + j) / v_scale;
    simd::StoreU(a_buf + j, a);
    simd::StoreU(b_buf + j, simd::Abs(a) / v_sqrt_beta);
  }
  for (; j < n; ++j) {
    const double a = xs[j] / scale;
    a_buf[j] = a;
    b_buf[j] = __builtin_fabs(a) / sqrt_beta;
  }
  SmoothedPhiBatchKernel(a_buf, b_buf, phi, n);
}

// Lane-widened reductions: two accumulator vectors to break the add
// dependency chain, lanes summed in index order at the end. Reassociates
// the sum, so results differ from the scalar reference by rounding --
// pinned by the relative-error tests in tests/simd_test.cc.

double DotKernel(const double* a, const double* b, std::size_t n) {
  VecD acc0 = simd::Set1(0.0);
  VecD acc1 = simd::Set1(0.0);
  std::size_t i = 0;
  for (; i + 2 * kW <= n; i += 2 * kW) {
    acc0 = acc0 + simd::LoadU(a + i) * simd::LoadU(b + i);
    acc1 = acc1 + simd::LoadU(a + i + kW) * simd::LoadU(b + i + kW);
  }
  if (i + kW <= n) {
    acc0 = acc0 + simd::LoadU(a + i) * simd::LoadU(b + i);
    i += kW;
  }
  double acc = simd::ReduceAdd(acc0 + acc1);
  for (; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

double DistanceL2Kernel(const double* a, const double* b, std::size_t n) {
  VecD acc0 = simd::Set1(0.0);
  VecD acc1 = simd::Set1(0.0);
  std::size_t i = 0;
  for (; i + 2 * kW <= n; i += 2 * kW) {
    const VecD d0 = simd::LoadU(a + i) - simd::LoadU(b + i);
    const VecD d1 = simd::LoadU(a + i + kW) - simd::LoadU(b + i + kW);
    acc0 = acc0 + d0 * d0;
    acc1 = acc1 + d1 * d1;
  }
  if (i + kW <= n) {
    const VecD d0 = simd::LoadU(a + i) - simd::LoadU(b + i);
    acc0 = acc0 + d0 * d0;
    i += kW;
  }
  double acc = simd::ReduceAdd(acc0 + acc1);
  for (; i < n; ++i) {
    const double diff = a[i] - b[i];
    acc += diff * diff;
  }
  return std::sqrt(acc);
}

void GumbelFromUniformKernel(const double* u, double* noise, std::size_t n) {
  std::size_t j = 0;
  for (; j + kW <= n; j += kW) {
    const VecD v = simd::LoadU(u + j);
    simd::StoreU(noise + j, -simd::LogPd(-simd::LogPd(v)));
  }
  // std::log resolves to the extern libm call; no scalar inline code is
  // instantiated here (elementwise per-lane LogPd matches it within the
  // documented ULP bound regardless of lane width).
  for (; j < n; ++j) noise[j] = -std::log(-std::log(u[j]));
}

const SimdKernelTable kTable = {
    simd::kIsaName,         static_cast<int>(kW),
    &SmoothedPhiBatchKernel, &SmoothedPhiTransformKernel,
    &DotKernel,              &DistanceL2Kernel,
    &GumbelFromUniformKernel};

}  // namespace HTDP_SIMD_ISA_NS
}  // namespace simd_kernel_impl
}  // namespace htdp

#endif  // HTDP_UTIL_SIMD_KERNELS_IMPL_H_
