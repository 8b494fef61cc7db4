#ifndef HTDP_UTIL_SIMD_KERNELS_IMPL_H_
#define HTDP_UTIL_SIMD_KERNELS_IMPL_H_

// The per-ISA batch kernels behind util/simd_dispatch.h, included ONLY by
// the kernel translation units (util/simd_kernels_{base,avx2,avx512}.cc) so
// each compiles this one source at its own ISA. Everything here lives in
// the ISA-keyed inline namespace (distinct symbols per TU; see the ODR note
// in util/simd.h), and the only functions reached outside it are extern
// libm calls -- this TU must never instantiate scalar inline code that
// other TUs also emit.
//
// Every kernel computes the same per-element operation sequence at every
// ISA (the tables differ in lane count and encoding only), so dispatch
// changes WHICH ISA runs them, not WHAT they compute: at equal lane count
// the results are bit-identical, and the lane-wise Catoni kernels are
// bit-identical at every lane count.

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

// Block tails run as one more lane group: the first `count` (< kW)
// elements of p, the other lanes set to `pad`. The kernels below are
// lane-wise, so a tail element gets the same bits as in a full group at
// any lane width.
inline VecD LoadTail(const double* p, std::size_t count, double pad) {
  double buf[kW];
  for (std::size_t i = 0; i < kW; ++i) buf[i] = i < count ? p[i] : pad;
  return simd::LoadU(buf);
}

inline void StoreTail(double* p, std::size_t count, VecD v) {
  double buf[kW];
  simd::StoreU(buf, v);
  for (std::size_t i = 0; i < count; ++i) p[i] = buf[i];
}

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
/// to +/-40 and integrated by one 16-point panel -- with ExpPd /
/// HalfErfcFromExp in place of libm. One panel is enough: a
/// split lane has max(|a|^3/6, |a| b^2/2) > kCancellationLimit or
/// b > kClosedFormMaxB, so a middle inside the clip needs
/// b > (|a| - sqrt2)/40 >= 4.5 (|a| > 181.7) or b > 104 (|a| b^2 > 2e6),
/// i.e. a half-width sqrt2/b <= 0.32, over which the degree-31 rule
/// integrates cubic * Gaussian to rounding.
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

/// One lane group of the SmoothedPhi batch: out = SmoothedPhi(a, b) per
/// lane, each lane's value a function of its own (a, b) alone. Lanes with a
/// non-finite a or b, or with b < 0, give 0, as scalar SmoothedPhi does.
inline VecD SmoothedPhiLanes(VecD va, VecD vb) {
  using catoni_internal::kCancellationLimit;
  using catoni_internal::kClosedFormMaxB;
  using catoni_internal::kTinyB;
  const VecD zero = simd::Set1(0.0);
  const VecD one = simd::Set1(1.0);
  const VecD max_finite = simd::Set1(__DBL_MAX__);
  // Branch classification with exactly the scalar ClosedFormApplies
  // arithmetic (including the division by 6), so vector and scalar can
  // never pick different branches for the same element. An invalid input
  // is never hot: NaN fails every comparison, a negative or infinite b
  // fails the range check on b, and an infinite a makes the cancellation
  // magnitude inf.
  const VecD abs_a = simd::Abs(va);
  const VecD cancellation =
      simd::Max(abs_a * abs_a * abs_a / simd::Set1(6.0),
                simd::Set1(0.5) * abs_a * vb * vb);
  const VecI hot = (vb >= simd::Set1(kTinyB)) &
                   (vb <= simd::Set1(kClosedFormMaxB)) &
                   (cancellation <= simd::Set1(kCancellationLimit));
  if (simd::AllTrue(hot)) [[likely]] return ClosedFormLanes(va, vb);
  // A group with a cold lane evaluates each branch its lanes need and
  // blends per lane, every branch fed safe inputs in the lanes it does not
  // own. Invalid lanes belong to no branch and keep the 0 they start with.
  const VecI valid =
      (abs_a <= max_finite) & (vb >= zero) & (vb <= max_finite);
  const VecI tiny = valid & (vb < simd::Set1(kTinyB));
  const VecI split = valid & ~(hot | tiny);
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
  return value;
}

void SmoothedPhiBatchKernel(const double* a, const double* b, double* out,
                            std::size_t n) {
  std::size_t j = 0;
  for (; j + kW <= n; j += kW) {
    simd::StoreU(out + j,
                 SmoothedPhiLanes(simd::LoadU(a + j), simd::LoadU(b + j)));
  }
  if (j < n) {
    // The block tail runs as one more group, padded with warm inputs
    // (a = 0, b = 1).
    StoreTail(out + j, n - j,
              SmoothedPhiLanes(LoadTail(a + j, n - j, 0.0),
                               LoadTail(b + j, n - j, 1.0)));
  }
}

void SmoothedPhiTransformKernel(const double* xs, std::size_t n, double scale,
                                double sqrt_beta, double* phi) {
  const VecD v_scale = simd::Set1(scale);
  const VecD v_sqrt_beta = simd::Set1(sqrt_beta);
  // Elementwise derivation (division, abs, division): bit-identical to the
  // scalar `a = x/scale; b = |a|/sqrt_beta` at any lane width.
  const auto lanes = [&](VecD x) {
    const VecD a = x / v_scale;
    return SmoothedPhiLanes(a, simd::Abs(a) / v_sqrt_beta);
  };
  std::size_t j = 0;
  for (; j + kW <= n; j += kW) {
    simd::StoreU(phi + j, lanes(simd::LoadU(xs + j)));
  }
  if (j < n) {
    // Padded with x = scale (a = 1), a warm lane for any practical beta.
    StoreTail(phi + j, n - j, lanes(LoadTail(xs + j, n - j, scale)));
  }
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

inline VecD GumbelLanes(VecD u) { return -simd::LogPd(-simd::LogPd(u)); }

void GumbelFromUniformKernel(const double* u, double* noise, std::size_t n) {
  std::size_t j = 0;
  for (; j + kW <= n; j += kW) {
    simd::StoreU(noise + j, GumbelLanes(simd::LoadU(u + j)));
  }
  if (j < n) {
    StoreTail(noise + j, n - j, GumbelLanes(LoadTail(u + j, n - j, 0.5)));
  }
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
