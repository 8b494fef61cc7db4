#include "robust/catoni.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "util/simd_dispatch.h"

namespace htdp {
namespace catoni_internal {

// E_z[phi(a + bz)] via an exact split, the decomposition of the vector
// split lanes (util/simd_kernels_impl.h) with libm in place of the
// polynomial cores: phi saturates at +/- PhiBound() outside
// (a + bz) in [-sqrt2, sqrt2], so the tails are PhiBound() times normal tail
// masses; inside, phi is the cubic polynomial, integrated by one 16-point
// Gauss-Legendre panel over the interval in z-space clipped to +/-40 (the
// integrand vanishes beyond). One panel is enough in the split region; see
// SplitLanes for the bound on the interval's width.
double SmoothedPhiBySplit(double a, double b) {
  const double z_lo = (-kSqrt2 - a) / b;
  const double z_hi = (kSqrt2 - a) / b;
  const double tails =
      PhiBound() * NormalCdf(-z_hi) - PhiBound() * NormalCdf(z_lo);
  const double lo = std::clamp(z_lo, -40.0, 40.0);
  const double hi = std::clamp(z_hi, -40.0, 40.0);
  if (!(hi > lo)) return tails;
  const double half_width = 0.5 * (hi - lo);
  const double center = lo + half_width;
  double sum = 0.0;
  for (int i = 0; i < kGaussLegendre16Points; ++i) {
    const double z = center + half_width * kGaussLegendre16Nodes[i];
    const double v = a + b * z;  // in [-sqrt2, sqrt2] by construction
    sum += kGaussLegendre16Weights[i] * (v - v * v * v / 6.0) *
           std::exp(-0.5 * z * z);
  }
  return tails + sum * (kInvSqrt2Pi * half_width);
}

}  // namespace catoni_internal

void SmoothedPhiBatch(const double* HTDP_RESTRICT a,
                      const double* HTDP_RESTRICT b,
                      double* HTDP_RESTRICT out, std::size_t n) {
  // The vector body lives in the per-ISA kernel tables
  // (util/simd_kernels_impl.h, built once per ISA); this entry point only
  // dispatches. With SIMD off -- or no vector layer compiled in -- every
  // element takes the scalar path.
  if (SimdEnabled()) {
    if (const SimdKernelTable* table = ActiveSimdKernels()) {
      table->smoothed_phi_batch(a, b, out, n);
      return;
    }
  }
  for (std::size_t j = 0; j < n; ++j) out[j] = SmoothedPhi(a[j], b[j]);
}

}  // namespace htdp
