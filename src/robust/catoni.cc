#include "robust/catoni.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "util/simd_dispatch.h"

namespace htdp {
namespace catoni_internal {
namespace {

// 16-point Gauss-Legendre nodes/weights on [-1, 1] (used by the numerically
// stable fallback below; the integrand there is a degree-3 polynomial times
// the normal density over a short interval, which 16 points integrate to
// machine precision). The central pair should read 0.1894506104550685 (see
// kGaussLegendre16Weights in robust/catoni_constants.h); as written the
// weights sum to 2.0045 and put up to ~5.6e-8 of error on split values near
// the cancellation seam, 99% of SmoothedPhiBatchTolerance there. Correcting
// it changes the scalar reference, so it waits for the HTDP_SIMD=off golden
// checksums to be re-derived (ROADMAP item 6).
constexpr int kGlPoints = 16;
constexpr double kGlNodes[kGlPoints] = {
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318,
    -0.7554044083550030, -0.6178762444026438, -0.4580167776572274,
    -0.2816035507792589, -0.0950125098376374, 0.0950125098376374,
    0.2816035507792589,  0.4580167776572274,  0.6178762444026438,
    0.7554044083550030,  0.8656312023878318,  0.9445750230732326,
    0.9894009349916499};
constexpr double kGlWeights[kGlPoints] = {
    0.0271524594117541, 0.0622535239386479, 0.0951585116824928,
    0.1246289712555339, 0.1495959888165767, 0.1691565193950025,
    0.1826034150449236, 0.1916908310979038, 0.1916908310979038,
    0.1826034150449236, 0.1691565193950025, 0.1495959888165767,
    0.1246289712555339, 0.0951585116824928, 0.0622535239386479,
    0.0271524594117541};

double NormalPdf(double z) { return kInvSqrt2Pi * std::exp(-0.5 * z * z); }

}  // namespace

// E_z[phi(a + bz)] via an exact split:
//   phi saturates at +/- PhiBound() outside (a + bz) in [-sqrt2, sqrt2];
//   inside, phi is the cubic polynomial, integrated by composite
//   Gauss-Legendre over the (short) interval in z-space. Stable for
//   arbitrarily large |a|, b.
double SmoothedPhiBySplit(double a, double b) {
  const double z_lo = (-kSqrt2 - a) / b;
  const double z_hi = (kSqrt2 - a) / b;
  double result = PhiBound() * (1.0 - NormalCdf(z_hi)) -
                  PhiBound() * NormalCdf(z_lo);
  // The integrand vanishes beyond ~40 sigma; clip so panel widths stay
  // meaningful when b is tiny relative to |a|.
  const double lo = std::max(z_lo, -40.0);
  const double hi = std::min(z_hi, 40.0);
  if (hi <= lo) return result;
  constexpr int kPanels = 8;
  const double panel = (hi - lo) / kPanels;
  double middle = 0.0;
  for (int p = 0; p < kPanels; ++p) {
    const double center = lo + (p + 0.5) * panel;
    const double half_width = 0.5 * panel;
    for (int i = 0; i < kGlPoints; ++i) {
      const double z = center + half_width * kGlNodes[i];
      const double v = a + b * z;  // in [-sqrt2, sqrt2] by construction
      middle += kGlWeights[i] * (v - v * v * v / 6.0) * NormalPdf(z) *
                half_width;
    }
  }
  return result + middle;
}

}  // namespace catoni_internal

namespace simd_dispatch_internal {

// The baseline-compiled scalar spill the per-ISA batch kernels call for
// block tails and for lane groups holding a non-finite or negative-b input
// (see util/simd_kernels_impl.h; cold lanes of finite groups blend in
// register): exactly n scalar SmoothedPhi evaluations, so spilled elements
// are bit-identical to the scalar reference no matter which ISA's kernel
// spilled them.
void SmoothedPhiScalarSpill(const double* a, const double* b, double* out,
                            std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) out[j] = SmoothedPhi(a[j], b[j]);
}

}  // namespace simd_dispatch_internal

void SmoothedPhiBatch(const double* HTDP_RESTRICT a,
                      const double* HTDP_RESTRICT b,
                      double* HTDP_RESTRICT out, std::size_t n,
                      bool use_simd) {
  // The vector body lives in the per-ISA kernel tables
  // (util/simd_kernels_impl.h, built once per ISA); this entry point only
  // dispatches. With use_simd false -- or no vector layer compiled in --
  // every element takes the scalar path: the bit-identity reference.
  if (use_simd) {
    if (const SimdKernelTable* table = ActiveSimdKernels()) {
      table->smoothed_phi_batch(a, b, out, n);
      return;
    }
  }
  for (std::size_t j = 0; j < n; ++j) out[j] = SmoothedPhi(a[j], b[j]);
}

}  // namespace htdp
