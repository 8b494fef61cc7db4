#include "robust/robust_mean.h"

#include <cmath>
#include <cstddef>

#include "robust/catoni.h"
#include "util/check.h"
#include "util/simd_dispatch.h"

namespace htdp {
namespace {

// Cold paths of the batched kernel, kept out of the tight loop so the
// closed-form branch stays small enough to inline and schedule well. Both
// evaluate exactly SampleContribution's operations.
[[gnu::noinline]] double ColdContribution(double scale, double a, double b) {
  return scale * SmoothedPhi(a, b);
}

// Stack-block size of the SIMD batch path: big enough to amortize the
// per-block loop overhead, small enough that the scratch arrays (phi here
// plus the a/b pair inside the dispatched kernel, 6 KiB total) stay hot in
// L1. The dispatched transform kernel caps its own blocks at this size, so
// the two must stay equal (see SimdKernelTable::smoothed_phi_transform).
constexpr std::size_t kSimdBlock = 256;

// The blocked SIMD transform shared by AccumulateContributions and
// Estimate: hands each stack block to the runtime-dispatched fused Catoni
// kernel (util/simd_dispatch.h: derive a = x/scale, b = |a|/sqrt_beta
// elementwise, then the SmoothedPhi batch -- at AVX-512 / AVX2 / baseline,
// whatever the CPU probe picked) and passes (base, count, phi values) to
// `consume`. Only reached when use_simd_ is true, which implies the vector
// layer -- and therefore a table -- exists. Allocation-free.
template <typename Consumer>
void ForEachSmoothedPhiBlock(const double* HTDP_RESTRICT xs, std::size_t n,
                             double scale, double sqrt_beta,
                             Consumer&& consume) {
  double phi_buf[kSimdBlock];
  const SimdKernelTable* table = ActiveSimdKernels();
  HTDP_CHECK(table != nullptr);
  for (std::size_t base = 0; base < n; base += kSimdBlock) {
    const std::size_t m = std::min(kSimdBlock, n - base);
    table->smoothed_phi_transform(xs + base, m, scale, sqrt_beta, phi_buf);
    consume(base, m, phi_buf);
  }
}

}  // namespace

RobustMeanEstimator::RobustMeanEstimator(double scale, double beta)
    : scale_(scale),
      beta_(beta),
      sqrt_beta_(std::sqrt(beta)),
      use_simd_(SimdEnabled()) {
  HTDP_CHECK_GT(scale, 0.0);
  HTDP_CHECK_GT(beta, 0.0);
}

double RobustMeanEstimator::SampleContribution(double x) const {
  // x(1 + eta)/s = a + (|a|/sqrt(beta)) z with a = x/s, z ~ N(0,1).
  const double a = x / scale_;
  const double b = std::abs(a) / sqrt_beta_;
  return scale_ * SmoothedPhi(a, b);
}

void RobustMeanEstimator::AccumulateContributions(
    const double* HTDP_RESTRICT xs, std::size_t n,
    double* HTDP_RESTRICT acc) const {
  const double scale = scale_;
  const double sqrt_beta = sqrt_beta_;
  if (use_simd_) {
    ForEachSmoothedPhiBlock(
        xs, n, scale, sqrt_beta,
        [acc, scale](std::size_t base, std::size_t m, const double* phi) {
          double* HTDP_RESTRICT acc_blk = acc + base;
          for (std::size_t j = 0; j < m; ++j) acc_blk[j] += scale * phi[j];
        });
    return;
  }
  // Scalar reference: SmoothedPhi's classification, hoisted through the
  // shared helpers of catoni.h so the common closed-form branch runs as one
  // tight loop over the row while the rare tiny-b / exact-split elements
  // divert to the cold helper. Every element performs the exact operation
  // sequence of SampleContribution, so the result is bit-identical to the
  // scalar path.
  for (std::size_t j = 0; j < n; ++j) {
    const double a = xs[j] / scale;
    const double abs_a = std::abs(a);
    const double b = abs_a / sqrt_beta;
    if (catoni_internal::ClosedFormApplies(abs_a, b)) [[likely]] {
      acc[j] += scale * catoni_internal::SmoothedPhiClosedForm(a, b);
    } else {
      acc[j] += ColdContribution(scale, a, b);
    }
  }
}

double RobustMeanEstimator::Estimate(const double* values,
                                     std::size_t n) const {
  HTDP_CHECK_GT(n, 0u);
  double acc = 0.0;
  if (use_simd_) {
    // Same blocked kernel as AccumulateContributions; the final sum runs
    // over elements in index order, like the scalar loop, so the two modes
    // differ only by the per-element ULP bound, not by summation order.
    const double scale = scale_;
    ForEachSmoothedPhiBlock(
        values, n, scale, sqrt_beta_,
        [&acc, scale](std::size_t, std::size_t m, const double* phi) {
          for (std::size_t j = 0; j < m; ++j) acc += scale * phi[j];
        });
    return acc / static_cast<double>(n);
  }
  for (std::size_t i = 0; i < n; ++i) acc += SampleContribution(values[i]);
  return acc / static_cast<double>(n);
}

double RobustMeanEstimator::Estimate(const Vector& values) const {
  return Estimate(values.data(), values.size());
}

double RobustMeanEstimator::Sensitivity(std::size_t n) const {
  HTDP_CHECK_GT(n, 0u);
  return 2.0 * scale_ * PhiBound() / static_cast<double>(n);
}

double RobustMeanEstimator::DeviationBound(double tau, std::size_t n,
                                           double zeta) const {
  HTDP_CHECK_GT(tau, 0.0);
  HTDP_CHECK_GT(n, 0u);
  HTDP_CHECK(zeta > 0.0 && zeta < 1.0) << "zeta=" << zeta;
  return tau / (2.0 * scale_) * (1.0 / beta_ + 1.0) +
         scale_ / static_cast<double>(n) *
             (beta_ / 2.0 + std::log(2.0 / zeta));
}

}  // namespace htdp
