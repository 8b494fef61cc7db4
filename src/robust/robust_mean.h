#ifndef HTDP_ROBUST_ROBUST_MEAN_H_
#define HTDP_ROBUST_ROBUST_MEAN_H_

#include <cstddef>

#include "linalg/vector_ops.h"
#include "util/simd.h"

namespace htdp {

/// The one-dimensional robust mean estimator x_hat(s, beta) of Eqs. (1)-(5):
/// scaling and soft truncation through phi, multiplicative N(0, 1/beta) noise
/// smoothed analytically via SmoothedPhi. Deterministic given the data.
///
/// Properties used by the paper:
///  - |contribution of one sample| <= s * 2*sqrt(2)/3, hence replacing one
///    sample moves the estimate by at most Sensitivity() = 4*sqrt(2)*s/(3n);
///  - if E[x^2] <= tau, then with probability 1 - zeta
///    |x_hat - E x| <= tau/(2s) (1/beta + 1) + s/n (beta/2 + log(2/zeta))
///    (Lemma 4).
class RobustMeanEstimator {
 public:
  /// `scale` is the truncation scale s > 0; `beta` the noise precision.
  /// The batched kernels take the SIMD path when SimdEnabled() holds at
  /// construction (see util/simd.h), the scalar reference otherwise; simd()
  /// reports which. Scalar entry points (SampleContribution) are unaffected.
  RobustMeanEstimator(double scale, double beta);

  double scale() const { return scale_; }
  double beta() const { return beta_; }
  bool simd() const { return use_simd_; }

  /// The smoothed, truncated contribution of a single raw value:
  /// s * E_eta[ phi((x + eta x)/s) ], bounded by s * 2*sqrt(2)/3.
  double SampleContribution(double x) const;

  /// acc[j] += SampleContribution(xs[j]) for every j in [0, n): the batched
  /// kernel the robust gradient estimator runs over contiguous per-sample
  /// gradient rows. Routes through SmoothedPhiBatch (robust/catoni.h): in
  /// scalar mode the result is bit-identical to n scalar SampleContribution
  /// calls; in SIMD mode each element agrees with the scalar path within
  /// scale() * SmoothedPhiBatchTolerance(a, b) (tiny-b elements bit for
  /// bit). Allocation-free either way. xs and acc must not overlap.
  void AccumulateContributions(const double* HTDP_RESTRICT xs, std::size_t n,
                               double* HTDP_RESTRICT acc) const;

  /// The estimate (1/n) * sum_i SampleContribution(x_i).
  double Estimate(const double* values, std::size_t n) const;
  double Estimate(const Vector& values) const;

  /// l-infinity sensitivity of Estimate over n samples when one sample is
  /// replaced: 4*sqrt(2)*s/(3n).
  double Sensitivity(std::size_t n) const;

  /// The high-probability deviation bound of Lemma 4 for a distribution with
  /// second moment at most tau and failure probability zeta.
  double DeviationBound(double tau, std::size_t n, double zeta) const;

 private:
  double scale_;
  double beta_;
  double sqrt_beta_;
  bool use_simd_;
};

}  // namespace htdp

#endif  // HTDP_ROBUST_ROBUST_MEAN_H_
