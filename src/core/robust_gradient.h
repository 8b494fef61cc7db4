#ifndef HTDP_CORE_ROBUST_GRADIENT_H_
#define HTDP_CORE_ROBUST_GRADIENT_H_

#include <cstddef>
#include <vector>

#include "data/dataset.h"
#include "linalg/vector_ops.h"
#include "losses/loss.h"
#include "robust/robust_mean.h"

namespace htdp {

/// Reusable scratch for RobustGradientEstimator::Estimate: the per-row GLM
/// scales of the current call and one d-length row buffer that the
/// coordinate blocks fill slice by slice. Buffers grow on first use and are
/// retained, so a fit loop that passes the same workspace every iteration
/// performs no heap allocation after warm-up.
struct RobustGradientWorkspace {
  std::vector<double> row_scales;
  Vector row_buffer;
};

/// The coordinate-wise robust gradient estimator g~(w, D) of Algorithm 1
/// step 4 / Algorithm 5 step 4: the one-dimensional Catoni-style estimator
/// x_hat(s, beta) (Eqs. (2)-(5)) applied to each coordinate of the
/// per-sample gradients { grad l(w, z_i) }.
///
/// Because the multiplicative-noise smoothing is evaluated analytically, the
/// estimator is deterministic; privacy enters only through the downstream
/// mechanism, which relies on the l-infinity sensitivity bound
/// 4 sqrt(2) s / (3 m) exposed by Sensitivity().
class RobustGradientEstimator {
 public:
  /// `scale` is the truncation scale (s in Algorithm 1, k in Algorithm 5);
  /// `beta` the smoothing precision. The per-coordinate Catoni kernel takes
  /// the path the process-wide SIMD toggle selects at construction (see
  /// RobustMeanEstimator and the HTDP_SIMD contract in util/simd.h).
  RobustGradientEstimator(double scale, double beta);

  double scale() const { return estimator_.scale(); }
  double beta() const { return estimator_.beta(); }
  bool simd() const { return estimator_.simd(); }

  /// Computes g~(w, view) into `out` (resized to w.size()). `loss` must
  /// have the scaled-feature gradient form (Loss::GradientAsScaledFeature);
  /// the solvers reject other losses with kInvalidProblem before fitting.
  /// Each row's gradient is the fused row scale * x_i + ridge * w. Work is
  /// split by coordinate: blocks of whole 8-lane groups run as ParallelFor
  /// chunks, and every coordinate sums its contributions over the rows in row
  /// order. The result is therefore the serial one, bit for bit, at every
  /// worker count and under any scheduling. Pass a `workspace` owned by the
  /// fit loop to reuse the buffers across iterations (zero allocations after
  /// warm-up); with the default nullptr a call-local workspace is used.
  void Estimate(const Loss& loss, const DatasetView& view, const Vector& w,
                Vector& out, RobustGradientWorkspace* workspace = nullptr)
      const;

  /// l-infinity sensitivity of Estimate() over m samples when one sample is
  /// replaced: 4 sqrt(2) scale / (3 m).
  double Sensitivity(std::size_t m) const;

 private:
  RobustMeanEstimator estimator_;
};

}  // namespace htdp

#endif  // HTDP_CORE_ROBUST_GRADIENT_H_
