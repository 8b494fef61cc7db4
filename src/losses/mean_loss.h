#ifndef HTDP_LOSSES_MEAN_LOSS_H_
#define HTDP_LOSSES_MEAN_LOSS_H_

#include <string>

#include "losses/loss.h"

namespace htdp {

/// The mean-estimation loss L_D(w) = E ||x - w||_2^2 of the Theorem 9 lower
/// bound and the sparse-mean example of Assumption 4. The label is unused.
/// Per-sample gradient 2 (w - x); the minimizer of the population risk is
/// the mean, and the excess risk of w equals ||w - mu||_2^2. In the
/// scaled-feature form the gradient is -2 x + 2 w, which equals 2 (w - x)
/// bit for bit on finite inputs (doubling is exact).
class MeanLoss final : public Loss {
 public:
  MeanLoss() = default;

  double Value(const double* x, double y, const Vector& w) const override;
  void Gradient(const double* x, double y, const Vector& w,
                Vector& grad) const override;
  bool GradientAsScaledFeature(const double* x, double y, const Vector& w,
                               double* scale) const override;
  double RidgeCoefficient() const override { return 2.0; }
  std::string Name() const override { return "mean"; }
};

}  // namespace htdp

#endif  // HTDP_LOSSES_MEAN_LOSS_H_
