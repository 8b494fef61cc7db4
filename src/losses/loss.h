#ifndef HTDP_LOSSES_LOSS_H_
#define HTDP_LOSSES_LOSS_H_

#include <string>

#include "data/dataset.h"
#include "linalg/vector_ops.h"

namespace htdp {

/// Per-sample loss l(w, (x, y)) with gradients in w. Implementations must be
/// stateless and thread-compatible: the robust gradient estimator evaluates
/// them concurrently across samples.
class Loss {
 public:
  virtual ~Loss() = default;

  /// l(w, (x, y)). `x` points at dim() contiguous feature values.
  virtual double Value(const double* x, double y, const Vector& w) const = 0;

  /// Writes nabla_w l(w, (x, y)) into `grad` (resized to w.size()).
  virtual void Gradient(const double* x, double y, const Vector& w,
                        Vector& grad) const = 0;

  /// Scaled-feature form: if the gradient factors as scale(w,x,y) * x +
  /// RidgeCoefficient() * w, stores the scalar in *scale and returns true.
  /// The answer must not depend on the arguments. The robust gradient
  /// estimator requires this form (Algorithms 1 and 5 and the robust-GD
  /// baseline reject a loss without it); EmpiricalGradient uses it when
  /// present.
  virtual bool GradientAsScaledFeature(const double* x, double y,
                                       const Vector& w, double* scale) const {
    (void)x;
    (void)y;
    (void)w;
    (void)scale;
    return false;
  }

  /// Coefficient of the (lambda/2)||w||^2 ridge term, 0 if none.
  virtual double RidgeCoefficient() const { return 0.0; }

  virtual std::string Name() const = 0;
};

/// Empirical risk (1/m) sum_i l(w, (x_i, y_i)) over a dataset view. Like
/// EmpiricalGradient, it sums in an order fixed by the row count alone, so
/// the result is bit-identical at every worker count.
double EmpiricalRisk(const Loss& loss, const DatasetView& view,
                     const Vector& w);
double EmpiricalRisk(const Loss& loss, const Dataset& data, const Vector& w);

/// Empirical gradient (1/m) sum_i nabla l(w, (x_i, y_i)); resizes `grad`.
void EmpiricalGradient(const Loss& loss, const DatasetView& view,
                       const Vector& w, Vector& grad);

/// L_hat(w) - L_hat(w_ref): the excess empirical risk, the measurement used
/// throughout Section 6 (with w_ref = w*).
double ExcessEmpiricalRisk(const Loss& loss, const Dataset& data,
                           const Vector& w, const Vector& w_ref);

}  // namespace htdp

#endif  // HTDP_LOSSES_LOSS_H_
