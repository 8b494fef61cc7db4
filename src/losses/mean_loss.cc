#include "losses/mean_loss.h"

#include <cstddef>

namespace htdp {

double MeanLoss::Value(const double* x, double y, const Vector& w) const {
  (void)y;
  double acc = 0.0;
  for (std::size_t j = 0; j < w.size(); ++j) {
    const double diff = x[j] - w[j];
    acc += diff * diff;
  }
  return acc;
}

void MeanLoss::Gradient(const double* x, double y, const Vector& w,
                        Vector& grad) const {
  (void)y;
  grad.resize(w.size());
  for (std::size_t j = 0; j < w.size(); ++j) grad[j] = 2.0 * (w[j] - x[j]);
}

bool MeanLoss::GradientAsScaledFeature(const double* x, double y,
                                       const Vector& w, double* scale) const {
  (void)x;
  (void)y;
  (void)w;
  *scale = -2.0;
  return true;
}

}  // namespace htdp
