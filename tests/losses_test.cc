#include <cmath>
#include <cstddef>
#include <memory>
#include <vector>

#include "data/dataset.h"
#include "data/synthetic.h"
#include "gtest/gtest.h"
#include "losses/biweight_loss.h"
#include "losses/huber_loss.h"
#include "losses/logistic_loss.h"
#include "losses/loss.h"
#include "losses/mean_loss.h"
#include "losses/squared_loss.h"
#include "rng/distributions.h"
#include "rng/rng.h"

namespace htdp {
namespace {

// Central-difference numerical gradient of a per-sample loss.
Vector NumericalGradient(const Loss& loss, const double* x, double y,
                         const Vector& w) {
  const double h = 1e-6;
  Vector grad(w.size());
  Vector probe = w;
  for (std::size_t j = 0; j < w.size(); ++j) {
    probe[j] = w[j] + h;
    const double plus = loss.Value(x, y, probe);
    probe[j] = w[j] - h;
    const double minus = loss.Value(x, y, probe);
    probe[j] = w[j];
    grad[j] = (plus - minus) / (2.0 * h);
  }
  return grad;
}

struct LossCase {
  std::string name;
  std::shared_ptr<Loss> loss;
  bool binary_labels;
  // The scaled-feature form reproduces Gradient() bit for bit, not only to
  // rounding (the robust gradient relies on this for MeanLoss).
  bool exact_scaled_feature = false;
};

class LossGradientTest : public ::testing::TestWithParam<LossCase> {};

TEST_P(LossGradientTest, AnalyticGradientMatchesNumerical) {
  const LossCase& test_case = GetParam();
  Rng rng(101);
  const std::size_t d = 6;
  for (int trial = 0; trial < 20; ++trial) {
    Vector x(d);
    for (double& v : x) v = rng.Uniform(-2.0, 2.0);
    const double y = test_case.binary_labels
                         ? ((rng.UniformInt(2) == 0) ? -1.0 : 1.0)
                         : rng.Uniform(-2.0, 2.0);
    Vector w(d);
    for (double& v : w) v = rng.Uniform(-0.5, 0.5);

    Vector analytic;
    test_case.loss->Gradient(x.data(), y, w, analytic);
    const Vector numerical =
        NumericalGradient(*test_case.loss, x.data(), y, w);
    for (std::size_t j = 0; j < d; ++j) {
      EXPECT_NEAR(analytic[j], numerical[j], 1e-4)
          << test_case.name << " trial " << trial << " coord " << j;
    }
  }
}

TEST_P(LossGradientTest, GlmFastPathMatchesFullGradient) {
  const LossCase& test_case = GetParam();
  Rng rng(103);
  const std::size_t d = 5;
  Vector x(d);
  for (double& v : x) v = rng.Uniform(-2.0, 2.0);
  const double y =
      test_case.binary_labels ? 1.0 : rng.Uniform(-2.0, 2.0);
  Vector w(d);
  for (double& v : w) v = rng.Uniform(-0.5, 0.5);

  double scale = 0.0;
  // Every shipped loss has the form: the robust-gradient solvers need it.
  ASSERT_TRUE(test_case.loss->GradientAsScaledFeature(x.data(), y, w, &scale));
  Vector full;
  test_case.loss->Gradient(x.data(), y, w, full);
  const double ridge = test_case.loss->RidgeCoefficient();
  for (std::size_t j = 0; j < d; ++j) {
    if (test_case.exact_scaled_feature) {
      EXPECT_EQ(full[j], scale * x[j] + ridge * w[j]) << "coord " << j;
    } else {
      EXPECT_NEAR(full[j], scale * x[j] + ridge * w[j], 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllLosses, LossGradientTest,
    ::testing::Values(
        LossCase{"squared", std::make_shared<SquaredLoss>(), false},
        LossCase{"logistic", std::make_shared<LogisticLoss>(), true},
        LossCase{"logistic_ridge", std::make_shared<LogisticLoss>(0.3), true},
        LossCase{"biweight", std::make_shared<BiweightLoss>(1.0), false},
        LossCase{"biweight_wide", std::make_shared<BiweightLoss>(3.0), false},
        LossCase{"huber", std::make_shared<HuberLoss>(1.0), false},
        LossCase{"mean", std::make_shared<MeanLoss>(), false, true}),
    [](const ::testing::TestParamInfo<LossCase>& info) {
      return info.param.name;
    });

TEST(SquaredLossTest, KnownValue) {
  const SquaredLoss loss;
  const Vector w = {1.0, -1.0};
  const double x[] = {2.0, 3.0};
  // (<w,x> - y)^2 = (2 - 3 - 1)^2 = 4.
  EXPECT_NEAR(loss.Value(x, 1.0, w), 4.0, 1e-12);
}

TEST(LogisticLossTest, ValueAtZeroWeightsIsLog2) {
  const LogisticLoss loss;
  const Vector w = {0.0, 0.0};
  const double x[] = {5.0, -3.0};
  EXPECT_NEAR(loss.Value(x, 1.0, w), std::log(2.0), 1e-12);
  EXPECT_NEAR(loss.Value(x, -1.0, w), std::log(2.0), 1e-12);
}

TEST(LogisticLossTest, NoOverflowForExtremeMargins) {
  const LogisticLoss loss;
  const Vector w = {1000.0};
  const double x[] = {1.0};
  EXPECT_TRUE(std::isfinite(loss.Value(x, 1.0, w)));
  EXPECT_TRUE(std::isfinite(loss.Value(x, -1.0, w)));
  EXPECT_NEAR(loss.Value(x, 1.0, w), 0.0, 1e-12);
  EXPECT_NEAR(loss.Value(x, -1.0, w), 1000.0, 1e-9);
}

TEST(LogisticLossTest, RidgeAddsQuadraticTerm) {
  const LogisticLoss plain;
  const LogisticLoss ridged(0.5);
  const Vector w = {1.0, 2.0};
  const double x[] = {0.5, -0.25};
  EXPECT_NEAR(ridged.Value(x, 1.0, w),
              plain.Value(x, 1.0, w) + 0.25 * 5.0, 1e-12);
  EXPECT_EQ(plain.RidgeCoefficient(), 0.0);
  EXPECT_EQ(ridged.RidgeCoefficient(), 0.5);
}

TEST(BiweightLossTest, Assumption2Properties) {
  const BiweightLoss loss(1.0);
  // psi' is odd and positive on (0, c).
  for (double t = 0.05; t < 1.0; t += 0.05) {
    EXPECT_GT(loss.PsiPrime(t), 0.0);
    EXPECT_NEAR(loss.PsiPrime(-t), -loss.PsiPrime(t), 1e-15);
  }
  // psi saturates at c^2/6 outside |t| >= c.
  EXPECT_NEAR(loss.Psi(5.0), 1.0 / 6.0, 1e-15);
  EXPECT_NEAR(loss.Psi(-5.0), 1.0 / 6.0, 1e-15);
  EXPECT_NEAR(loss.PsiPrime(5.0), 0.0, 1e-15);
  // psi' is bounded (Cpsi condition).
  double max_slope = 0.0;
  for (double t = -1.0; t <= 1.0; t += 0.001) {
    max_slope = std::max(max_slope, std::abs(loss.PsiPrime(t)));
  }
  EXPECT_LE(max_slope, 1.0);
}

TEST(MeanLossTest, ExcessRiskEqualsSquaredDistanceToMean) {
  // L(w) - L(mu) = ||w - mu||^2 for the empirical mean mu.
  Rng rng(107);
  Dataset data;
  data.x = Matrix(500, 3);
  data.y.assign(500, 0.0);
  for (double& e : data.x.data()) e = rng.Uniform(-1.0, 1.0);
  Vector mu(3, 0.0);
  for (std::size_t i = 0; i < 500; ++i) {
    for (std::size_t j = 0; j < 3; ++j) mu[j] += data.x(i, j);
  }
  Scale(1.0 / 500.0, mu);

  const MeanLoss loss;
  const Vector w = {0.3, -0.2, 0.1};
  const double excess = EmpiricalRisk(loss, data, w) -
                        EmpiricalRisk(loss, data, mu);
  EXPECT_NEAR(excess, NormL2Squared(Sub(w, mu)), 1e-9);
}

TEST(EmpiricalRiskTest, MatchesHandComputedAverage) {
  const SquaredLoss loss;
  Dataset data;
  data.x = Matrix(2, 1);
  data.x(0, 0) = 1.0;
  data.x(1, 0) = 2.0;
  data.y = {1.0, 1.0};
  const Vector w = {1.0};
  // Residuals: 0 and 1 -> risk (0 + 1)/2.
  EXPECT_NEAR(EmpiricalRisk(loss, data, w), 0.5, 1e-12);
}

TEST(EmpiricalGradientTest, MatchesAverageOfSampleGradients) {
  Rng rng(109);
  const std::size_t n = 64;
  const std::size_t d = 4;
  Dataset data;
  data.x = Matrix(n, d);
  data.y.resize(n);
  for (double& e : data.x.data()) e = rng.Uniform(-1.0, 1.0);
  for (double& y : data.y) y = rng.Uniform(-1.0, 1.0);
  Vector w(d);
  for (double& v : w) v = rng.Uniform(-1.0, 1.0);

  const LogisticLoss loss(0.1);
  Vector fast;
  EmpiricalGradient(loss, FullView(data), w, fast);

  Vector expected(d, 0.0);
  Vector sample(d);
  for (std::size_t i = 0; i < n; ++i) {
    // Labels must be +-1 for logistic; map them.
    const double y = data.y[i] >= 0.0 ? 1.0 : -1.0;
    loss.Gradient(data.x.Row(i), y, w, sample);
    Axpy(1.0, sample, expected);
  }
  Scale(1.0 / static_cast<double>(n), expected);

  // Recompute fast path with the same mapped labels.
  Dataset mapped = data;
  for (double& y : mapped.y) y = y >= 0.0 ? 1.0 : -1.0;
  EmpiricalGradient(loss, FullView(mapped), w, fast);
  for (std::size_t j = 0; j < d; ++j) {
    EXPECT_NEAR(fast[j], expected[j], 1e-10);
  }
}

TEST(ExcessEmpiricalRiskTest, ZeroAtReference) {
  Rng rng(113);
  SyntheticConfig config;
  config.n = 100;
  config.d = 3;
  const Vector w_star = MakeL1BallTarget(config.d, rng);
  const Dataset data = GenerateLinear(config, w_star, rng);
  const SquaredLoss loss;
  EXPECT_NEAR(ExcessEmpiricalRisk(loss, data, w_star, w_star), 0.0, 1e-12);
}

}  // namespace
}  // namespace htdp
