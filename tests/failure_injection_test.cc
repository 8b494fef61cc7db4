// Failure injection: adversarial and degenerate inputs. The private
// algorithms must stay finite, respect their constraint sets, and spend
// exactly their declared budgets no matter what the data looks like --
// that is the whole point of pairing the robust estimator with DP.

#include <cmath>
#include <cstddef>

#include "core/htdp.h"
#include "gtest/gtest.h"

namespace htdp {
namespace {

Dataset BaseData(std::size_t n, std::size_t d, Rng& rng) {
  SyntheticConfig config;
  config.n = n;
  config.d = d;
  config.feature_dist = ScalarDistribution::Normal(0.0, 1.0);
  const Vector w_star = MakeL1BallTarget(d, rng);
  return GenerateLinear(config, w_star, rng);
}

TEST(FailureInjectionTest, Alg1SurvivesPlantedMegaOutliers) {
  Rng rng(3);
  const std::size_t d = 12;
  Dataset data = BaseData(2000, d, rng);
  // 5% of rows replaced by +-1e15 garbage.
  for (std::size_t i = 0; i < data.size(); i += 20) {
    for (std::size_t j = 0; j < d; ++j) {
      data.x(i, j) = (j % 2 == 0) ? 1e15 : -1e15;
    }
    data.y[i] = 1e15;
  }
  const SquaredLoss loss;
  const L1Ball ball(d, 1.0);
  SolverSpec spec;
  spec.budget = PrivacyBudget::Pure(1.0);
  spec.tau = 4.0;
  const auto result =
      SolverRegistry::Global().Create(kSolverAlg1DpFw)->Fit(
          Problem::ConstrainedErm(loss, data, ball), spec, rng);
  EXPECT_TRUE(std::isfinite(NormL2(result.w)));
  EXPECT_LE(NormL1(result.w), 1.0 + 1e-9);
  EXPECT_NEAR(result.ledger.TotalEpsilon(), 1.0, 1e-12);
}

TEST(FailureInjectionTest, Alg1OutlierRowsBarelyMoveTheIterate) {
  // The same run with and without one corrupted row should differ by no
  // more than what the sensitivity bound permits through T selections.
  Rng data_rng(5);
  const std::size_t d = 8;
  Dataset clean = BaseData(1500, d, data_rng);
  Dataset dirty = clean;
  for (std::size_t j = 0; j < d; ++j) dirty.x(7, j) = 1e12;
  dirty.y[7] = -1e12;

  const SquaredLoss loss;
  const L1Ball ball(d, 1.0);
  SolverSpec spec;
  spec.budget = PrivacyBudget::Pure(5.0);
  spec.tau = 4.0;
  Rng rng_a(42);
  Rng rng_b(42);
  const auto result_clean =
      SolverRegistry::Global().Create(kSolverAlg1DpFw)->Fit(
          Problem::ConstrainedErm(loss, clean, ball), spec, rng_a);
  const auto result_dirty =
      SolverRegistry::Global().Create(kSolverAlg1DpFw)->Fit(
          Problem::ConstrainedErm(loss, dirty, ball), spec, rng_b);
  // Both stay in the ball; distance is at most the diameter but in
  // practice far below it (the truncation absorbs the row).
  EXPECT_LE(DistanceL2(result_clean.w, result_dirty.w), 1.0);
}

TEST(FailureInjectionTest, Alg2SurvivesInfinityMagnitudeEntries) {
  Rng rng(7);
  const std::size_t d = 10;
  Dataset data = BaseData(1000, d, rng);
  data.x(3, 4) = 1e300;
  data.y[9] = -1e300;
  const L1Ball ball(d, 1.0);
  SolverSpec spec;
  spec.budget = PrivacyBudget::Approx(1.0, 1e-5);
  Problem problem;
  problem.data = &data;
  problem.constraint = &ball;
  const auto result =
      SolverRegistry::Global().Create(kSolverAlg2PrivateLasso)->Fit(
          problem, spec, rng);
  EXPECT_TRUE(std::isfinite(NormL2(result.w)));
  EXPECT_LE(NormL1(result.w), 1.0 + 1e-9);
}

TEST(FailureInjectionTest, Alg3SurvivesConstantFeatures) {
  // A constant column has zero variance; shrinkage and Peeling must not
  // divide by it or select it systematically.
  Rng rng(11);
  const std::size_t d = 30;
  Dataset data = BaseData(3000, d, rng);
  for (std::size_t i = 0; i < data.size(); ++i) data.x(i, 5) = 1.0;
  SolverSpec spec;
  spec.budget = PrivacyBudget::Approx(1.0, 1e-5);
  Problem problem;
  problem.data = &data;
  problem.target_sparsity = 3;
  const auto result =
      SolverRegistry::Global().Create(kSolverAlg3SparseLinReg)->Fit(
          problem, spec, rng);
  EXPECT_TRUE(std::isfinite(NormL2(result.w)));
  EXPECT_LE(NormL2(result.w), 1.0 + 1e-9);
}

TEST(FailureInjectionTest, Alg5SurvivesAllZeroFeatures) {
  Rng rng(13);
  const std::size_t d = 10;
  Dataset data;
  data.x = Matrix(500, d);  // all zeros
  data.y.assign(500, 1.0);
  const LogisticLoss loss;
  SolverSpec spec;
  spec.budget = PrivacyBudget::Approx(1.0, 1e-5);
  const auto result =
      SolverRegistry::Global().Create(kSolverAlg5SparseOpt)->Fit(
          Problem::SparseErm(loss, data, 2), spec, rng);
  EXPECT_TRUE(std::isfinite(NormL2(result.w)));
  EXPECT_LE(NormL0(result.w), 4u);
}

TEST(FailureInjectionTest, Alg5SurvivesSingleClassLabels) {
  Rng rng(17);
  const std::size_t d = 10;
  Dataset data = BaseData(800, d, rng);
  for (double& y : data.y) y = 1.0;  // degenerate labels
  const LogisticLoss loss(0.01);
  SolverSpec spec;
  spec.budget = PrivacyBudget::Approx(1.0, 1e-5);
  const auto result =
      SolverRegistry::Global().Create(kSolverAlg5SparseOpt)->Fit(
          Problem::SparseErm(loss, data, 2), spec, rng);
  EXPECT_TRUE(std::isfinite(NormL2(result.w)));
}

TEST(FailureInjectionTest, RobustGradientFiniteUnderLogLogisticBlowups) {
  // LogLogistic(0.1) draws reach 1e30; every per-coordinate contribution
  // must stay within the phi bound.
  Rng rng(19);
  SyntheticConfig config;
  config.n = 500;
  config.d = 6;
  config.feature_dist = ScalarDistribution::LogLogistic(0.1);
  config.noise_dist = ScalarDistribution::LogLogistic(0.1);
  const Vector w_star = MakeL1BallTarget(config.d, rng);
  const Dataset data = GenerateLinear(config, w_star, rng);
  const SquaredLoss loss;
  const RobustGradientEstimator estimator(2.0, 1.0);
  Vector grad;
  estimator.Estimate(loss, FullView(data), Vector(config.d, 0.0), grad);
  for (double g : grad) {
    EXPECT_TRUE(std::isfinite(g));
    EXPECT_LE(std::abs(g), 2.0 * PhiBound() + 1e-12);
  }
}

TEST(FailureInjectionTest, PeelingHandlesAllEqualMagnitudes) {
  Rng rng(23);
  Vector v(50, 3.0);  // every coordinate ties
  PeelingOptions options;
  options.sparsity = 5;
  options.epsilon = 1.0;
  options.delta = 1e-5;
  options.linf_sensitivity = 0.1;
  const PeelingResult result = Peel(v, options, rng);
  EXPECT_EQ(result.selected.size(), 5u);
  EXPECT_LE(NormL0(result.value), 5u);
}

TEST(FailureInjectionTest, DuplicatedDatasetGivesConsistentResults) {
  // Duplicating every row doubles n; the robust gradient is invariant and
  // the noise scales shrink, so the result should not blow up.
  Rng rng(29);
  const std::size_t d = 8;
  const Dataset data = BaseData(500, d, rng);
  Dataset doubled;
  doubled.x = Matrix(1000, d);
  doubled.y.resize(1000);
  for (std::size_t i = 0; i < 1000; ++i) {
    const std::size_t src = i / 2;
    for (std::size_t j = 0; j < d; ++j) doubled.x(i, j) = data.x(src, j);
    doubled.y[i] = data.y[src];
  }
  const SquaredLoss loss;
  const L1Ball ball(d, 1.0);
  SolverSpec spec;
  spec.budget = PrivacyBudget::Pure(2.0);
  spec.tau = 4.0;
  const auto result =
      SolverRegistry::Global().Create(kSolverAlg1DpFw)->Fit(
          Problem::ConstrainedErm(loss, doubled, ball), spec, rng);
  EXPECT_TRUE(std::isfinite(NormL2(result.w)));
  EXPECT_LE(NormL1(result.w), 1.0 + 1e-9);
}

TEST(FailureInjectionTest, MechanismsRejectDegenerateBudgets) {
  Rng rng(31);
  Vector scores = {1.0, 2.0};
  EXPECT_DEATH(ExponentialMechanism(0.0, 1.0), "sensitivity");
  EXPECT_DEATH(ExponentialMechanism(1.0, 0.0), "epsilon");
  EXPECT_DEATH(LaplaceMechanism(1.0, -1.0), "epsilon");
  EXPECT_DEATH(GaussianMechanism(1.0, 1.0, 0.0), "delta");
  EXPECT_DEATH(GaussianMechanism(1.0, 1.0, 1.0), "delta");
}

}  // namespace
}  // namespace htdp
