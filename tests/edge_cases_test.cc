// Boundary-size and degenerate-parameter cases across the public API.

#include <cmath>
#include <cstddef>

#include "core/htdp.h"
#include "gtest/gtest.h"

namespace htdp {
namespace {

TEST(EdgeCasesTest, OneDimensionalProblem) {
  Rng rng(3);
  SyntheticConfig config;
  config.n = 500;
  config.d = 1;
  config.feature_dist = ScalarDistribution::Normal(0.0, 1.0);
  const Vector w_star = {0.5};
  const Dataset data = GenerateLinear(config, w_star, rng);
  const SquaredLoss loss;
  const L1Ball ball(1, 1.0);
  SolverSpec spec;
  spec.budget = PrivacyBudget::Pure(2.0);
  spec.tau = 2.0;
  const auto result =
      SolverRegistry::Global().Create(kSolverAlg1DpFw)->Fit(
          Problem::ConstrainedErm(loss, data, ball), spec, rng);
  EXPECT_LE(std::abs(result.w[0]), 1.0 + 1e-9);
}

TEST(EdgeCasesTest, SingleIterationAlg1) {
  Rng rng(5);
  SyntheticConfig config;
  config.n = 100;
  config.d = 4;
  const Vector w_star = MakeL1BallTarget(4, rng);
  const Dataset data = GenerateLinear(config, w_star, rng);
  const SquaredLoss loss;
  const L1Ball ball(4, 1.0);
  SolverSpec spec;
  spec.budget = PrivacyBudget::Pure(1.0);
  spec.iterations = 1;
  spec.scale = 1.0;
  const auto result =
      SolverRegistry::Global().Create(kSolverAlg1DpFw)->Fit(
          Problem::ConstrainedErm(loss, data, ball), spec, rng);
  EXPECT_EQ(result.iterations, 1);
  EXPECT_EQ(result.ledger.entries().size(), 1u);
}

TEST(EdgeCasesTest, PeelingFullSparsityReleasesEverything) {
  Rng rng(7);
  Vector v = {1.0, -2.0, 3.0};
  PeelingOptions options;
  options.sparsity = 3;
  options.epsilon = 100.0;  // tiny noise
  options.delta = 1e-5;
  options.linf_sensitivity = 1e-4;
  const PeelingResult result = Peel(v, options, rng);
  EXPECT_EQ(result.selected.size(), 3u);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(result.value[j], v[j], 0.05);
  }
}

TEST(EdgeCasesTest, SparsityEqualToDimension) {
  Rng rng(11);
  SyntheticConfig config;
  config.n = 400;
  config.d = 6;
  const Vector w_star = MakeL1BallTarget(6, rng);
  const Dataset data = GenerateLinear(config, w_star, rng);
  SolverSpec spec;
  spec.budget = PrivacyBudget::Approx(1.0, 1e-5);
  spec.sparsity = 6;  // s == d
  Problem problem;
  problem.data = &data;
  problem.target_sparsity = 3;
  const auto result =
      SolverRegistry::Global().Create(kSolverAlg3SparseLinReg)->Fit(
          problem, spec, rng);
  EXPECT_LE(NormL0(result.w), 6u);
}

TEST(EdgeCasesTest, ScheduleClampsIterationsToSampleCount) {
  // Tiny n with huge eps would give T > n; the schedule must clamp.
  Alg1Schedule schedule;
  ASSERT_TRUE(TrySolveAlg1Schedule(5, 10, PrivacyBudget::Pure(1e9), 1.0, 20,
                                   0.1, &schedule)
                  .ok());
  EXPECT_LE(schedule.iterations, 5);
  EXPECT_GE(schedule.iterations, 1);
}

TEST(EdgeCasesTest, ProjectionsOnZeroVector) {
  Vector zero(5, 0.0);
  ProjectOntoL2Ball(1.0, zero);
  EXPECT_EQ(NormL2(zero), 0.0);
  ProjectOntoL1Ball(1.0, zero);
  EXPECT_EQ(NormL1(zero), 0.0);
}

TEST(EdgeCasesTest, TopKWithTiesPrefersLowerIndex) {
  const Vector x = {2.0, -2.0, 2.0};
  const auto top2 = TopKIndicesByMagnitude(x, 2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0], 0u);
  EXPECT_EQ(top2[1], 1u);
}

TEST(EdgeCasesTest, RobustMeanOnConstantData) {
  const RobustMeanEstimator estimator(30.0, 1.0);
  Vector values(100, 3.0);
  // Deterministic bias terms at scale s: x^3/(6 s^2) + x (x/s)^2 / 2
  // ~ 0.02 here; the estimate sits just below the true constant.
  EXPECT_NEAR(estimator.Estimate(values), 3.0, 0.05);
}

TEST(EdgeCasesTest, RobustMeanSingleSample) {
  const RobustMeanEstimator estimator(5.0, 1.0);
  const double single[] = {2.0};
  const double estimate = estimator.Estimate(single, 1);
  EXPECT_TRUE(std::isfinite(estimate));
  EXPECT_LE(std::abs(estimate), 5.0 * PhiBound());
}

TEST(EdgeCasesTest, FoldsWithRemainderKeepAllSamples) {
  Dataset data;
  data.x = Matrix(17, 2);
  data.y.assign(17, 0.0);
  for (std::size_t folds = 1; folds <= 17; ++folds) {
    const auto views = SplitIntoFolds(data, folds);
    std::size_t total = 0;
    for (const auto& view : views) total += view.size();
    EXPECT_EQ(total, 17u) << "folds=" << folds;
  }
}

TEST(EdgeCasesTest, MinimaxFamilyMinimumSize) {
  Rng rng(13);
  // Smallest legal configuration: sparsity 2, d = 4.
  const SparseMeanHardFamily family(4, 2, 2, 1.0, 1.0, 1e-5, 100, rng);
  EXPECT_GE(family.family_size(), 2u);
  EXPECT_GT(family.MinSeparationSquared(), 0.0);
}

TEST(EdgeCasesTest, ExponentialMechanismSingleCandidate) {
  const ExponentialMechanism mechanism(1.0, 1.0);
  Rng rng(17);
  const Vector scores = {0.42};
  EXPECT_EQ(mechanism.SelectGumbel(scores, rng), 0u);
  EXPECT_EQ(mechanism.SelectLogSumExp(scores, rng), 0u);
}

TEST(EdgeCasesTest, ExponentialMechanismExtremeScoreGaps) {
  // Score differences of 1e6 must not overflow either sampler.
  const ExponentialMechanism mechanism(1.0, 1.0);
  Rng rng(19);
  const Vector scores = {-1e6, 0.0, 1e6};
  EXPECT_EQ(mechanism.SelectGumbel(scores, rng), 2u);
  EXPECT_EQ(mechanism.SelectLogSumExp(scores, rng), 2u);
}

TEST(EdgeCasesTest, EmpiricalRiskSingleSample) {
  Dataset data;
  data.x = Matrix(1, 2);
  data.x(0, 0) = 1.0;
  data.x(0, 1) = 2.0;
  data.y = {3.0};
  const SquaredLoss loss;
  EXPECT_NEAR(EmpiricalRisk(loss, data, {1.0, 1.0}), 0.0, 1e-12);
}

TEST(EdgeCasesTest, ShrinkageAtExactThreshold) {
  EXPECT_EQ(Shrink(2.0, 2.0), 2.0);
  EXPECT_EQ(Shrink(-2.0, 2.0), -2.0);
}

TEST(EdgeCasesTest, SpectrumOfSingleSample) {
  Matrix x(1, 3);
  x(0, 0) = 1.0;
  x(0, 1) = 2.0;
  x(0, 2) = 2.0;
  const SpectrumEstimate estimate = EstimateCovarianceSpectrum(x, 100, 3);
  // Rank-1: lambda_max = ||x||^2 / n = 9, lambda_min = 0.
  EXPECT_NEAR(estimate.lambda_max, 9.0, 1e-6);
  EXPECT_NEAR(estimate.lambda_min, 0.0, 1e-6);
}

}  // namespace
}  // namespace htdp
