#include <cmath>
#include <cstddef>

#include "api/api.h"
#include "core/hyperparams.h"
#include "data/synthetic.h"
#include "gtest/gtest.h"
#include "linalg/sparse_ops.h"
#include "rng/rng.h"
#include "stats/metrics.h"

namespace htdp {
namespace {

// Figure 7 configuration: x ~ N(0, 5), heavy-tailed noise.
Dataset SparseLinearData(std::size_t n, std::size_t d, const Vector& w_star,
                         const ScalarDistribution& noise, Rng& rng) {
  SyntheticConfig config;
  config.n = n;
  config.d = d;
  config.feature_dist = ScalarDistribution::Normal(0.0, 5.0);
  config.noise_dist = noise;
  return GenerateLinear(config, w_star, rng);
}

// Half-magnitude target so the ||w*|| <= 1/2 condition of Theorem 7 holds.
Vector HalfBallSparseTarget(std::size_t d, std::size_t s, Rng& rng) {
  Vector w = MakeSparseTarget(d, s, rng);
  Scale(0.5, w);
  return w;
}

TEST(HtSparseLinRegTest, OutputIsSparseAndInUnitBall) {
  Rng rng(3);
  const std::size_t d = 100;
  const std::size_t s_star = 5;
  const Vector w_star = HalfBallSparseTarget(d, s_star, rng);
  const Dataset data = SparseLinearData(
      5000, d, w_star, ScalarDistribution::Lognormal(0.0, 0.5), rng);

  SolverSpec spec;
  spec.budget = PrivacyBudget::Approx(1.0, 1e-5);
  Problem problem;
  problem.data = &data;
  problem.target_sparsity = s_star;
  const FitResult result =
      SolverRegistry::Global().Create(kSolverAlg3SparseLinReg)->Fit(
          problem, spec, rng);

  EXPECT_LE(NormL0(result.w), result.sparsity_used);
  EXPECT_LE(NormL2(result.w), 1.0 + 1e-9);
  EXPECT_EQ(result.sparsity_used, 2 * s_star);
}

TEST(HtSparseLinRegTest, LedgerComposesInParallelAcrossFolds) {
  Rng rng(5);
  const std::size_t d = 60;
  const Vector w_star = HalfBallSparseTarget(d, 4, rng);
  const Dataset data = SparseLinearData(
      3000, d, w_star, ScalarDistribution::Lognormal(0.0, 0.5), rng);
  SolverSpec spec;
  spec.budget = PrivacyBudget::Approx(0.5, 1e-6);
  Problem problem;
  problem.data = &data;
  problem.target_sparsity = 4;
  const auto result =
      SolverRegistry::Global().Create(kSolverAlg3SparseLinReg)->Fit(
          problem, spec, rng);

  EXPECT_EQ(result.ledger.entries().size(),
            static_cast<std::size_t>(result.iterations));
  EXPECT_NEAR(result.ledger.TotalEpsilon(), 0.5, 1e-12);
  EXPECT_NEAR(result.ledger.TotalDelta(), 1e-6, 1e-15);
}

TEST(HtSparseLinRegTest, AutoScheduleMatchesSection62) {
  Alg3Schedule schedule;
  ASSERT_TRUE(TrySolveAlg3Schedule(50000, PrivacyBudget::Pure(1.0), 20, 2,
                                   &schedule)
                  .ok());
  EXPECT_EQ(schedule.iterations,
            static_cast<int>(std::floor(std::log(50000.0))));
  EXPECT_EQ(schedule.sparsity, 40u);
  const double expected_k = std::pow(
      50000.0 / (40.0 * schedule.iterations), 0.25);
  EXPECT_NEAR(schedule.shrinkage, expected_k, 1e-9);
}

TEST(HtSparseLinRegTest, RecoversSupportWithLargeBudget) {
  Rng rng(7);
  const std::size_t d = 80;
  const std::size_t s_star = 4;
  const Vector w_star = HalfBallSparseTarget(d, s_star, rng);
  const Dataset data = SparseLinearData(
      40000, d, w_star, ScalarDistribution::Normal(0.0, 0.1), rng);

  SolverSpec spec;
  spec.budget = PrivacyBudget::Approx(20.0, 1e-5);
  spec.step = 0.02;  // features have variance 25: keep eta/gamma stable
  Problem problem;
  problem.data = &data;
  problem.target_sparsity = s_star;
  const auto result =
      SolverRegistry::Global().Create(kSolverAlg3SparseLinReg)->Fit(
          problem, spec, rng);

  const SupportRecovery recovery = EvaluateSupportRecovery(result.w, w_star);
  EXPECT_GT(recovery.recall, 0.7);
}

TEST(HtSparseLinRegTest, EstimationErrorDecreasesWithSampleSize) {
  const std::size_t d = 120;
  const std::size_t s_star = 5;

  auto average_error = [&](std::size_t n, std::uint64_t seed) {
    double total = 0.0;
    const int trials = 3;
    Rng rng(seed);
    for (int t = 0; t < trials; ++t) {
      const Vector w_star = HalfBallSparseTarget(d, s_star, rng);
      const Dataset data = SparseLinearData(
          n, d, w_star, ScalarDistribution::Lognormal(0.0, 0.5), rng);
      SolverSpec spec;
      spec.budget = PrivacyBudget::Approx(2.0, 1e-5);
      spec.step = 0.02;
      Problem problem;
      problem.data = &data;
      problem.target_sparsity = s_star;
      const auto result =
          SolverRegistry::Global().Create(kSolverAlg3SparseLinReg)->Fit(
              problem, spec, rng);
      total += EstimationError(result.w, w_star);
    }
    return total / trials;
  };

  EXPECT_LT(average_error(40000, 3002), average_error(2000, 3001));
}

TEST(HtSparseLinRegTest, ExplicitOverridesRespected) {
  Rng rng(11);
  const std::size_t d = 30;
  const Vector w_star = HalfBallSparseTarget(d, 3, rng);
  const Dataset data = SparseLinearData(
      1000, d, w_star, ScalarDistribution::Lognormal(0.0, 0.5), rng);
  SolverSpec spec;
  spec.budget = PrivacyBudget::Approx(1.0, 1e-5);
  spec.iterations = 4;
  spec.sparsity = 9;
  spec.shrinkage = 2.0;
  Problem problem;
  problem.data = &data;
  const auto result =
      SolverRegistry::Global().Create(kSolverAlg3SparseLinReg)->Fit(
          problem, spec, rng);
  EXPECT_EQ(result.iterations, 4);
  EXPECT_EQ(result.sparsity_used, 9u);
  EXPECT_NEAR(result.shrinkage_used, 2.0, 1e-15);
}

TEST(HtSparseLinRegTest, HeavyNoiseStillProducesBoundedIterate) {
  Rng rng(17);
  const std::size_t d = 50;
  const Vector w_star = HalfBallSparseTarget(d, 5, rng);
  const Dataset data = SparseLinearData(
      4000, d, w_star, ScalarDistribution::LogLogistic(0.1), rng);
  SolverSpec spec;
  spec.budget = PrivacyBudget::Approx(1.0, 1e-5);
  Problem problem;
  problem.data = &data;
  problem.target_sparsity = 5;
  const auto result =
      SolverRegistry::Global().Create(kSolverAlg3SparseLinReg)->Fit(
          problem, spec, rng);
  EXPECT_TRUE(std::isfinite(NormL2(result.w)));
  EXPECT_LE(NormL2(result.w), 1.0 + 1e-9);
}

}  // namespace
}  // namespace htdp
