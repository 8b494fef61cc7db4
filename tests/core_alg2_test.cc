#include <cmath>
#include <cstddef>

#include "api/api.h"
#include "core/hyperparams.h"
#include "data/synthetic.h"
#include "dp/privacy.h"
#include "gtest/gtest.h"
#include "losses/squared_loss.h"
#include "optim/polytope.h"
#include "rng/rng.h"

namespace htdp {
namespace {

Dataset HeavyTailedLinearData(std::size_t n, std::size_t d,
                              const ScalarDistribution& features,
                              const Vector& w_star, Rng& rng) {
  SyntheticConfig config;
  config.n = n;
  config.d = d;
  config.feature_dist = features;
  config.noise_dist = ScalarDistribution::Normal(0.0, 0.1);
  return GenerateLinear(config, w_star, rng);
}

TEST(HtPrivateLassoTest, AdvancedCompositionStaysWithinBudget) {
  Rng rng(3);
  const std::size_t d = 10;
  const Vector w_star = MakeL1BallTarget(d, rng);
  const Dataset data = HeavyTailedLinearData(
      2000, d, ScalarDistribution::Lognormal(0.0, 0.6), w_star, rng);
  const L1Ball ball(d, 1.0);

  SolverSpec spec;
  spec.budget = PrivacyBudget::Approx(1.0, 1e-5);
  Problem problem;
  problem.data = &data;
  problem.constraint = &ball;
  const FitResult result =
      SolverRegistry::Global().Create(kSolverAlg2PrivateLasso)->Fit(
          problem, spec, rng);

  EXPECT_EQ(result.ledger.entries().size(),
            static_cast<std::size_t>(result.iterations));
  // Every step uses the Lemma 2 per-step budget.
  const double per_step = AdvancedCompositionStepEpsilon(
      1.0, 1e-5, result.iterations);
  for (const auto& entry : result.ledger.entries()) {
    EXPECT_NEAR(entry.epsilon, per_step, 1e-12);
    EXPECT_NEAR(entry.delta, 1e-5 / result.iterations, 1e-18);
  }
  // Sequential sums (the ledger uses basic composition, which upper-bounds
  // the advanced-composition accounting the algorithm relies on).
  EXPECT_NEAR(result.ledger.TotalDelta(), 1e-5, 1e-15);
}

TEST(HtPrivateLassoTest, AutoScheduleMatchesSection62) {
  Alg2Schedule schedule;
  ASSERT_TRUE(
      TrySolveAlg2Schedule(10000, PrivacyBudget::Pure(1.0), &schedule).ok());
  EXPECT_EQ(schedule.iterations,
            static_cast<int>(std::ceil(std::pow(10000.0, 0.4))));
  const double expected_k =
      std::pow(10000.0, 0.25) /
      std::pow(static_cast<double>(schedule.iterations), 0.125);
  EXPECT_NEAR(schedule.shrinkage, expected_k, 1e-9);
}

TEST(HtPrivateLassoTest, IterateStaysInPolytope) {
  Rng rng(5);
  const std::size_t d = 12;
  const Vector w_star = MakeL1BallTarget(d, rng);
  const Dataset data = HeavyTailedLinearData(
      3000, d, ScalarDistribution::StudentT(10.0), w_star, rng);
  const L1Ball ball(d, 1.0);
  SolverSpec spec;
  spec.budget = PrivacyBudget::Approx(1.0, 1e-5);
  Problem problem;
  problem.data = &data;
  problem.constraint = &ball;
  const auto result =
      SolverRegistry::Global().Create(kSolverAlg2PrivateLasso)->Fit(
          problem, spec, rng);
  EXPECT_LE(NormL1(result.w), 1.0 + 1e-9);
}

TEST(HtPrivateLassoTest, OriginalDataIsNotModified) {
  Rng rng(7);
  const std::size_t d = 5;
  const Vector w_star = MakeL1BallTarget(d, rng);
  Dataset data = HeavyTailedLinearData(
      500, d, ScalarDistribution::Lognormal(0.0, 1.0), w_star, rng);
  const double before = data.x(3, 2);
  const L1Ball ball(d, 1.0);
  SolverSpec spec;
  spec.budget = PrivacyBudget::Approx(1.0, 1e-5);
  Problem problem;
  problem.data = &data;
  problem.constraint = &ball;
  SolverRegistry::Global().Create(kSolverAlg2PrivateLasso)->Fit(
      problem, spec, rng);
  EXPECT_EQ(data.x(3, 2), before);
}

TEST(HtPrivateLassoTest, ErrorDecreasesWithSampleSize) {
  const std::size_t d = 15;
  const SquaredLoss loss;
  const L1Ball ball(d, 1.0);

  auto average_excess = [&](std::size_t n, std::uint64_t seed) {
    double total = 0.0;
    const int trials = 3;
    Rng rng(seed);
    for (int t = 0; t < trials; ++t) {
      const Vector w_star = MakeL1BallTarget(d, rng);
      const Dataset data = HeavyTailedLinearData(
          n, d, ScalarDistribution::Lognormal(0.0, 0.6), w_star, rng);
      SolverSpec spec;
      spec.budget = PrivacyBudget::Approx(1.0, 1e-5);
      Problem problem;
      problem.data = &data;
      problem.constraint = &ball;
      const auto result =
          SolverRegistry::Global().Create(kSolverAlg2PrivateLasso)->Fit(
              problem, spec, rng);
      total += ExcessEmpiricalRisk(loss, data, result.w, w_star);
    }
    return total / trials;
  };

  EXPECT_LT(average_excess(20000, 2002), average_excess(1200, 2001));
}

TEST(HtPrivateLassoTest, LargeBudgetApproachesNonPrivateSolution) {
  Rng rng(11);
  const std::size_t d = 8;
  const Vector w_star = MakeL1BallTarget(d, rng);
  const Dataset data = HeavyTailedLinearData(
      20000, d, ScalarDistribution::Lognormal(0.0, 0.6), w_star, rng);
  const L1Ball ball(d, 1.0);
  const SquaredLoss loss;

  SolverSpec spec;
  spec.budget = PrivacyBudget::Approx(50.0, 1e-5);
  Problem problem;
  problem.data = &data;
  problem.constraint = &ball;
  const auto result =
      SolverRegistry::Global().Create(kSolverAlg2PrivateLasso)->Fit(
          problem, spec, rng);
  EXPECT_LT(ExcessEmpiricalRisk(loss, data, result.w, w_star), 0.3);
}

TEST(HtPrivateLassoTest, ShrinkageThresholdIsRecorded) {
  Rng rng(13);
  const std::size_t d = 4;
  const Vector w_star = MakeL1BallTarget(d, rng);
  const Dataset data = HeavyTailedLinearData(
      1000, d, ScalarDistribution::Lognormal(0.0, 0.6), w_star, rng);
  const L1Ball ball(d, 1.0);
  SolverSpec spec;
  spec.budget = PrivacyBudget::Approx(1.0, 1e-5);
  spec.iterations = 10;
  spec.shrinkage = 3.5;
  Problem problem;
  problem.data = &data;
  problem.constraint = &ball;
  const auto result =
      SolverRegistry::Global().Create(kSolverAlg2PrivateLasso)->Fit(
          problem, spec, rng);
  EXPECT_EQ(result.iterations, 10);
  EXPECT_NEAR(result.shrinkage_used, 3.5, 1e-15);
}

TEST(HtPrivateLassoTest, DeterministicGivenSeed) {
  Rng data_rng(17);
  const std::size_t d = 6;
  const Vector w_star = MakeL1BallTarget(d, data_rng);
  const Dataset data = HeavyTailedLinearData(
      800, d, ScalarDistribution::StudentT(10.0), w_star, data_rng);
  const L1Ball ball(d, 1.0);
  SolverSpec spec;
  spec.budget = PrivacyBudget::Approx(1.0, 1e-5);
  Rng a(5);
  Rng b(5);
  Problem problem;
  problem.data = &data;
  problem.constraint = &ball;
  const auto result_a =
      SolverRegistry::Global().Create(kSolverAlg2PrivateLasso)->Fit(
          problem, spec, a);
  const auto result_b =
      SolverRegistry::Global().Create(kSolverAlg2PrivateLasso)->Fit(
          problem, spec, b);
  for (std::size_t j = 0; j < d; ++j) {
    EXPECT_EQ(result_a.w[j], result_b.w[j]);
  }
}

}  // namespace
}  // namespace htdp
