#include <cmath>
#include <cstddef>

#include "api/api.h"
#include "core/hyperparams.h"
#include "data/synthetic.h"
#include "gtest/gtest.h"
#include "losses/biweight_loss.h"
#include "losses/logistic_loss.h"
#include "losses/squared_loss.h"
#include "optim/polytope.h"
#include "rng/rng.h"

namespace htdp {
namespace {

Dataset LognormalLinearData(std::size_t n, std::size_t d,
                            const Vector& w_star, Rng& rng) {
  SyntheticConfig config;
  config.n = n;
  config.d = d;
  config.feature_dist = ScalarDistribution::Lognormal(0.0, 0.6);
  config.noise_dist = ScalarDistribution::Normal(0.0, 0.1);
  return GenerateLinear(config, w_star, rng);
}

TEST(HtDpFwTest, SpendsExactlyEpsilonViaParallelComposition) {
  Rng rng(3);
  const std::size_t d = 8;
  const Vector w_star = MakeL1BallTarget(d, rng);
  const Dataset data = LognormalLinearData(2000, d, w_star, rng);
  const L1Ball ball(d, 1.0);
  const SquaredLoss loss;

  SolverSpec spec;
  spec.budget = PrivacyBudget::Pure(0.8);
  spec.tau = 4.0;
  const FitResult result =
      SolverRegistry::Global().Create(kSolverAlg1DpFw)->Fit(
          Problem::ConstrainedErm(loss, data, ball), spec, rng);

  // One exponential-mechanism call per disjoint fold, each epsilon-DP.
  EXPECT_EQ(result.ledger.entries().size(),
            static_cast<std::size_t>(result.iterations));
  EXPECT_NEAR(result.ledger.TotalEpsilon(), 0.8, 1e-12);
  EXPECT_NEAR(result.ledger.TotalDelta(), 0.0, 1e-18);
}

TEST(HtDpFwTest, AutoScheduleMatchesSection62) {
  // T = floor((n eps)^(1/3)).
  Alg1Schedule schedule;
  ASSERT_TRUE(TrySolveAlg1Schedule(10000, 200, PrivacyBudget::Pure(1.0), 1.0,
                                   400, 0.1, &schedule)
                  .ok());
  EXPECT_EQ(schedule.iterations,
            static_cast<int>(std::floor(std::cbrt(10000.0))));
  EXPECT_GT(schedule.scale, 0.0);
}

TEST(HtDpFwTest, IterateStaysInPolytope) {
  Rng rng(5);
  const std::size_t d = 10;
  const Vector w_star = MakeL1BallTarget(d, rng);
  const Dataset data = LognormalLinearData(3000, d, w_star, rng);
  const L1Ball ball(d, 1.0);
  const SquaredLoss loss;
  SolverSpec spec;
  spec.budget = PrivacyBudget::Pure(1.0);
  spec.tau = 4.0;
  const auto result =
      SolverRegistry::Global().Create(kSolverAlg1DpFw)->Fit(
          Problem::ConstrainedErm(loss, data, ball), spec, rng);
  EXPECT_LE(NormL1(result.w), 1.0 + 1e-9);
}

TEST(HtDpFwTest, DeterministicGivenSeed) {
  Rng data_rng(7);
  const std::size_t d = 6;
  const Vector w_star = MakeL1BallTarget(d, data_rng);
  const Dataset data = LognormalLinearData(1000, d, w_star, data_rng);
  const L1Ball ball(d, 1.0);
  const SquaredLoss loss;
  SolverSpec spec;
  spec.budget = PrivacyBudget::Pure(1.0);
  spec.tau = 4.0;

  Rng rng_a(99);
  Rng rng_b(99);
  const auto result_a =
      SolverRegistry::Global().Create(kSolverAlg1DpFw)->Fit(
          Problem::ConstrainedErm(loss, data, ball), spec, rng_a);
  const auto result_b =
      SolverRegistry::Global().Create(kSolverAlg1DpFw)->Fit(
          Problem::ConstrainedErm(loss, data, ball), spec, rng_b);
  for (std::size_t j = 0; j < d; ++j) {
    EXPECT_EQ(result_a.w[j], result_b.w[j]);
  }
}

TEST(HtDpFwTest, ErrorDecreasesWithSampleSize) {
  // Average excess risk over several trials at n=1500 vs n=24000 must
  // improve. (Coarse shape check; the paper's Figure 1(b).)
  const std::size_t d = 20;
  const SquaredLoss loss;
  const L1Ball ball(d, 1.0);

  auto average_excess = [&](std::size_t n, std::uint64_t seed) {
    double total = 0.0;
    const int trials = 3;
    Rng rng(seed);
    for (int t = 0; t < trials; ++t) {
      const Vector w_star = MakeL1BallTarget(d, rng);
      const Dataset data = LognormalLinearData(n, d, w_star, rng);
      SolverSpec spec;
      spec.budget = PrivacyBudget::Pure(1.0);
      spec.tau = 4.0;
      const auto result =
          SolverRegistry::Global().Create(kSolverAlg1DpFw)->Fit(
              Problem::ConstrainedErm(loss, data, ball), spec, rng);
      total += ExcessEmpiricalRisk(loss, data, result.w, w_star);
    }
    return total / trials;
  };

  const double small_n = average_excess(1500, 1001);
  const double large_n = average_excess(24000, 1002);
  EXPECT_LT(large_n, small_n);
}

TEST(HtDpFwTest, CloseToNonPrivateForLargeBudget) {
  Rng rng(11);
  const std::size_t d = 10;
  const Vector w_star = MakeL1BallTarget(d, rng);
  const Dataset data = LognormalLinearData(20000, d, w_star, rng);
  const L1Ball ball(d, 1.0);
  const SquaredLoss loss;

  SolverSpec spec;
  spec.budget = PrivacyBudget::Pure(50.0);  // effectively non-private
  spec.tau = 4.0;
  const auto result =
      SolverRegistry::Global().Create(kSolverAlg1DpFw)->Fit(
          Problem::ConstrainedErm(loss, data, ball), spec, rng);
  const double excess = ExcessEmpiricalRisk(loss, data, result.w, w_star);
  EXPECT_LT(excess, 0.25);
}

TEST(HtDpFwTest, WorksWithLogisticLoss) {
  Rng rng(13);
  const std::size_t d = 8;
  const Vector w_star = MakeL1BallTarget(d, rng);
  SyntheticConfig config;
  config.n = 4000;
  config.d = d;
  config.feature_dist = ScalarDistribution::Lognormal(0.0, 0.6);
  config.noise_dist = ScalarDistribution::None();
  const Dataset data = GenerateLogistic(config, w_star, rng);
  const L1Ball ball(d, 1.0);
  const LogisticLoss loss;

  SolverSpec spec;
  spec.budget = PrivacyBudget::Pure(1.0);
  spec.tau = 4.0;
  const auto result =
      SolverRegistry::Global().Create(kSolverAlg1DpFw)->Fit(
          Problem::ConstrainedErm(loss, data, ball), spec, rng);
  EXPECT_LE(NormL1(result.w), 1.0 + 1e-9);
  // Should do no worse than the w=0 predictor by a wide margin allowance.
  EXPECT_LT(EmpiricalRisk(loss, data, result.w),
            EmpiricalRisk(loss, data, Vector(d, 0.0)) + 0.05);
}

TEST(HtDpFwTest, RobustRegressionVariantRuns) {
  // Theorem 3 configuration: biweight loss, fixed step 1/sqrt(T).
  Rng rng(17);
  const std::size_t d = 6;
  const Vector w_star = MakeL1BallTarget(d, rng);
  SyntheticConfig config;
  config.n = 3000;
  config.d = d;
  config.feature_dist = ScalarDistribution::Normal(0.0, 1.0);
  config.noise_dist = ScalarDistribution::StudentT(3.0);  // symmetric noise
  const Dataset data = GenerateLinear(config, w_star, rng);
  const L1Ball ball(d, 1.0);
  const BiweightLoss loss(1.0);

  Alg1RobustSchedule schedule;
  ASSERT_TRUE(TrySolveAlg1RobustSchedule(config.n, d, PrivacyBudget::Pure(1.0),
                                         0.1, &schedule)
                  .ok());
  SolverSpec spec;
  spec.budget = PrivacyBudget::Pure(1.0);
  spec.iterations = schedule.iterations;
  spec.scale = schedule.scale;
  spec.diminishing_step = false;
  spec.fixed_step = schedule.step;
  const auto result =
      SolverRegistry::Global().Create(kSolverAlg1DpFw)->Fit(
          Problem::ConstrainedErm(loss, data, ball), spec, rng);
  EXPECT_LE(NormL1(result.w), 1.0 + 1e-9);
  EXPECT_NEAR(result.ledger.TotalEpsilon(), 1.0, 1e-12);
}

TEST(HtDpFwTest, RiskTraceRecordsWhenRequested) {
  Rng rng(19);
  const std::size_t d = 5;
  const Vector w_star = MakeL1BallTarget(d, rng);
  const Dataset data = LognormalLinearData(1000, d, w_star, rng);
  const L1Ball ball(d, 1.0);
  const SquaredLoss loss;
  SolverSpec spec;
  spec.budget = PrivacyBudget::Pure(1.0);
  spec.tau = 4.0;
  spec.record_risk_trace = true;
  const auto result =
      SolverRegistry::Global().Create(kSolverAlg1DpFw)->Fit(
          Problem::ConstrainedErm(loss, data, ball), spec, rng);
  EXPECT_EQ(result.risk_trace.size(),
            static_cast<std::size_t>(result.iterations));
}

TEST(HtDpFwTest, RunsOverProbabilitySimplex) {
  // Section 4 mentions minimization over the probability simplex as another
  // polytope instance; the iterate must remain a probability vector.
  Rng rng(29);
  const std::size_t d = 10;
  // Target on the simplex.
  Vector w_star(d, 0.0);
  w_star[2] = 0.7;
  w_star[5] = 0.3;
  SyntheticConfig config;
  config.n = 3000;
  config.d = d;
  config.feature_dist = ScalarDistribution::Lognormal(0.0, 0.6);
  config.noise_dist = ScalarDistribution::Normal(0.0, 0.1);
  const Dataset data = GenerateLinear(config, w_star, rng);
  const SquaredLoss loss;
  const ProbabilitySimplex simplex(d);

  SolverSpec spec;
  spec.budget = PrivacyBudget::Pure(1.0);
  spec.tau = 4.0;
  Problem problem = Problem::ConstrainedErm(loss, data, simplex);
  problem.w0 = Vector(d, 1.0 / static_cast<double>(d));  // uniform start
  const auto result =
      SolverRegistry::Global().Create(kSolverAlg1DpFw)->Fit(problem, spec,
                                                            rng);

  double total = 0.0;
  for (double v : result.w) {
    EXPECT_GE(v, -1e-12);
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_NEAR(result.ledger.TotalEpsilon(), 1.0, 1e-12);
}

TEST(HtDpFwTest, ExplicitOverridesRespected) {
  Rng rng(23);
  const std::size_t d = 4;
  const Vector w_star = MakeL1BallTarget(d, rng);
  const Dataset data = LognormalLinearData(600, d, w_star, rng);
  const L1Ball ball(d, 1.0);
  const SquaredLoss loss;
  SolverSpec spec;
  spec.budget = PrivacyBudget::Pure(1.0);
  spec.iterations = 5;
  spec.scale = 2.5;
  const auto result =
      SolverRegistry::Global().Create(kSolverAlg1DpFw)->Fit(
          Problem::ConstrainedErm(loss, data, ball), spec, rng);
  EXPECT_EQ(result.iterations, 5);
  EXPECT_NEAR(result.scale_used, 2.5, 1e-15);
}

}  // namespace
}  // namespace htdp
