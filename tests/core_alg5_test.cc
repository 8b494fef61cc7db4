#include <cmath>
#include <cstddef>

#include "api/api.h"
#include "core/hyperparams.h"
#include "data/synthetic.h"
#include "gtest/gtest.h"
#include "linalg/sparse_ops.h"
#include "losses/logistic_loss.h"
#include "losses/mean_loss.h"
#include "rng/rng.h"
#include "stats/metrics.h"

namespace htdp {
namespace {

// Figure 10 configuration: regularized logistic regression, x ~ N(0, 5),
// logistic(0, 0.5) noise in the latent signal.
Dataset SparseLogisticData(std::size_t n, std::size_t d, const Vector& w_star,
                           Rng& rng) {
  SyntheticConfig config;
  config.n = n;
  config.d = d;
  config.feature_dist = ScalarDistribution::Normal(0.0, 5.0);
  config.noise_dist = ScalarDistribution::Logistic(0.0, 0.5);
  return GenerateLogistic(config, w_star, rng);
}

TEST(HtSparseOptTest, OutputSparsityAndLedger) {
  Rng rng(3);
  const std::size_t d = 80;
  const std::size_t s_star = 5;
  const Vector w_star = MakeSparseTarget(d, s_star, rng);
  const Dataset data = SparseLogisticData(4000, d, w_star, rng);
  const LogisticLoss loss(0.01);

  SolverSpec spec;
  spec.budget = PrivacyBudget::Approx(1.0, 1e-5);
  spec.tau = 25.0;  // E x_j^2 = 25 under N(0,5) features
  const FitResult result =
      SolverRegistry::Global().Create(kSolverAlg5SparseOpt)->Fit(
          Problem::SparseErm(loss, data, s_star), spec, rng);

  EXPECT_EQ(result.sparsity_used, 2 * s_star);
  EXPECT_LE(NormL0(result.w), result.sparsity_used);
  EXPECT_EQ(result.ledger.entries().size(),
            static_cast<std::size_t>(result.iterations));
  EXPECT_NEAR(result.ledger.TotalEpsilon(), 1.0, 1e-12);
  EXPECT_NEAR(result.ledger.TotalDelta(), 1e-5, 1e-15);
}

TEST(HtSparseOptTest, AutoScheduleMatchesTheorem8) {
  Alg5Schedule schedule;
  ASSERT_TRUE(TrySolveAlg5Schedule(8000, 100, PrivacyBudget::Pure(1.0), 1.0,
                                   20, 0.1, &schedule)
                  .ok());
  EXPECT_EQ(schedule.iterations,
            static_cast<int>(std::floor(std::log(8000.0))));
  EXPECT_EQ(schedule.sparsity, 40u);
  EXPECT_GT(schedule.scale, 0.0);
  // k ~ sqrt(n eps tau / (s T)) up to the log factor.
  const double rough = std::sqrt(
      8000.0 / (40.0 * schedule.iterations));
  EXPECT_LT(schedule.scale, rough);
  EXPECT_GT(schedule.scale, rough / 3.0);
}

TEST(HtSparseOptTest, SparseMeanEstimationImprovesWithBudget) {
  // Mean-estimation instance of Assumption 4: heavy-tailed coordinates with
  // a sparse mean.
  const std::size_t d = 60;
  const std::size_t s_star = 4;

  auto run_error = [&](double epsilon, std::uint64_t seed) {
    Rng rng(seed);
    Vector mu(d, 0.0);
    for (std::size_t j = 0; j < s_star; ++j) mu[j] = 0.5;
    Dataset data;
    const std::size_t n = 6000;
    data.x = Matrix(n, d);
    data.y.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < d; ++j) {
        data.x(i, j) = mu[j] + SampleStudentT(rng, 4.0);
      }
    }
    const MeanLoss loss;
    SolverSpec spec;
    spec.budget = PrivacyBudget::Approx(epsilon, 1e-5);
    spec.tau = 10.0;
    spec.step = 0.25;  // mean loss has curvature 2
    double total = 0.0;
    const int trials = 3;
    for (int t = 0; t < trials; ++t) {
      Rng run_rng = rng.Fork();
      const auto result =
          SolverRegistry::Global().Create(kSolverAlg5SparseOpt)->Fit(
              Problem::SparseErm(loss, data, s_star), spec, run_rng);
      total += NormL2Squared(Sub(result.w, mu));
    }
    return total / trials;
  };

  const double low_eps = run_error(0.1, 4001);
  const double high_eps = run_error(10.0, 4001);
  EXPECT_LT(high_eps, low_eps);
}

TEST(HtSparseOptTest, LargeBudgetRecoversSparseMean) {
  Rng rng(7);
  const std::size_t d = 40;
  Vector mu(d, 0.0);
  mu[3] = 1.0;
  mu[17] = -0.8;
  Dataset data;
  const std::size_t n = 20000;
  data.x = Matrix(n, d);
  data.y.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      data.x(i, j) = mu[j] + SampleLaplace(rng, 0.5);
    }
  }
  const MeanLoss loss;
  SolverSpec spec;
  spec.budget = PrivacyBudget::Approx(20.0, 1e-5);
  spec.tau = 2.0;
  spec.step = 0.25;
  const auto result =
      SolverRegistry::Global().Create(kSolverAlg5SparseOpt)->Fit(
          Problem::SparseErm(loss, data, 2), spec, rng);
  EXPECT_LT(DistanceL2(result.w, mu), 0.35);
}

TEST(HtSparseOptTest, RegularizedLogisticRunsAtFigure10Scale) {
  Rng rng(11);
  const std::size_t d = 100;
  const std::size_t s_star = 10;
  const Vector w_star = MakeSparseTarget(d, s_star, rng);
  const Dataset data = SparseLogisticData(8000, d, w_star, rng);
  const LogisticLoss loss(0.01);

  SolverSpec spec;
  spec.budget = PrivacyBudget::Approx(1.0, std::pow(8000.0, -1.1));
  spec.tau = 25.0;
  const auto result =
      SolverRegistry::Global().Create(kSolverAlg5SparseOpt)->Fit(
          Problem::SparseErm(loss, data, s_star), spec, rng);
  EXPECT_TRUE(std::isfinite(NormL2(result.w)));
  EXPECT_LE(NormL0(result.w), 2 * s_star);
}

TEST(HtSparseOptTest, ExplicitOverridesRespected) {
  Rng rng(13);
  const std::size_t d = 20;
  const Vector w_star = MakeSparseTarget(d, 2, rng);
  const Dataset data = SparseLogisticData(500, d, w_star, rng);
  const LogisticLoss loss;
  SolverSpec spec;
  spec.budget = PrivacyBudget::Approx(1.0, 1e-5);
  spec.iterations = 3;
  spec.sparsity = 6;
  spec.scale = 4.0;
  const auto result =
      SolverRegistry::Global().Create(kSolverAlg5SparseOpt)->Fit(
          Problem::SparseErm(loss, data, 0), spec, rng);
  EXPECT_EQ(result.iterations, 3);
  EXPECT_EQ(result.sparsity_used, 6u);
  EXPECT_NEAR(result.scale_used, 4.0, 1e-15);
}

TEST(HtSparseOptTest, DeterministicGivenSeed) {
  Rng data_rng(17);
  const std::size_t d = 15;
  const Vector w_star = MakeSparseTarget(d, 3, data_rng);
  const Dataset data = SparseLogisticData(600, d, w_star, data_rng);
  const LogisticLoss loss(0.05);
  SolverSpec spec;
  spec.budget = PrivacyBudget::Approx(1.0, 1e-5);
  Rng a(77);
  Rng b(77);
  const auto result_a =
      SolverRegistry::Global().Create(kSolverAlg5SparseOpt)->Fit(
          Problem::SparseErm(loss, data, 3), spec, a);
  const auto result_b =
      SolverRegistry::Global().Create(kSolverAlg5SparseOpt)->Fit(
          Problem::SparseErm(loss, data, 3), spec, b);
  for (std::size_t j = 0; j < d; ++j) {
    EXPECT_EQ(result_a.w[j], result_b.w[j]);
  }
}

}  // namespace
}  // namespace htdp
