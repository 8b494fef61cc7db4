// End-to-end flows exercising the public API the way the examples and the
// figure benches do: data generation -> private training -> evaluation
// against non-private references.

#include <cmath>
#include <cstddef>

#include "core/htdp.h"
#include "gtest/gtest.h"

namespace htdp {
namespace {

TEST(IntegrationTest, QuickstartFlowLinearLognormal) {
  // The Figure 1 pipeline at reduced scale: Algorithm 1 vs non-private FW.
  Rng rng(42);
  const std::size_t n = 8000;
  const std::size_t d = 50;
  SyntheticConfig config;
  config.n = n;
  config.d = d;
  config.feature_dist = ScalarDistribution::Lognormal(0.0, 0.6);
  config.noise_dist = ScalarDistribution::Normal(0.0, 0.1);
  const Vector w_star = MakeL1BallTarget(d, rng);
  const Dataset data = GenerateLinear(config, w_star, rng);

  const SquaredLoss loss;
  const L1Ball ball(d, 1.0);

  SolverSpec private_spec;
  private_spec.budget = PrivacyBudget::Pure(1.0);
  private_spec.tau = EstimateGradientSecondMoment(loss, FullView(data),
                                                  Vector(d, 0.0));
  const FitResult private_result =
      SolverRegistry::Global().Create(kSolverAlg1DpFw)->Fit(
          Problem::ConstrainedErm(loss, data, ball), private_spec, rng);

  FrankWolfeOptions fw_options;
  fw_options.iterations = 100;
  const FrankWolfeResult non_private =
      MinimizeFrankWolfe(loss, data, ball, Vector(d, 0.0), fw_options);

  const double private_excess =
      ExcessEmpiricalRisk(loss, data, private_result.w, w_star);
  const double non_private_excess =
      ExcessEmpiricalRisk(loss, data, non_private.w, w_star);

  // Private pays a cost but stays in a sane band; non-private is better.
  EXPECT_LE(non_private_excess, private_excess + 1e-9);
  EXPECT_LT(private_excess, 1.0);
  EXPECT_NEAR(private_result.ledger.TotalEpsilon(), 1.0, 1e-12);
}

TEST(IntegrationTest, PrivacyCostShrinksWithMoreBudget) {
  Rng rng(43);
  const std::size_t d = 30;
  SyntheticConfig config;
  config.n = 10000;
  config.d = d;
  config.feature_dist = ScalarDistribution::Lognormal(0.0, 0.6);
  const Vector w_star = MakeL1BallTarget(d, rng);
  const Dataset data = GenerateLinear(config, w_star, rng);
  const SquaredLoss loss;
  const L1Ball ball(d, 1.0);

  auto average_excess = [&](double epsilon) {
    double total = 0.0;
    const int trials = 4;
    Rng trial_rng(1000 + static_cast<std::uint64_t>(epsilon * 8));
    for (int t = 0; t < trials; ++t) {
      SolverSpec spec;
      spec.budget = PrivacyBudget::Pure(epsilon);
      spec.tau = 4.0;
      const auto result =
          SolverRegistry::Global().Create(kSolverAlg1DpFw)->Fit(
              Problem::ConstrainedErm(loss, data, ball), spec, trial_rng);
      total += ExcessEmpiricalRisk(loss, data, result.w, w_star);
    }
    return total / trials;
  };

  // eps = 8 should comfortably beat eps = 0.125 on average.
  EXPECT_LT(average_excess(8.0), average_excess(0.125));
}

TEST(IntegrationTest, SparsePipelineAlgorithm3VersusIht) {
  Rng rng(44);
  const std::size_t n = 20000;
  const std::size_t d = 100;
  const std::size_t s_star = 5;
  Vector w_star = MakeSparseTarget(d, s_star, rng);
  Scale(0.5, w_star);
  SyntheticConfig config;
  config.n = n;
  config.d = d;
  config.feature_dist = ScalarDistribution::Normal(0.0, 1.0);
  config.noise_dist = ScalarDistribution::Lognormal(0.0, 0.5);
  Dataset data = GenerateLinear(config, w_star, rng);
  // Center the lognormal noise so the linear model is unbiased.
  const double noise_mean = std::exp(0.5 * 0.25);
  for (double& y : data.y) y -= noise_mean;

  SolverSpec spec;
  spec.budget = PrivacyBudget::Approx(2.0, 1e-5);
  Problem problem;
  problem.data = &data;
  problem.target_sparsity = s_star;
  const auto private_result =
      SolverRegistry::Global().Create(kSolverAlg3SparseLinReg)->Fit(
          problem, spec, rng);

  const SquaredLoss loss;
  IhtOptions iht_options;
  iht_options.iterations = 60;
  iht_options.step = 0.3;
  iht_options.sparsity = s_star;
  iht_options.l2_ball_radius = 1.0;
  const Vector iht_w = MinimizeIht(loss, data, Vector(d, 0.0), iht_options);

  const double private_error = EstimationError(private_result.w, w_star);
  const double iht_error = EstimationError(iht_w, w_star);
  EXPECT_LE(iht_error, private_error + 1e-9);
  EXPECT_LT(private_error, 2.0 * NormL2(w_star) + 0.5);
}

TEST(IntegrationTest, Algorithm5OnRegularizedLogisticStaysNearBaseline) {
  // End-to-end Figure 10 pipeline at a gentle scale. The Peeling noise is
  // proportional to the truncation scale k, so at laptop-scale n the private
  // iterate hovers around the zero-vector baseline rather than beating it
  // decisively (the paper makes the matching observation that sparsity
  // dominates the error); assert it lands in a calibrated band and keeps
  // the sparsity/budget contracts.
  Rng rng(45);
  const std::size_t n = 20000;
  const std::size_t d = 50;
  const std::size_t s_star = 5;
  const Vector w_star = MakeSparseTarget(d, s_star, rng);
  SyntheticConfig config;
  config.n = n;
  config.d = d;
  config.feature_dist = ScalarDistribution::Normal(0.0, 1.0);
  config.noise_dist = ScalarDistribution::Logistic(0.0, 0.5);
  const Dataset data = GenerateLogistic(config, w_star, rng);
  const LogisticLoss loss(0.01);

  SolverSpec spec;
  spec.budget = PrivacyBudget::Approx(10.0, 1e-5);
  spec.tau = 1.0;
  const auto result =
      SolverRegistry::Global().Create(kSolverAlg5SparseOpt)->Fit(
          Problem::SparseErm(loss, data, s_star), spec, rng);

  EXPECT_LT(EmpiricalRisk(loss, data, result.w),
            EmpiricalRisk(loss, data, Vector(d, 0.0)) + 0.25);
  EXPECT_LE(NormL0(result.w), 2 * s_star);
  EXPECT_NEAR(result.ledger.TotalEpsilon(), 10.0, 1e-12);
}

TEST(IntegrationTest, RealWorldSimPipelineMatchesPaperProtocol) {
  // Figure 3 protocol: fixed (simulated) dataset, w* from non-private FW,
  // error of Algorithm 1 on a prefix.
  Rng rng(46);
  const Dataset full = SimulateRealWorld(BlogFeedbackSpec(), 6000, rng);
  const std::size_t d = full.dim();
  const SquaredLoss loss;
  const L1Ball ball(d, 1.0);

  FrankWolfeOptions fw_options;
  fw_options.iterations = 60;
  const Vector w_ref =
      MinimizeFrankWolfe(loss, full, ball, Vector(d, 0.0), fw_options).w;

  const Dataset subset = Prefix(full, 4000);
  SolverSpec spec;
  spec.budget = PrivacyBudget::Pure(2.0);
  spec.tau = EstimateGradientSecondMoment(loss, FullView(subset),
                                          Vector(d, 0.0));
  const auto result =
      SolverRegistry::Global().Create(kSolverAlg1DpFw)->Fit(
          Problem::ConstrainedErm(loss, subset, ball), spec, rng);
  const double excess = EmpiricalRisk(loss, full, result.w) -
                        EmpiricalRisk(loss, full, w_ref);
  EXPECT_GT(excess, -0.05);  // w_ref is (near-)optimal on the full data
  EXPECT_TRUE(std::isfinite(excess));
}

TEST(IntegrationTest, MinimaxInstanceErrorExceedsLowerBoundForDpAlgorithm) {
  // Run Algorithm 5 (an (eps, delta)-DP algorithm) on the Theorem 9 hard
  // instance and confirm the measured excess risk respects the bound's
  // order: measured >= c * LowerBound for a small constant. This is a sanity
  // check of the construction, not a proof.
  Rng rng(47);
  const std::size_t d = 64;
  const std::size_t s_star = 4;
  const std::size_t n = 4000;
  const double epsilon = 0.5;
  const double delta = 1e-5;
  const double tau = 1.0;
  const SparseMeanHardFamily family(d, s_star, 8, tau, epsilon, delta, n,
                                    rng);
  const std::size_t v = 0;
  const Vector theta = family.Mean(v);
  const Dataset data = family.Sample(v, n, rng);

  const MeanLoss loss;
  SolverSpec spec;
  spec.budget = PrivacyBudget::Approx(epsilon, delta);
  spec.tau = tau;
  spec.step = 0.25;
  const auto result =
      SolverRegistry::Global().Create(kSolverAlg5SparseOpt)->Fit(
          Problem::SparseErm(loss, data, s_star), spec, rng);
  const double risk = NormL2Squared(Sub(result.w, theta));
  const double bound =
      SparseMeanHardFamily::LowerBound(n, d, s_star, epsilon, delta, tau);
  EXPECT_GT(risk, 0.01 * bound);
}

}  // namespace
}  // namespace htdp
