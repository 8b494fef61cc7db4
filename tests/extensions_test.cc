// Tests for the extension modules: Gaussian mechanism, the [WXDX20]-style
// robust-GD baseline, median-of-means, clipped/truncated means, Huber loss.

#include <cmath>
#include <cstddef>
#include <memory>

#include "api/api.h"
#include "data/synthetic.h"
#include "dp/gaussian_mechanism.h"
#include "gtest/gtest.h"
#include "losses/huber_loss.h"
#include "losses/squared_loss.h"
#include "robust/median_of_means.h"
#include "robust/trimmed_mean.h"
#include "rng/distributions.h"
#include "rng/rng.h"

namespace htdp {
namespace {

TEST(GaussianMechanismTest, SigmaFormula) {
  const GaussianMechanism mechanism(2.0, 0.5, 1e-5);
  const double expected = 2.0 * std::sqrt(2.0 * std::log(1.25e5)) / 0.5;
  EXPECT_NEAR(mechanism.sigma(), expected, 1e-12);
}

TEST(GaussianMechanismTest, NoiseMomentsMatchSigma) {
  const GaussianMechanism mechanism(1.0, 1.0, 1e-5);
  Rng rng(3);
  const std::size_t n = 200000;
  double mean = 0.0;
  double second = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double noise = mechanism.Privatize(0.0, rng);
    mean += noise;
    second += noise * noise;
  }
  mean /= static_cast<double>(n);
  second /= static_cast<double>(n);
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(second, mechanism.sigma() * mechanism.sigma(),
              0.02 * mechanism.sigma() * mechanism.sigma());
}

TEST(GaussianMechanismTest, VectorPrivatizeTouchesEveryCoordinate) {
  const GaussianMechanism mechanism(1.0, 1.0, 1e-5);
  Rng rng(5);
  Vector value(32, 0.0);
  mechanism.PrivatizeInPlace(value, rng);
  for (double v : value) EXPECT_NE(v, 0.0);
}

TEST(GaussianMechanismTest, FilledVariantMatchesFillNormalStream) {
  const GaussianMechanism mechanism(1.0, 1.0, 1e-5);
  Rng rng(9);
  Vector value(17, 0.25);
  Vector scratch;
  mechanism.PrivatizeInPlaceFilled(value, scratch, rng);

  Rng ref_rng(9);
  Vector noise(17);
  FillNormal(ref_rng, noise.data(), noise.size());
  for (std::size_t j = 0; j < value.size(); ++j) {
    EXPECT_EQ(value[j], 0.25 + mechanism.sigma() * noise[j]) << "j=" << j;
  }
}

TEST(BaselineSolverTest, VectorNoiseFillFlagGatesTheStreamChange) {
  Rng data_rng(13);
  SyntheticConfig config;
  config.n = 1200;
  config.d = 16;
  config.feature_dist = ScalarDistribution::Lognormal(0.0, 0.6);
  const Vector w_star = MakeL1BallTarget(config.d, data_rng);
  const Dataset data = GenerateLinear(config, w_star, data_rng);
  const SquaredLoss loss;
  Problem problem;
  problem.loss = &loss;
  problem.data = &data;

  SolverSpec spec;
  spec.budget = PrivacyBudget::Approx(1.0, 1e-5);
  spec.tau = 4.0;
  spec.iterations = 4;
  spec.scale = 2.0;

  const std::unique_ptr<Solver> solver =
      SolverRegistry::Global().Create(kSolverBaselineRobustGd);

  // Default off: two runs agree bit for bit (pinned-seed contract).
  Rng rng_a(55);
  Rng rng_b(55);
  const FitResult off_a = solver->Fit(problem, spec, rng_a);
  const FitResult off_b = solver->Fit(problem, spec, rng_b);
  for (std::size_t j = 0; j < off_a.w.size(); ++j) {
    ASSERT_EQ(off_a.w[j], off_b.w[j]);
  }

  // On: deterministic per seed, but a different stream than the default.
  SolverSpec filled = spec;
  filled.vector_noise_fill = true;
  Rng rng_c(55);
  Rng rng_d(55);
  const FitResult on_a = solver->Fit(problem, filled, rng_c);
  const FitResult on_b = solver->Fit(problem, filled, rng_d);
  bool any_difference = false;
  for (std::size_t j = 0; j < on_a.w.size(); ++j) {
    ASSERT_EQ(on_a.w[j], on_b.w[j]);
    if (on_a.w[j] != off_a.w[j]) any_difference = true;
  }
  EXPECT_TRUE(any_difference)
      << "vector_noise_fill=true should change the noise stream";
}

TEST(DpRobustGdTest, SpendsEpsilonPerFoldInParallel) {
  Rng rng(7);
  SyntheticConfig config;
  config.n = 4000;
  config.d = 20;
  config.feature_dist = ScalarDistribution::Lognormal(0.0, 0.6);
  const Vector w_star = MakeL1BallTarget(config.d, rng);
  const Dataset data = GenerateLinear(config, w_star, rng);
  const SquaredLoss loss;

  SolverSpec spec;
  spec.budget = PrivacyBudget::Approx(1.0, 1e-5);
  spec.tau = 4.0;
  Problem problem;
  problem.loss = &loss;
  problem.data = &data;
  const auto result =
      SolverRegistry::Global().Create(kSolverBaselineRobustGd)->Fit(
          problem, spec, rng);
  EXPECT_EQ(result.ledger.entries().size(),
            static_cast<std::size_t>(result.iterations));
  EXPECT_NEAR(result.ledger.TotalEpsilon(), 1.0, 1e-12);
  EXPECT_NEAR(result.ledger.TotalDelta(), 1e-5, 1e-15);
  EXPECT_LE(NormL1(result.w), 1.0 + 1e-9);
}

TEST(DpRobustGdTest, NoiseGrowsWithDimensionRelativeToAlg1) {
  // The l2 sensitivity handed to the Gaussian mechanism must scale as
  // sqrt(d) times the coordinate-wise bound.
  Rng rng(11);
  for (const std::size_t d : {16u, 256u}) {
    SyntheticConfig config;
    config.n = 2000;
    config.d = d;
    config.feature_dist = ScalarDistribution::Normal(0.0, 1.0);
    const Vector w_star = MakeL1BallTarget(d, rng);
    const Dataset data = GenerateLinear(config, w_star, rng);
    const SquaredLoss loss;
    SolverSpec spec;
    spec.budget = PrivacyBudget::Approx(1.0, 1e-5);
    spec.iterations = 4;
    spec.scale = 2.0;
    Problem problem;
    problem.loss = &loss;
    problem.data = &data;
    const auto result =
        SolverRegistry::Global().Create(kSolverBaselineRobustGd)->Fit(
            problem, spec, rng);
    const double per_coord =
        4.0 * std::sqrt(2.0) * 2.0 / (3.0 * (data.size() / 4.0));
    EXPECT_NEAR(result.ledger.entries()[0].sensitivity,
                std::sqrt(static_cast<double>(d)) * per_coord, 1e-9)
        << "d=" << d;
  }
}

TEST(MedianOfMeansTest, SingleBlockIsMean) {
  const Vector values = {1.0, 2.0, 3.0, 4.0};
  EXPECT_NEAR(MedianOfMeans(values, 1), 2.5, 1e-12);
}

TEST(MedianOfMeansTest, ResistsSingleOutlier) {
  Rng rng(13);
  const std::size_t n = 1000;
  Vector values(n);
  for (double& v : values) v = SampleNormal(rng, 1.0, 1.0);
  values[17] = 1e9;
  const double estimate = MedianOfMeans(values, 20);
  EXPECT_NEAR(estimate, 1.0, 0.3);
}

TEST(MedianOfMeansTest, ConcentratesUnderHeavyTails) {
  Rng rng(17);
  const std::size_t n = 20000;
  Vector values(n);
  for (double& v : values) v = SampleStudentT(rng, 2.5);
  const double estimate =
      MedianOfMeans(values, MomBlocksForConfidence(n, 0.05));
  EXPECT_NEAR(estimate, 0.0, 0.1);
}

TEST(MedianOfMeansTest, BlockCountFormula) {
  EXPECT_EQ(MomBlocksForConfidence(1000, 0.05),
            static_cast<std::size_t>(std::ceil(8.0 * std::log(20.0))));
  // Capped at n.
  EXPECT_EQ(MomBlocksForConfidence(3, 1e-9), 3u);
}

TEST(TrimmedMeanTest, ClippedMeanSaturates) {
  const Vector values = {10.0, -10.0, 0.5};
  EXPECT_NEAR(ClippedMean(values, 1.0), 0.5 / 3.0, 1e-12);
}

TEST(TrimmedMeanTest, TruncatedMeanDiscards) {
  const Vector values = {10.0, -10.0, 0.5, 1.5};
  // Only 0.5 and 1.5 survive the threshold 2.
  EXPECT_NEAR(TruncatedMean(values, 2.0), 1.0, 1e-12);
}

TEST(TrimmedMeanTest, TruncatedMeanAllDiscardedReturnsZero) {
  const Vector values = {10.0, -10.0};
  EXPECT_EQ(TruncatedMean(values, 1.0), 0.0);
}

TEST(TrimmedMeanTest, LargeThresholdRecoversEmpiricalMean) {
  Rng rng(19);
  Vector values(500);
  double mean = 0.0;
  for (double& v : values) {
    v = SampleNormal(rng, 2.0, 1.0);
    mean += v;
  }
  mean /= 500.0;
  EXPECT_NEAR(ClippedMean(values, 1e9), mean, 1e-12);
  EXPECT_NEAR(TruncatedMean(values, 1e9), mean, 1e-12);
}

TEST(HuberLossTest, PiecewiseDefinition) {
  const HuberLoss loss(1.5);
  EXPECT_NEAR(loss.H(1.0), 0.5, 1e-15);
  EXPECT_NEAR(loss.H(3.0), 1.5 * 3.0 - 0.5 * 2.25, 1e-15);
  EXPECT_NEAR(loss.H(-3.0), loss.H(3.0), 1e-15);
  EXPECT_NEAR(loss.HPrime(0.7), 0.7, 1e-15);
  EXPECT_NEAR(loss.HPrime(10.0), 1.5, 1e-15);
  EXPECT_NEAR(loss.HPrime(-10.0), -1.5, 1e-15);
}

TEST(HuberLossTest, GradientMatchesNumerical) {
  const HuberLoss loss(1.0);
  Rng rng(23);
  const std::size_t d = 5;
  for (int trial = 0; trial < 10; ++trial) {
    Vector x(d);
    for (double& v : x) v = rng.Uniform(-2.0, 2.0);
    const double y = rng.Uniform(-2.0, 2.0);
    Vector w(d);
    for (double& v : w) v = rng.Uniform(-1.0, 1.0);
    Vector grad;
    loss.Gradient(x.data(), y, w, grad);
    const double h = 1e-6;
    Vector probe = w;
    for (std::size_t j = 0; j < d; ++j) {
      probe[j] = w[j] + h;
      const double plus = loss.Value(x.data(), y, probe);
      probe[j] = w[j] - h;
      const double minus = loss.Value(x.data(), y, probe);
      probe[j] = w[j];
      EXPECT_NEAR(grad[j], (plus - minus) / (2.0 * h), 1e-5);
    }
  }
}

TEST(HuberLossTest, BoundedGradientScaleUnderHeavyResiduals) {
  // |h'| <= c: the GLM scale is bounded regardless of the residual, which
  // is what makes Huber + bounded-feature-moment satisfy Assumption 1.
  const HuberLoss loss(2.0);
  const Vector w = {1.0};
  double scale = 0.0;
  const double x[] = {1.0};
  ASSERT_TRUE(loss.GradientAsScaledFeature(x, -1e12, w, &scale));
  EXPECT_LE(std::abs(scale), 2.0);
}

}  // namespace
}  // namespace htdp
