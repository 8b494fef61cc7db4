#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/problem.h"
#include "api/solver_registry.h"
#include "api/solver_spec.h"
#include "core/robust_gradient.h"
#include "data/synthetic.h"
#include "gtest/gtest.h"
#include "optim/polytope.h"
#include "losses/logistic_loss.h"
#include "losses/mean_loss.h"
#include "losses/squared_loss.h"
#include "robust/robust_mean.h"
#include "rng/rng.h"
#include "util/simd.h"
#include "util/simd_dispatch.h"

namespace htdp {
namespace {

TEST(RobustGradientTest, MatchesScalarEstimatorPerCoordinate) {
  Rng rng(3);
  const std::size_t n = 200;
  const std::size_t d = 5;
  SyntheticConfig config;
  config.n = n;
  config.d = d;
  config.feature_dist = ScalarDistribution::Lognormal(0.0, 0.6);
  const Vector w_star = MakeL1BallTarget(d, rng);
  const Dataset data = GenerateLinear(config, w_star, rng);

  const SquaredLoss loss;
  Vector w(d, 0.1);
  const double scale = 3.0;
  const double beta = 1.0;
  const RobustGradientEstimator estimator(scale, beta);
  Vector robust;
  estimator.Estimate(loss, FullView(data), w, robust);

  // Reference: apply the 1-d estimator coordinate by coordinate.
  const RobustMeanEstimator scalar(scale, beta);
  for (std::size_t j = 0; j < d; ++j) {
    Vector coordinate(n);
    Vector grad(d);
    for (std::size_t i = 0; i < n; ++i) {
      loss.Gradient(data.x.Row(i), data.y[i], w, grad);
      coordinate[i] = grad[j];
    }
    EXPECT_NEAR(robust[j], scalar.Estimate(coordinate), 1e-10)
        << "coordinate " << j;
  }
}

TEST(RobustGradientTest, WorkspaceReuseIsBitIdenticalToFreshCalls) {
  Rng rng(7);
  const std::size_t n = 1500;
  const std::size_t d = 64;
  SyntheticConfig config;
  config.n = n;
  config.d = d;
  config.feature_dist = ScalarDistribution::Lognormal(0.0, 0.6);
  const Vector w_star = MakeL1BallTarget(d, rng);
  const Dataset data = GenerateLinear(config, w_star, rng);
  const SquaredLoss loss;
  const RobustGradientEstimator estimator(4.0, 1.0);

  RobustGradientWorkspace workspace;
  Vector with_workspace;
  Vector without_workspace;
  Vector w(d, 0.0);
  // Drive the workspace through several distinct iterates, as a fit loop
  // does; the retained buffers must never leak state between calls.
  for (int t = 0; t < 5; ++t) {
    for (std::size_t j = 0; j < d; ++j) {
      w[j] = 0.05 * static_cast<double>(t) - 0.01 * static_cast<double>(j % 3);
    }
    estimator.Estimate(loss, FullView(data), w, with_workspace, &workspace);
    estimator.Estimate(loss, FullView(data), w, without_workspace);
    for (std::size_t j = 0; j < d; ++j) {
      ASSERT_EQ(with_workspace[j], without_workspace[j])
          << "t=" << t << " coordinate " << j;
    }
  }
}

TEST(RobustGradientTest, WorkspaceSurvivesShrinkingProblemSizes) {
  // A workspace first used on a larger fold/dimension must stay correct on
  // smaller ones (buffers are retained, not shrunk).
  Rng rng(9);
  const SquaredLoss loss;
  const RobustGradientEstimator estimator(4.0, 1.0);
  RobustGradientWorkspace workspace;
  for (const std::size_t d : {96u, 32u, 64u}) {
    SyntheticConfig config;
    config.n = 800;
    config.d = d;
    const Vector w_star = MakeL1BallTarget(d, rng);
    const Dataset data = GenerateLinear(config, w_star, rng);
    const Vector w(d, 0.02);
    Vector reused;
    Vector fresh;
    estimator.Estimate(loss, FullView(data), w, reused, &workspace);
    estimator.Estimate(loss, FullView(data), w, fresh);
    for (std::size_t j = 0; j < d; ++j) {
      ASSERT_EQ(reused[j], fresh[j]) << "d=" << d << " coordinate " << j;
    }
  }
}

TEST(RobustGradientTest, SolversRejectALossWithoutTheScaledFeatureForm) {
  // The estimator runs only on the scaled-feature gradient form. A loss
  // that hides it (here the squared loss behind a plain Gradient) must get
  // a typed kInvalidProblem from every robust-gradient solver, not an
  // abort inside Estimate.
  class HiddenGlmSquaredLoss final : public Loss {
   public:
    double Value(const double* x, double y, const Vector& w) const override {
      return inner_.Value(x, y, w);
    }
    void Gradient(const double* x, double y, const Vector& w,
                  Vector& grad) const override {
      inner_.Gradient(x, y, w, grad);
    }
    std::string Name() const override { return "hidden-glm"; }

   private:
    SquaredLoss inner_;
  };

  Rng rng(5);
  SyntheticConfig config;
  config.n = 300;
  config.d = 4;
  const Vector w_star = MakeL1BallTarget(config.d, rng);
  const Dataset data = GenerateLinear(config, w_star, rng);
  const HiddenGlmSquaredLoss hidden;
  const L1Ball ball(config.d, 1.0);

  for (const char* name :
       {kSolverAlg1DpFw, kSolverAlg5SparseOpt, kSolverBaselineRobustGd}) {
    SCOPED_TRACE(name);
    const std::unique_ptr<Solver> solver =
        SolverRegistry::Global().Create(name);
    Problem problem;
    problem.loss = &hidden;
    problem.data = &data;
    problem.target_sparsity = 2;
    if (solver->requires_constraint()) problem.constraint = &ball;
    SolverSpec spec;
    spec.budget = solver->supports_pure_dp()
                      ? PrivacyBudget::Pure(1.0)
                      : PrivacyBudget::Approx(1.0, 1e-5);
    spec.tau = 4.0;
    Rng fit_rng(9);
    const StatusOr<FitResult> fit = solver->TryFit(problem, spec, fit_rng);
    ASSERT_FALSE(fit.ok());
    EXPECT_EQ(fit.status().code(), StatusCode::kInvalidProblem);
    EXPECT_NE(fit.status().message().find("hidden-glm"), std::string::npos)
        << fit.status().message();

    // The same problem with the form exposed fits.
    const SquaredLoss squared;
    problem.loss = &squared;
    Rng again(9);
    EXPECT_TRUE(solver->TryFit(problem, spec, again).ok());
  }
}

TEST(RobustGradientTest, SensitivityBoundHoldsOnNeighboringDatasets) {
  Rng rng(7);
  SyntheticConfig config;
  config.n = 100;
  // 16 coordinates: every row holds full lane groups at every table width
  // (4 and 8 lanes), not just the scalar tail.
  config.d = 16;
  config.feature_dist = ScalarDistribution::Lognormal(0.0, 1.0);
  const Vector w_star = MakeL1BallTarget(config.d, rng);
  const Dataset data = GenerateLinear(config, w_star, rng);

  const SquaredLoss loss;
  const Vector w(config.d, 0.05);

  // Neighbours that replace row 17: every coordinate at one magnitude
  // (0, warm, and deep in the exact-split region: 150 already crosses the
  // cancellation limit, 1e150 makes squared-loss gradients ~1e300), one
  // whose gradient row is cold in every third coordinate only, so lane
  // groups mix split and warm lanes, and one whose gradient overflows.
  std::vector<Dataset> neighbors;
  for (double magnitude : {0.0, 1e3, 1e12, 150.0, 1e6, 1e150}) {
    Dataset neighbor = data;
    for (std::size_t j = 0; j < config.d; ++j) {
      neighbor.x(17, j) = magnitude;
    }
    neighbor.y[17] = -magnitude;
    neighbors.push_back(std::move(neighbor));
  }
  Dataset partial = data;
  for (std::size_t j = 0; j < config.d; ++j) {
    partial.x(17, j) = j % 3 == 0 ? 1e4 : 0.01;
  }
  partial.y[17] = 0.0;
  neighbors.push_back(std::move(partial));
  // A finite row whose GLM scale x.w - y overflows to inf: its gradient
  // row is inf where x is 1e308 and inf * 0 = NaN where x is 0, so those
  // lanes carry non-finite Catoni inputs.
  Dataset overflow = data;
  for (std::size_t j = 0; j < config.d; ++j) {
    overflow.x(17, j) = j % 2 == 0 ? 1e308 : 0.0;
  }
  overflow.y[17] = -std::numeric_limits<double>::max();
  neighbors.push_back(std::move(overflow));

  // The scalar reference, then every dispatch table this machine can run.
  std::vector<const char*> modes = {"scalar"};
  for (const char* isa : {"baseline", "avx2", "avx512f"}) {
    if (SimdIsaAvailable(isa)) modes.push_back(isa);
  }
  for (const char* mode : modes) {
    const bool simd = std::string(mode) != "scalar";
    const ScopedSimdOverride toggle(simd);
    const ScopedSimdIsaOverride pin(simd ? mode : "baseline");
    const RobustGradientEstimator estimator(1.5, 1.0);
    ASSERT_EQ(estimator.simd(), simd) << mode;
    Vector base;
    estimator.Estimate(loss, FullView(data), w, base);
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      Vector perturbed;
      estimator.Estimate(loss, FullView(neighbors[k]), w, perturbed);
      double move = 0.0;
      for (std::size_t j = 0; j < config.d; ++j) {
        move = std::max(move, std::abs(perturbed[j] - base[j]));
      }
      EXPECT_LE(move, estimator.Sensitivity(config.n) + 1e-12)
          << mode << " neighbour " << k;
    }
  }
}

TEST(RobustGradientTest, SensitivityFormula) {
  const RobustGradientEstimator estimator(2.5, 1.0);
  EXPECT_NEAR(estimator.Sensitivity(50),
              4.0 * std::sqrt(2.0) * 2.5 / (3.0 * 50.0), 1e-12);
}

TEST(RobustGradientTest, ApproximatesTrueGradientOnCleanData) {
  // With Gaussian data and a generous scale, the robust gradient should be
  // close to the exact empirical gradient.
  Rng rng(11);
  SyntheticConfig config;
  config.n = 20000;
  config.d = 4;
  config.feature_dist = ScalarDistribution::Normal(0.0, 1.0);
  const Vector w_star = MakeL1BallTarget(config.d, rng);
  const Dataset data = GenerateLinear(config, w_star, rng);

  const SquaredLoss loss;
  Vector w(config.d, 0.0);
  const RobustGradientEstimator estimator(50.0, 1.0);
  Vector robust;
  estimator.Estimate(loss, FullView(data), w, robust);
  Vector exact;
  EmpiricalGradient(loss, FullView(data), w, exact);
  for (std::size_t j = 0; j < config.d; ++j) {
    EXPECT_NEAR(robust[j], exact[j], 0.02) << "coordinate " << j;
  }
}

TEST(RobustGradientTest, ResistsSingleOutlierBetterThanEmpiricalMean) {
  Rng rng(13);
  SyntheticConfig config;
  config.n = 500;
  config.d = 3;
  config.feature_dist = ScalarDistribution::Normal(0.0, 1.0);
  const Vector w_star = MakeL1BallTarget(config.d, rng);
  Dataset data = GenerateLinear(config, w_star, rng);
  // Plant one gigantic outlier.
  data.x(42, 0) = 1e8;
  data.y[42] = -1e8;

  const SquaredLoss loss;
  const Vector w(config.d, 0.0);
  const RobustGradientEstimator estimator(5.0, 1.0);
  Vector robust;
  estimator.Estimate(loss, FullView(data), w, robust);
  Vector exact;
  EmpiricalGradient(loss, FullView(data), w, exact);

  // The exact gradient is destroyed by the outlier; the robust one is not.
  EXPECT_GT(NormLInf(exact), 1e6);
  EXPECT_LT(NormLInf(robust), 10.0);
}

TEST(RobustGradientTest, WorksWithMeanLoss) {
  Rng rng(17);
  Dataset data;
  const std::size_t n = 5000;
  const std::size_t d = 4;
  data.x = Matrix(n, d);
  data.y.assign(n, 0.0);
  for (double& e : data.x.data()) e = SampleNormal(rng, 0.5, 1.0);

  const MeanLoss loss;
  const Vector w(d, 0.0);
  const RobustGradientEstimator estimator(30.0, 1.0);
  Vector robust;
  estimator.Estimate(loss, FullView(data), w, robust);
  // Gradient of E||x - w||^2 at w=0 is -2 E x = -1 per coordinate.
  for (std::size_t j = 0; j < d; ++j) {
    EXPECT_NEAR(robust[j], -1.0, 0.1);
  }
}

}  // namespace
}  // namespace htdp
