// Tests for the unified Solver facade: registry round-trips, privacy-budget
// audits through the common FitResult ledger, bit-for-bit agreement between
// the Peeling solver and a direct Peel call, the per-iteration observer, and
// strict SolverSpec::Resolve error reporting on degenerate configurations.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <vector>

#include "core/htdp.h"
#include "gtest/gtest.h"

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

TEST(SolverRegistryTest, ListsAllBuiltinAlgorithms) {
  const std::vector<std::string> names = SolverRegistry::Global().Names();
  for (const char* expected :
       {kSolverAlg1DpFw, kSolverAlg2PrivateLasso, kSolverAlg3SparseLinReg,
        kSolverAlg4Peeling, kSolverAlg5SparseOpt, kSolverBaselineRobustGd}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing " << expected;
    EXPECT_TRUE(SolverRegistry::Global().Contains(expected));
  }
  EXPECT_FALSE(SolverRegistry::Global().Contains("no_such_solver"));
  // Names round-trip through Create() and agree with Solver::name().
  for (const std::string& name : names) {
    const std::unique_ptr<Solver> solver =
        SolverRegistry::Global().Create(name);
    EXPECT_EQ(solver->name(), name);
    EXPECT_FALSE(solver->description().empty());
  }
}

TEST(SolverRegistryDeathTest, UnknownNameAborts) {
  EXPECT_DEATH(SolverRegistry::Global().Create("no_such_solver"),
               "unknown solver");
}

TEST(SolverRegistryTest, EveryRegisteredSolverFitsAndSpendsItsBudget) {
  const double epsilon = 1.0;
  const double delta = 1e-5;
  Rng data_rng(17);
  const std::size_t n = 600;
  const std::size_t d = 12;
  const Vector w_star = MakeL1BallTarget(d, data_rng);
  const Dataset data = LognormalLinearData(n, d, w_star, data_rng);
  const SquaredLoss loss;
  const L1Ball ball(d, 1.0);

  for (const std::string& name : SolverRegistry::Global().Names()) {
    SCOPED_TRACE(name);
    const std::unique_ptr<Solver> solver =
        SolverRegistry::Global().Create(name);

    Problem problem;
    problem.loss = &loss;
    problem.data = &data;
    problem.target_sparsity = 3;
    if (solver->requires_constraint()) problem.constraint = &ball;

    SolverSpec spec;
    spec.budget = solver->supports_pure_dp()
                      ? PrivacyBudget::Pure(epsilon)
                      : PrivacyBudget::Approx(epsilon, delta);
    spec.tau = 4.0;
    spec.step = 0.02;  // conservative for the IHT solvers

    Rng rng(5);
    const FitResult result = solver->Fit(problem, spec, rng);

    EXPECT_GE(result.iterations, 1);
    EXPECT_FALSE(result.ledger.entries().empty());
    EXPECT_EQ(result.w.size(), d);
    for (const double value : result.w) EXPECT_TRUE(std::isfinite(value));
    EXPECT_GE(result.seconds, 0.0);

    if (name == kSolverAlg2PrivateLasso) {
      // Advanced composition: T per-step entries on the full dataset, each
      // at the Lemma 2 budget; delta sums back to the requested delta.
      ASSERT_EQ(result.ledger.entries().size(),
                static_cast<std::size_t>(result.iterations));
      const double per_step =
          AdvancedCompositionStepEpsilon(epsilon, delta, result.iterations);
      for (const auto& entry : result.ledger.entries()) {
        EXPECT_NEAR(entry.epsilon, per_step, 1e-12);
      }
      EXPECT_NEAR(result.ledger.TotalDelta(), delta, 1e-15);
    } else {
      // Parallel composition over disjoint folds (or a single invocation):
      // total spend equals the requested budget exactly.
      EXPECT_NEAR(result.ledger.TotalEpsilon(), epsilon, 1e-12);
      EXPECT_NEAR(result.ledger.TotalDelta(),
                  solver->supports_pure_dp() ? 0.0 : delta, 1e-15);
    }
  }
}

TEST(SolverFacadeTest, PeelingSolverMatchesDirectPeelBitForBit) {
  Rng data_rng(29);
  const std::size_t d = 15;
  const Vector w_star = MakeL1BallTarget(d, data_rng);
  const Dataset data = LognormalLinearData(500, d, w_star, data_rng);

  Problem problem;
  problem.data = &data;
  problem.target_sparsity = 4;
  SolverSpec spec;
  spec.budget = PrivacyBudget::Approx(1.0, 1e-5);
  Rng facade_rng(53);
  const FitResult facade = SolverRegistry::Global()
                               .Create(kSolverAlg4Peeling)
                               ->Fit(problem, spec, facade_rng);

  // Replicate: shrunken coordinate-wise feature means + a direct Peel call
  // with the same derived options and seed must agree exactly.
  const double shrinkage = facade.shrinkage_used;
  Vector v(d, 0.0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      v[j] += Shrink(data.x(i, j), shrinkage);
    }
  }
  Scale(1.0 / static_cast<double>(data.size()), v);

  PeelingOptions options;
  options.sparsity = 4;
  options.epsilon = 1.0;
  options.delta = 1e-5;
  // The derived l-inf sensitivity 2K/n, recorded in the ledger entry.
  options.linf_sensitivity =
      2.0 * shrinkage / static_cast<double>(data.size());
  Rng direct_rng(53);
  const PeelingResult direct = Peel(v, options, direct_rng);

  ASSERT_EQ(facade.selected.size(), direct.selected.size());
  for (std::size_t k = 0; k < direct.selected.size(); ++k) {
    EXPECT_EQ(facade.selected[k], direct.selected[k]);
  }
  for (std::size_t j = 0; j < d; ++j) EXPECT_EQ(facade.w[j], direct.value[j]);
  ASSERT_EQ(facade.ledger.entries().size(), 1u);
  EXPECT_NEAR(facade.ledger.entries()[0].sensitivity,
              2.0 * shrinkage / static_cast<double>(data.size()), 1e-15);
}

TEST(SolverFacadeTest, ObserverSeesEveryIteration) {
  Rng data_rng(31);
  const std::size_t d = 5;
  const Vector w_star = MakeL1BallTarget(d, data_rng);
  const Dataset data = LognormalLinearData(600, d, w_star, data_rng);
  const L1Ball ball(d, 1.0);
  const SquaredLoss loss;

  std::vector<int> seen;
  std::vector<std::size_t> ledger_sizes;
  const Problem problem = Problem::ConstrainedErm(loss, data, ball);
  SolverSpec spec;
  spec.budget = PrivacyBudget::Pure(1.0);
  spec.tau = 4.0;
  spec.observer = [&](const IterationEvent& event) {
    seen.push_back(event.iteration);
    ledger_sizes.push_back(event.ledger.entries().size());
    EXPECT_EQ(event.w.size(), d);
    EXPECT_LE(NormL1(event.w), 1.0 + 1e-9);
  };

  Rng rng(61);
  const FitResult result = SolverRegistry::Global()
                               .Create(kSolverAlg1DpFw)
                               ->Fit(problem, spec, rng);

  ASSERT_EQ(seen.size(), static_cast<std::size_t>(result.iterations));
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], static_cast<int>(i) + 1);
    EXPECT_EQ(ledger_sizes[i], i + 1);  // one mechanism call per fold
  }
  EXPECT_EQ(seen.back(), result.iterations);
}

TEST(SolverFacadeTest, RiskTraceAvailableForIhtSolvers) {
  // The risk trace covers the Peeling-based IHT solvers too.
  Rng data_rng(37);
  const std::size_t d = 10;
  const Vector w_star = MakeSparseTarget(d, 2, data_rng);
  const Dataset data = LognormalLinearData(500, d, w_star, data_rng);
  const SquaredLoss loss;

  const Problem problem = Problem::SparseErm(loss, data, 2);
  SolverSpec spec;
  spec.budget = PrivacyBudget::Approx(1.0, 1e-5);
  spec.tau = 4.0;
  spec.step = 0.02;
  spec.record_risk_trace = true;

  Rng rng(67);
  const FitResult result = SolverRegistry::Global()
                               .Create(kSolverAlg5SparseOpt)
                               ->Fit(problem, spec, rng);
  EXPECT_EQ(result.risk_trace.size(),
            static_cast<std::size_t>(result.iterations));
  // The IHT solvers also report the final iteration's selected support.
  EXPECT_EQ(result.selected.size(), result.sparsity_used);
}

TEST(SolverSpecTest, ResolveMatchesTheAutoSchedules) {
  SolverSpec spec;
  spec.algorithm = AlgorithmId::kDpFw;
  spec.budget = PrivacyBudget::Pure(1.0);
  spec.num_vertices = 400;
  const Status status = spec.Resolve(10000, 200);
  ASSERT_TRUE(status.ok()) << status.message();

  Alg1Schedule expected;
  ASSERT_TRUE(TrySolveAlg1Schedule(10000, 200, PrivacyBudget::Pure(1.0), 1.0,
                                   400, 0.1, &expected)
                  .ok());
  EXPECT_EQ(spec.iterations, expected.iterations);
  EXPECT_EQ(spec.scale, expected.scale);
}

TEST(SolverSpecTest, ResolveKeepsExplicitFields) {
  SolverSpec spec;
  spec.algorithm = AlgorithmId::kSparseOpt;
  spec.budget = PrivacyBudget::Approx(2.0, 1e-6);
  spec.iterations = 4;
  spec.sparsity = 7;
  spec.scale = 3.25;
  const Status status = spec.Resolve(5000, 50);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(spec.iterations, 4);
  EXPECT_EQ(spec.sparsity, 7u);
  EXPECT_EQ(spec.scale, 3.25);
}

TEST(SolverSpecTest, ResolveRejectsDegenerateConfigurations) {
  {
    // n * epsilon < 1 is an error, not a silent T = 1 clamp.
    SolverSpec spec;
    spec.algorithm = AlgorithmId::kDpFw;
    spec.budget = PrivacyBudget::Pure(0.001);
    const Status status = spec.Resolve(10, 5);
    EXPECT_FALSE(status.ok());
  }
  {
    // zeta >= 1 is rejected.
    SolverSpec spec;
    spec.algorithm = AlgorithmId::kDpFw;
    spec.budget = PrivacyBudget::Pure(1.0);
    spec.zeta = 1.0;
    const Status status = spec.Resolve(1000, 5);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("zeta"), std::string::npos);
  }
  {
    // Missing sparsity target names the fields to set.
    SolverSpec spec;
    spec.algorithm = AlgorithmId::kSparseLinReg;
    spec.budget = PrivacyBudget::Approx(1.0, 1e-5);
    const Status status = spec.Resolve(1000, 20);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("target_sparsity"), std::string::npos);
  }
  {
    // Invalid budget.
    SolverSpec spec;
    spec.algorithm = AlgorithmId::kPrivateLasso;
    spec.budget = PrivacyBudget::Approx(-1.0, 1e-5);
    const Status status = spec.Resolve(1000, 20);
    EXPECT_FALSE(status.ok());
  }
}

TEST(HyperparamsTest, TrySolversRejectDegenerateInputsAndFollowTheFormulas) {
  // Each accepted schedule is checked against the closed form documented in
  // core/hyperparams.h (Theorems 2, 3, 5, 7, 8 and Section 6.2).
  Alg1Schedule alg1;
  EXPECT_FALSE(
      TrySolveAlg1Schedule(10, 10, PrivacyBudget::Pure(0.01), 1.0, 20, 0.1, &alg1).ok());
  EXPECT_FALSE(
      TrySolveAlg1Schedule(10000, 10, PrivacyBudget::Pure(1.0), 1.0, 20, 1.5, &alg1).ok());
  ASSERT_TRUE(
      TrySolveAlg1Schedule(10000, 200, PrivacyBudget::Pure(1.0), 1.0, 400, 0.1, &alg1).ok());
  EXPECT_EQ(alg1.iterations, static_cast<int>(std::floor(std::cbrt(10000.0))));
  EXPECT_DOUBLE_EQ(alg1.scale,
                   std::sqrt(10000.0 / (alg1.iterations *
                                        std::log(400.0 * 200.0 *
                                                 alg1.iterations / 0.1))));

  Alg1RobustSchedule robust;
  EXPECT_FALSE(TrySolveAlg1RobustSchedule(10, 10, PrivacyBudget::Pure(0.01), 0.1, &robust).ok());
  EXPECT_FALSE(TrySolveAlg1RobustSchedule(10000, 10, PrivacyBudget::Pure(1.0), 1.5, &robust).ok());
  ASSERT_TRUE(TrySolveAlg1RobustSchedule(10000, 200, PrivacyBudget::Pure(1.0), 0.1, &robust).ok());
  EXPECT_EQ(robust.iterations, static_cast<int>(std::floor(std::sqrt(
                                   10000.0 / std::log(200.0 / 0.1)))));
  const double robust_t = robust.iterations;
  EXPECT_DOUBLE_EQ(robust.scale,
                   std::sqrt(10000.0 / (std::sqrt(robust_t) *
                                        std::log(200.0 * robust_t / 0.1))));
  EXPECT_DOUBLE_EQ(robust.step, 1.0 / std::sqrt(robust_t));

  Alg2Schedule alg2;
  EXPECT_FALSE(TrySolveAlg2Schedule(10, PrivacyBudget::Pure(0.01), &alg2).ok());
  ASSERT_TRUE(TrySolveAlg2Schedule(10000, PrivacyBudget::Pure(1.0), &alg2).ok());
  EXPECT_EQ(alg2.iterations, static_cast<int>(std::ceil(std::pow(10000.0, 0.4))));
  EXPECT_DOUBLE_EQ(alg2.shrinkage, std::pow(10000.0, 0.25) /
                                       std::pow(alg2.iterations, 0.125));

  Alg3Schedule alg3;
  EXPECT_FALSE(TrySolveAlg3Schedule(10000, PrivacyBudget::Pure(1.0), 0, 2, &alg3).ok());
  ASSERT_TRUE(TrySolveAlg3Schedule(10000, PrivacyBudget::Pure(1.0), 5, 2, &alg3).ok());
  EXPECT_EQ(alg3.iterations, static_cast<int>(std::floor(std::log(10000.0))));
  EXPECT_EQ(alg3.sparsity, 10u);
  EXPECT_DOUBLE_EQ(alg3.shrinkage,
                   std::pow(10000.0 / (10.0 * alg3.iterations), 0.25));

  Alg5Schedule alg5;
  EXPECT_FALSE(
      TrySolveAlg5Schedule(10000, 100, PrivacyBudget::Pure(1.0), 1.0, 0, 0.1, &alg5).ok());
  ASSERT_TRUE(
      TrySolveAlg5Schedule(10000, 100, PrivacyBudget::Pure(1.0), 1.0, 5, 0.1, &alg5).ok());
  EXPECT_EQ(alg5.iterations, static_cast<int>(std::floor(std::log(10000.0))));
  EXPECT_EQ(alg5.sparsity, 10u);
  EXPECT_DOUBLE_EQ(alg5.scale,
                   std::sqrt(10000.0 / (10.0 * alg5.iterations)) /
                       std::pow(std::log(alg5.iterations * 10.0 / 0.1), 0.25));
}

TEST(SolverFacadeDeathTest, NegativeStepAborts) {
  // step = 0 means "use the algorithm default"; a negative step is a
  // precondition violation, not a request for the default.
  Rng rng(73);
  Rng data_rng(73);
  const Vector w_star = MakeSparseTarget(8, 2, data_rng);
  const Dataset data = LognormalLinearData(300, 8, w_star, data_rng);
  const SquaredLoss loss;
  const Problem problem = Problem::SparseErm(loss, data, 2);
  SolverSpec spec;
  spec.budget = PrivacyBudget::Approx(1.0, 1e-5);
  spec.step = -0.1;
  const std::unique_ptr<Solver> solver =
      SolverRegistry::Global().Create(kSolverAlg5SparseOpt);
  EXPECT_DEATH(solver->Fit(problem, spec, rng), "step");
}

TEST(SolverFacadeDeathTest, MissingSparsityTargetAborts) {
  Rng rng(71);
  Dataset data;
  data.x = Matrix(100, 10);
  data.y.assign(100, 0.0);
  const SquaredLoss loss;
  const Problem problem = Problem::SparseErm(loss, data, /*target=*/0);
  SolverSpec spec;
  spec.budget = PrivacyBudget::Approx(1.0, 1e-5);
  for (const char* name : {kSolverAlg3SparseLinReg, kSolverAlg5SparseOpt}) {
    SCOPED_TRACE(name);
    const std::unique_ptr<Solver> solver =
        SolverRegistry::Global().Create(name);
    EXPECT_DEATH(solver->Fit(problem, spec, rng), "target_sparsity");
  }
}

}  // namespace
}  // namespace htdp
