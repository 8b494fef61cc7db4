// Tests for the typed Status taxonomy and the non-aborting TryFit contract:
// StatusOr semantics, the code each class of user error maps to, registry
// Find/TryCreate, prefix-view fits, and cooperative cancellation. The
// acceptance bar: no user-supplied configuration may abort the process
// through TryFit -- every case below returns a typed Status instead.

#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "core/htdp.h"
#include "gtest/gtest.h"

namespace htdp {
namespace {

Dataset SmallLinearData(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  SyntheticConfig config;
  config.n = n;
  config.d = d;
  config.feature_dist = ScalarDistribution::Lognormal(0.0, 0.6);
  config.noise_dist = ScalarDistribution::Normal(0.0, 0.1);
  const Vector w_star = MakeL1BallTarget(d, rng);
  return GenerateLinear(config, w_star, rng);
}

TEST(StatusTest, CodesAndConstructorsAgree) {
  EXPECT_TRUE(Status::Ok().ok());
  EXPECT_EQ(Status::Ok().code(), StatusCode::kOk);

  const Status invalid = Status::InvalidProblem("missing loss");
  EXPECT_FALSE(invalid.ok());
  EXPECT_EQ(invalid.code(), StatusCode::kInvalidProblem);
  EXPECT_EQ(invalid.message(), "missing loss");
  EXPECT_EQ(invalid.ToString(), "invalid-problem: missing loss");

  EXPECT_EQ(Status::BudgetExhausted("x").code(),
            StatusCode::kBudgetExhausted);
  EXPECT_EQ(Status::ShapeMismatch("x").code(), StatusCode::kShapeMismatch);
  EXPECT_EQ(Status::UnknownSolver("x").code(), StatusCode::kUnknownSolver);
  EXPECT_EQ(Status::Cancelled("x").code(), StatusCode::kCancelled);
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);

  // The legacy spelling maps onto the taxonomy.
  EXPECT_EQ(Status::Invalid("x").code(), StatusCode::kInvalidProblem);

  EXPECT_STREQ(StatusCodeName(StatusCode::kBudgetExhausted),
               "budget-exhausted");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "ok");
}

TEST(StatusOrTest, HoldsValueOrError) {
  StatusOr<int> ok_value(7);
  ASSERT_TRUE(ok_value.ok());
  EXPECT_TRUE(ok_value.status().ok());
  EXPECT_EQ(ok_value.value(), 7);
  EXPECT_EQ(*ok_value, 7);

  StatusOr<int> error(Status::ShapeMismatch("bad dims"));
  ASSERT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), StatusCode::kShapeMismatch);
  EXPECT_EQ(error.status().message(), "bad dims");
}

TEST(StatusOrTest, MovesValueOut) {
  StatusOr<std::string> s(std::string("heavy-tailed"));
  const std::string moved = std::move(s).value();
  EXPECT_EQ(moved, "heavy-tailed");
}

TEST(StatusOrDeathTest, ValueOnErrorAbortsWithDiagnostic) {
  StatusOr<int> error(Status::BudgetExhausted("epsilon must be > 0"));
  EXPECT_DEATH(error.value(), "budget-exhausted: epsilon must be > 0");
}

TEST(StatusTest, PrivacyBudgetCheckIsTyped) {
  EXPECT_TRUE(PrivacyBudget::Pure(1.0).Check().ok());
  EXPECT_EQ(PrivacyBudget::Pure(0.0).Check().code(),
            StatusCode::kBudgetExhausted);
  EXPECT_EQ(PrivacyBudget::Approx(1.0, 1.5).Check().code(),
            StatusCode::kBudgetExhausted);
}

TEST(StatusTest, DatasetCheckIsTyped) {
  Dataset data;
  data.x = Matrix(3, 2);
  data.y = {1.0, 2.0};
  const Status status = data.Check();
  EXPECT_EQ(status.code(), StatusCode::kShapeMismatch);
  EXPECT_NE(status.message().find("x.rows"), std::string::npos);
  data.y = {1.0, 2.0, 3.0};
  EXPECT_TRUE(data.Check().ok());
}

TEST(StatusTest, ResolveReportsTypedCodes) {
  {
    // Budget too small for the dataset.
    SolverSpec spec;
    spec.algorithm = AlgorithmId::kDpFw;
    spec.budget = PrivacyBudget::Pure(0.001);
    EXPECT_EQ(spec.Resolve(10, 5).code(), StatusCode::kBudgetExhausted);
  }
  {
    // Degenerate knob: configuration, not budget.
    SolverSpec spec;
    spec.algorithm = AlgorithmId::kDpFw;
    spec.budget = PrivacyBudget::Pure(1.0);
    spec.zeta = 1.5;
    EXPECT_EQ(spec.Resolve(1000, 5).code(), StatusCode::kInvalidProblem);
  }
  {
    // Missing sparsity target.
    SolverSpec spec;
    spec.algorithm = AlgorithmId::kSparseOpt;
    spec.budget = PrivacyBudget::Approx(1.0, 1e-5);
    EXPECT_EQ(spec.Resolve(1000, 20).code(), StatusCode::kInvalidProblem);
  }
}

TEST(RegistryStatusTest, FindReturnsSharedInstance) {
  const StatusOr<const Solver*> solver =
      SolverRegistry::Global().Find(kSolverAlg1DpFw);
  ASSERT_TRUE(solver.ok());
  EXPECT_EQ((*solver)->name(), kSolverAlg1DpFw);
  // The shared instance is stable across lookups.
  EXPECT_EQ(*SolverRegistry::Global().Find(kSolverAlg1DpFw), *solver);
}

TEST(RegistryStatusTest, UnknownNameListsRegisteredSolvers) {
  const StatusOr<const Solver*> missing =
      SolverRegistry::Global().Find("no_such_solver");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kUnknownSolver);
  for (const std::string& name : SolverRegistry::Global().Names()) {
    EXPECT_NE(missing.status().message().find(name), std::string::npos)
        << "error message should list " << name;
  }

  const StatusOr<std::unique_ptr<Solver>> try_create =
      SolverRegistry::Global().TryCreate("no_such_solver");
  EXPECT_FALSE(try_create.ok());
  EXPECT_EQ(try_create.status().code(), StatusCode::kUnknownSolver);
}

// The acceptance matrix: every class of user misconfiguration returns its
// typed Status through TryFit instead of aborting, for every registered
// solver the case applies to.
TEST(TryFitStatusTest, NoUserErrorAborts) {
  const Dataset data = SmallLinearData(400, 8, 17);
  const SquaredLoss loss;
  const L1Ball ball(8, 1.0);

  for (const std::string& name : SolverRegistry::Global().Names()) {
    SCOPED_TRACE(name);
    const Solver* solver = *SolverRegistry::Global().Find(name);
    Rng rng(5);

    Problem good;
    good.loss = &loss;
    good.data = &data;
    good.target_sparsity = 2;
    if (solver->requires_constraint()) good.constraint = &ball;
    SolverSpec good_spec;
    good_spec.budget = solver->supports_pure_dp()
                           ? PrivacyBudget::Pure(1.0)
                           : PrivacyBudget::Approx(1.0, 1e-5);
    good_spec.tau = 4.0;
    good_spec.step = 0.02;

    {
      // Missing data.
      Problem problem = good;
      problem.data = nullptr;
      const auto fit = solver->TryFit(problem, good_spec, rng);
      ASSERT_FALSE(fit.ok());
      EXPECT_EQ(fit.status().code(), StatusCode::kInvalidProblem);
    }
    if (solver->requires_loss()) {
      Problem problem = good;
      problem.loss = nullptr;
      const auto fit = solver->TryFit(problem, good_spec, rng);
      ASSERT_FALSE(fit.ok());
      EXPECT_EQ(fit.status().code(), StatusCode::kInvalidProblem);
    }
    if (solver->requires_constraint()) {
      Problem problem = good;
      problem.constraint = nullptr;
      const auto fit = solver->TryFit(problem, good_spec, rng);
      ASSERT_FALSE(fit.ok());
      EXPECT_EQ(fit.status().code(), StatusCode::kInvalidProblem);
    }
    if (solver->requires_sparsity()) {
      Problem problem = good;
      problem.target_sparsity = 0;
      const auto fit = solver->TryFit(problem, good_spec, rng);
      ASSERT_FALSE(fit.ok());
      EXPECT_EQ(fit.status().code(), StatusCode::kInvalidProblem);
      EXPECT_NE(fit.status().message().find("target_sparsity"),
                std::string::npos);
    }
    {
      // Unfundable budget.
      SolverSpec spec = good_spec;
      spec.budget.epsilon = -1.0;
      const auto fit = solver->TryFit(good, spec, rng);
      ASSERT_FALSE(fit.ok());
      EXPECT_EQ(fit.status().code(), StatusCode::kBudgetExhausted);
    }
    if (!solver->supports_pure_dp()) {
      // Approximate-DP solvers need delta > 0.
      SolverSpec spec = good_spec;
      spec.budget.delta = 0.0;
      const auto fit = solver->TryFit(good, spec, rng);
      ASSERT_FALSE(fit.ok());
      EXPECT_EQ(fit.status().code(), StatusCode::kBudgetExhausted);
    }
    {
      // Mismatched warm start.
      Problem problem = good;
      problem.w0 = Vector(3, 0.0);
      const auto fit = solver->TryFit(problem, good_spec, rng);
      ASSERT_FALSE(fit.ok());
      EXPECT_EQ(fit.status().code(), StatusCode::kShapeMismatch);
    }
    {
      // Prefix beyond the dataset.
      Problem problem = good;
      problem.prefix = data.size() + 1;
      const auto fit = solver->TryFit(problem, good_spec, rng);
      ASSERT_FALSE(fit.ok());
      EXPECT_EQ(fit.status().code(), StatusCode::kShapeMismatch);
    }
    {
      // x/y disagreement.
      Dataset broken = data;
      broken.y.pop_back();
      Problem problem = good;
      problem.data = &broken;
      const auto fit = solver->TryFit(problem, good_spec, rng);
      ASSERT_FALSE(fit.ok());
      EXPECT_EQ(fit.status().code(), StatusCode::kShapeMismatch);
    }
  }
}

TEST(TryFitStatusTest, NonFiniteValuesAreInvalidProblem) {
  // One NaN or infinity in a feature, a label or w0 is refused with
  // kInvalidProblem naming where it sits, for every solver, instead of
  // reaching the robust gradient or the peeling sort. Rows past the prefix
  // are not read by the fit, so a bad value there is accepted.
  const Dataset data = SmallLinearData(400, 8, 17);
  const SquaredLoss loss;
  const L1Ball ball(8, 1.0);
  const double inf = std::numeric_limits<double>::infinity();
  const double bad_values[] = {std::numeric_limits<double>::quiet_NaN(), inf,
                               -inf};
  for (const std::string& name : SolverRegistry::Global().Names()) {
    SCOPED_TRACE(name);
    const Solver* solver = *SolverRegistry::Global().Find(name);
    Problem good;
    good.loss = &loss;
    good.data = &data;
    good.target_sparsity = 2;
    if (solver->requires_constraint()) good.constraint = &ball;
    SolverSpec spec;
    spec.budget = solver->supports_pure_dp()
                      ? PrivacyBudget::Pure(1.0)
                      : PrivacyBudget::Approx(1.0, 1e-5);
    spec.tau = 4.0;
    spec.step = 0.02;
    const auto expect_invalid = [&](const Problem& problem,
                                    const std::string& where) {
      Rng rng(5);
      const auto fit = solver->TryFit(problem, spec, rng);
      ASSERT_FALSE(fit.ok()) << where;
      EXPECT_EQ(fit.status().code(), StatusCode::kInvalidProblem) << where;
      EXPECT_NE(fit.status().message().find(where), std::string::npos)
          << fit.status().message();
    };
    for (const double bad : bad_values) {
      SCOPED_TRACE(bad);
      {
        Dataset broken = data;
        broken.x(123, 5) = bad;
        Problem problem = good;
        problem.data = &broken;
        expect_invalid(problem, "x[row 123, column 5]");
      }
      {
        Dataset broken = data;
        broken.y[77] = bad;
        Problem problem = good;
        problem.data = &broken;
        expect_invalid(problem, "y[row 77]");
      }
      {
        Problem problem = good;
        problem.w0 = Vector(8, 0.0);
        problem.w0[6] = bad;
        expect_invalid(problem, "w0[column 6]");
      }
      {
        Dataset tail_broken = data;
        tail_broken.x(399, 0) = bad;
        tail_broken.y[399] = bad;
        Problem problem = good;
        problem.data = &tail_broken;
        problem.prefix = 399;
        Rng rng(5);
        const auto fit = solver->TryFit(problem, spec, rng);
        EXPECT_TRUE(fit.ok()) << fit.status().ToString();
      }
    }
  }
}

TEST(TryFitStatusTest, NegativeStepIsInvalidProblem) {
  const Dataset data = SmallLinearData(300, 8, 19);
  const SquaredLoss loss;
  const Problem problem = Problem::SparseErm(loss, data, 2);
  SolverSpec spec;
  spec.budget = PrivacyBudget::Approx(1.0, 1e-5);
  spec.step = -0.1;
  Rng rng(7);
  const Solver* solver = *SolverRegistry::Global().Find(kSolverAlg5SparseOpt);
  const auto fit = solver->TryFit(problem, spec, rng);
  ASSERT_FALSE(fit.ok());
  EXPECT_EQ(fit.status().code(), StatusCode::kInvalidProblem);
  EXPECT_NE(fit.status().message().find("step"), std::string::npos);
}

TEST(TryFitStatusTest, SuccessMatchesAbortingFitBitForBit) {
  const Dataset data = SmallLinearData(600, 10, 23);
  const SquaredLoss loss;
  const L1Ball ball(10, 1.0);
  const Problem problem = Problem::ConstrainedErm(loss, data, ball);
  SolverSpec spec;
  spec.budget = PrivacyBudget::Pure(1.0);
  spec.tau = 4.0;

  const Solver* solver = *SolverRegistry::Global().Find(kSolverAlg1DpFw);
  Rng try_rng(99);
  const StatusOr<FitResult> tried = solver->TryFit(problem, spec, try_rng);
  ASSERT_TRUE(tried.ok()) << tried.status().ToString();
  Rng fit_rng(99);
  const FitResult fitted = solver->Fit(problem, spec, fit_rng);

  ASSERT_EQ(tried->w.size(), fitted.w.size());
  for (std::size_t j = 0; j < fitted.w.size(); ++j) {
    EXPECT_EQ(tried->w[j], fitted.w[j]);
  }
  EXPECT_EQ(tried->iterations, fitted.iterations);
  EXPECT_EQ(tried->ledger.entries().size(), fitted.ledger.entries().size());
}

TEST(TryFitStatusTest, PrefixViewMatchesDeepCopyBitForBit) {
  // The non-owning Problem.prefix path must reproduce a fit on the
  // deep-copied Prefix dataset exactly.
  const Dataset full = SmallLinearData(800, 6, 29);
  const std::size_t n = 500;
  const Dataset copied = Prefix(full, n);
  const SquaredLoss loss;
  const L1Ball ball(6, 1.0);
  SolverSpec spec;
  spec.budget = PrivacyBudget::Pure(1.0);
  spec.tau = 4.0;
  const Solver* solver = *SolverRegistry::Global().Find(kSolverAlg1DpFw);

  Problem on_copy = Problem::ConstrainedErm(loss, copied, ball);
  Rng copy_rng(41);
  const StatusOr<FitResult> copy_fit = solver->TryFit(on_copy, spec, copy_rng);
  ASSERT_TRUE(copy_fit.ok());

  Problem on_view = Problem::ConstrainedErm(loss, full, ball);
  on_view.prefix = n;
  EXPECT_EQ(on_view.size(), n);
  Rng view_rng(41);
  const StatusOr<FitResult> view_fit = solver->TryFit(on_view, spec, view_rng);
  ASSERT_TRUE(view_fit.ok());

  ASSERT_EQ(view_fit->w.size(), copy_fit->w.size());
  for (std::size_t j = 0; j < copy_fit->w.size(); ++j) {
    EXPECT_EQ(view_fit->w[j], copy_fit->w[j]);
  }
  EXPECT_EQ(view_fit->iterations, copy_fit->iterations);
  EXPECT_EQ(view_fit->scale_used, copy_fit->scale_used);
}

TEST(TryFitStatusTest, ShouldStopCancelsCooperatively) {
  const Dataset data = SmallLinearData(600, 8, 31);
  const SquaredLoss loss;
  const L1Ball ball(8, 1.0);
  const Problem problem = Problem::ConstrainedErm(loss, data, ball);
  SolverSpec spec;
  spec.budget = PrivacyBudget::Pure(1.0);
  spec.tau = 4.0;
  spec.should_stop = [] { return true; };
  Rng rng(43);
  const Solver* solver = *SolverRegistry::Global().Find(kSolverAlg1DpFw);
  const auto fit = solver->TryFit(problem, spec, rng);
  ASSERT_FALSE(fit.ok());
  EXPECT_EQ(fit.status().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace htdp
