// PrivacyAccountant backend suite: the split/calibrate/compose contracts of
// dp/accountant.h, the zcdp-tighter-than-advanced ordering, and the golden
// bit-identity pin -- default (accounting = advanced) fits of all six
// solvers at a fixed seed must keep producing the pre-accountant outputs,
// called directly and as jobs on Engines of 1 and 3 workers.

#include <cmath>
#include <cstddef>
#include <string>
#include <utility>

#include "core/htdp.h"
#include "gtest/gtest.h"

namespace htdp {
namespace {

constexpr Accounting kAllBackends[] = {Accounting::kBasic,
                                       Accounting::kAdvanced,
                                       Accounting::kZcdp};

TEST(AccountantTest, NamesRoundTripThroughParse) {
  for (const Accounting backend : kAllBackends) {
    const StatusOr<Accounting> parsed =
        ParseAccounting(AccountingName(backend));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, backend);
    EXPECT_EQ(GetAccountant(backend).id(), backend);
  }
  EXPECT_EQ(ParseAccounting("rdp-but-misspelled").status().code(),
            StatusCode::kInvalidProblem);
}

TEST(AccountantTest, SingleStepIsIdentityForEveryBackend) {
  const PrivacyBudget approx = PrivacyBudget::Approx(1.3, 1e-6);
  const PrivacyBudget pure = PrivacyBudget::Pure(0.7);
  for (const Accounting backend : kAllBackends) {
    const PrivacyAccountant& accountant = GetAccountant(backend);
    const StepBudget a = accountant.StepBudgetFor(approx, 1);
    EXPECT_EQ(a.epsilon, approx.epsilon) << accountant.name();
    EXPECT_EQ(a.delta, approx.delta) << accountant.name();
    const StepBudget p = accountant.StepBudgetFor(pure, 1);
    EXPECT_EQ(p.epsilon, pure.epsilon) << accountant.name();
    EXPECT_EQ(p.delta, 0.0) << accountant.name();
  }
}

TEST(AccountantTest, AdvancedSplitMatchesLegacyFreeFunctionsBitwise) {
  const PrivacyAccountant& advanced = GetAccountant(Accounting::kAdvanced);
  for (const double epsilon : {0.1, 0.5, 1.0, 4.0}) {
    for (const double delta : {1e-8, 1e-5, 1e-3}) {
      for (const int steps : {2, 7, 32, 500}) {
        const StepBudget step =
            advanced.StepBudgetFor(PrivacyBudget::Approx(epsilon, delta),
                                   steps);
        EXPECT_EQ(step.epsilon,
                  AdvancedCompositionStepEpsilon(epsilon, delta, steps));
        EXPECT_EQ(step.delta, AdvancedCompositionStepDelta(delta, steps));
      }
    }
  }
}

TEST(AccountantTest, AdvancedGaussianKeepsTheDpSgdDeltaSplit) {
  // GaussianFor(advanced) must reproduce the classic clipped DP-SGD
  // arithmetic: (eps', delta') from Lemma 2 on (epsilon, delta/2).
  const double epsilon = 1.0;
  const double delta = 1e-5;
  const int steps = 30;
  const GaussianCalibration calibration =
      GetAccountant(Accounting::kAdvanced)
          .GaussianFor(PrivacyBudget::Approx(epsilon, delta), steps);
  EXPECT_EQ(calibration.step_epsilon,
            AdvancedCompositionStepEpsilon(epsilon, delta / 2.0, steps));
  EXPECT_EQ(calibration.step_delta,
            AdvancedCompositionStepDelta(delta / 2.0, steps));
  EXPECT_EQ(calibration.sigma_multiplier, 0.0);
}

TEST(AccountantTest, BasicSplitIsPlainDivision) {
  const StepBudget step =
      GetAccountant(Accounting::kBasic)
          .StepBudgetFor(PrivacyBudget::Approx(2.0, 1e-4), 8);
  EXPECT_NEAR(step.epsilon, 0.25, 1e-15);
  EXPECT_NEAR(step.delta, 1.25e-5, 1e-20);
}

TEST(AccountantTest, PureBudgetsFallBackToSequentialSplitting) {
  // advanced/zcdp need delta > 0; for pure totals they split like basic
  // instead of aborting.
  const PrivacyBudget pure = PrivacyBudget::Pure(1.0);
  for (const Accounting backend : kAllBackends) {
    const StepBudget step = GetAccountant(backend).StepBudgetFor(pure, 10);
    EXPECT_NEAR(step.epsilon, 0.1, 1e-15) << AccountingName(backend);
    EXPECT_EQ(step.delta, 0.0) << AccountingName(backend);
  }
}

TEST(AccountantTest, ZcdpRhoConversionRoundTrips) {
  for (const double epsilon : {0.1, 1.0, 4.0}) {
    for (const double delta : {1e-8, 1e-5, 1e-3}) {
      const double rho = ZcdpRhoForBudget(epsilon, delta);
      EXPECT_GT(rho, 0.0);
      EXPECT_LT(rho, epsilon);
      EXPECT_NEAR(ZcdpEpsilonForRho(rho, delta), epsilon, 1e-10);
    }
  }
}

TEST(AccountantTest, ZcdpStepBudgetStrictlyExceedsAdvancedForMultiStep) {
  // The acceptance ordering: at every T > 1 the zcdp backend funds a
  // strictly larger per-step epsilon (hence strictly less per-step noise)
  // at the same end-to-end (epsilon, delta).
  const PrivacyAccountant& advanced = GetAccountant(Accounting::kAdvanced);
  const PrivacyAccountant& zcdp = GetAccountant(Accounting::kZcdp);
  for (const double epsilon : {0.1, 0.5, 1.0, 4.0}) {
    for (const double delta : {1e-8, 1e-5, 1e-3}) {
      const PrivacyBudget budget = PrivacyBudget::Approx(epsilon, delta);
      for (const int steps : {2, 5, 16, 64, 512}) {
        EXPECT_GT(zcdp.StepBudgetFor(budget, steps).epsilon,
                  advanced.StepBudgetFor(budget, steps).epsilon)
            << "eps=" << epsilon << " delta=" << delta << " T=" << steps;
      }
    }
  }
}

TEST(AccountantTest, ZcdpNoiseMultiplierNeverExceedsAdvanced) {
  // sigma(zcdp) <= sigma(advanced) at every T (equality allowed at T == 1
  // where zcdp may keep the classic calibration), and strictly smaller for
  // every multi-step grid point.
  const PrivacyAccountant& advanced = GetAccountant(Accounting::kAdvanced);
  const PrivacyAccountant& zcdp = GetAccountant(Accounting::kZcdp);
  for (const double epsilon : {0.1, 0.5, 1.0, 4.0}) {
    for (const double delta : {1e-8, 1e-5, 1e-3}) {
      const PrivacyBudget budget = PrivacyBudget::Approx(epsilon, delta);
      EXPECT_LE(zcdp.NoiseMultiplier(budget, 1),
                advanced.NoiseMultiplier(budget, 1));
      for (const int steps : {2, 5, 16, 64, 512}) {
        EXPECT_LT(zcdp.NoiseMultiplier(budget, steps),
                  advanced.NoiseMultiplier(budget, steps))
            << "eps=" << epsilon << " delta=" << delta << " T=" << steps;
      }
    }
  }
}

TEST(AccountantTest, ZcdpGaussianCalibrationIsRhoNative) {
  const GaussianCalibration calibration =
      GetAccountant(Accounting::kZcdp)
          .GaussianFor(PrivacyBudget::Approx(1.0, 1e-5), 16);
  ASSERT_GT(calibration.sigma_multiplier, 0.0);
  ASSERT_GT(calibration.rho, 0.0);
  // sigma = 1 / sqrt(2 rho') and the carried epsilon is sqrt(2 rho').
  EXPECT_NEAR(calibration.sigma_multiplier,
              1.0 / std::sqrt(2.0 * calibration.rho), 1e-12);
  EXPECT_NEAR(calibration.step_epsilon, std::sqrt(2.0 * calibration.rho),
              1e-12);
  EXPECT_EQ(calibration.step_delta, 0.0);
  EXPECT_NEAR(calibration.rho * 16.0, ZcdpRhoForBudget(1.0, 1e-5), 1e-12);
}

TEST(AccountantTest, ComposeMatchesLedgerTotalsForEveryBackend) {
  PrivacyLedger ledger;
  ledger.Record({"full", 0.2, 1e-7, 1.0, -1});
  ledger.Record({"fold", 0.8, 1e-6, 1.0, 0});
  ledger.Record({"fold", 0.9, 1e-6, 1.0, 1});
  for (const Accounting backend : kAllBackends) {
    const ComposedPrivacy composed =
        GetAccountant(backend).Compose(ledger, 1e-5);
    // Approximate classic entries: every backend falls back to the exact
    // basic totals here.
    EXPECT_NEAR(composed.epsilon, 0.2 + 0.9, 1e-12) << AccountingName(backend);
    EXPECT_NEAR(composed.delta, 1e-7 + 1e-6, 1e-15) << AccountingName(backend);
  }
}

TEST(AccountantTest, ZcdpComposeMixedNativeAndClassicIsSequentiallySound) {
  // A rho-native Gaussian entry mixed with a classic approximate entry: the
  // native carrier epsilon must NOT be summed as a pure-DP claim and the
  // classic entry must NOT be folded into rho -- the two classes compose
  // sequentially.
  const double rho = 0.02;
  PrivacyLedger ledger;
  ledger.Record({"gaussian", std::sqrt(2.0 * rho), 0.0, 1.0, -1, rho});
  ledger.Record({"laplace-peeling", 0.5, 1e-6, 1.0, -1});
  const double conversion_delta = 1e-5;
  const ComposedPrivacy composed =
      GetAccountant(Accounting::kZcdp).Compose(ledger, conversion_delta);
  EXPECT_NEAR(composed.epsilon,
              0.5 + ZcdpEpsilonForRho(rho, conversion_delta), 1e-12);
  EXPECT_NEAR(composed.delta, 1e-6 + conversion_delta, 1e-15);
}

TEST(AccountantTest, ZcdpComposeNativeOnlyIgnoresTheCarrierSum) {
  // All-native fold entries (the baseline solver under zcdp): the report is
  // the rho conversion, never the (smaller but unsound) carrier sum.
  const double rho = 0.0206;
  PrivacyLedger ledger;
  for (int fold = 0; fold < 3; ++fold) {
    ledger.Record({"gaussian", std::sqrt(2.0 * rho), 0.0, 1.0, fold, rho});
  }
  const ComposedPrivacy composed =
      GetAccountant(Accounting::kZcdp).Compose(ledger, 1e-5);
  EXPECT_NEAR(composed.epsilon, ZcdpEpsilonForRho(rho, 1e-5), 1e-12);
  EXPECT_GT(composed.epsilon, std::sqrt(2.0 * rho));  // > the carrier max
  EXPECT_NEAR(composed.delta, 1e-5, 1e-15);
}

TEST(AccountantTest, ZcdpComposeWithoutConversionDeltaFallsBackToBasic) {
  PrivacyLedger ledger;
  ledger.Record({"exp", 0.5, 0.0, 1.0, -1});
  ledger.Record({"exp", 0.5, 0.0, 1.0, -1});
  const ComposedPrivacy composed =
      GetAccountant(Accounting::kZcdp).Compose(ledger, /*conversion_delta=*/0.0);
  EXPECT_NEAR(composed.epsilon, 1.0, 1e-12);
  EXPECT_EQ(composed.delta, 0.0);
}

// ---------------------------------------------------------------------------
// Golden bit-identity pin. The checksums below were produced by the
// PRE-accountant code at these exact seeds; the default
// (accounting = advanced) path must keep reproducing them. The tolerance is
// relative ~1e-12 (loose enough for libm variation across toolchains, tight
// enough that any accounting change -- which moves noise scales by percents
// -- fails loudly). On the reference toolchain the match is exact.
// ---------------------------------------------------------------------------

double GoldenChecksum(const Vector& w) {
  double sum = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    sum += w[i] * static_cast<double>(i + 1);
  }
  return sum;
}

struct GoldenCase {
  const char* solver;
  double checksum;        // sum_i (i+1) * w_i of the final iterate
  double total_epsilon;   // ledger TotalEpsilon
  double total_delta;     // ledger TotalDelta
};

TEST(AccountantGoldenTest, DefaultAccountingFitsAreBitIdenticalToPrePr) {
  // The checksums are a property of the SCALAR reference path: force the
  // process-wide SIMD toggle off for the duration (equivalent to running
  // under HTDP_SIMD=off), so the lane-widened kernels cannot reassociate
  // reductions or swap the Catoni transcendentals. See util/simd.h.
  ScopedSimdOverride scalar_reference(false);
  const GoldenCase cases[] = {
      {"alg1_dp_fw", -3.5111111111111111, 1.0, 0.0},
      {"alg2_private_lasso", 3.1428571428571432, 0.36487046274705309,
       9.9999999999999974e-06},
      {"alg3_sparse_linreg", 19.562356080708117, 1.0, 1.0000000000000001e-05},
      {"alg4_peeling", 46.536562440045756, 1.0, 1.0000000000000001e-05},
      {"alg5_sparse_opt", 94.555265380999103, 1.0, 1.0000000000000001e-05},
      {"baseline_robust_gd", 0.59354943958512374, 1.0,
       1.0000000000000001e-05},
  };

  const std::size_t n = 600;
  const std::size_t d = 16;
  Rng data_rng(101);
  SyntheticConfig config;
  config.n = n;
  config.d = d;
  config.feature_dist = ScalarDistribution::Lognormal(0.0, 0.6);
  config.noise_dist = ScalarDistribution::Normal(0.0, 0.1);
  const Vector w_star = MakeL1BallTarget(d, data_rng);
  const Dataset data = GenerateLinear(config, w_star, data_rng);
  const SquaredLoss loss;
  const L1Ball ball(d, 1.0);

  for (const GoldenCase& golden : cases) {
    SCOPED_TRACE(golden.solver);
    const StatusOr<const Solver*> solver =
        SolverRegistry::Global().Find(golden.solver);
    ASSERT_TRUE(solver.ok());
    const bool sparse = (*solver)->requires_sparsity();
    const Problem problem = sparse
                                ? Problem::SparseErm(loss, data, 4)
                                : Problem::ConstrainedErm(loss, data, ball);
    SolverSpec spec;
    spec.budget = (*solver)->supports_pure_dp()
                      ? PrivacyBudget::Pure(1.0)
                      : PrivacyBudget::Approx(1.0, 1e-5);
    ASSERT_EQ(spec.accounting, Accounting::kAdvanced);  // the default
    const auto expect_golden = [&](const StatusOr<FitResult>& fit) {
      ASSERT_TRUE(fit.ok()) << fit.status().ToString();
      const double scale = std::max(std::abs(golden.checksum), 1.0);
      EXPECT_NEAR(GoldenChecksum(fit->w), golden.checksum, 1e-12 * scale);
      EXPECT_NEAR(fit->ledger.TotalEpsilon(), golden.total_epsilon, 1e-12);
      EXPECT_NEAR(fit->ledger.TotalDelta(), golden.total_delta, 1e-18);
    };
    Rng rng(7);
    expect_golden((*solver)->TryFit(problem, spec, rng));
    // A job's loops split into as many chunks as its Engine has workers.
    for (const int workers : {1, 3}) {
      SCOPED_TRACE("Engine of " + std::to_string(workers) + " workers");
      Engine engine(Engine::Options{workers});
      FitJob job;
      job.solver = *solver;
      job.problem = problem;
      job.spec = spec;
      job.seed = 7;
      const JobHandle handle = engine.Submit(std::move(job));
      expect_golden(handle.Wait());
    }
  }
}

TEST(AccountantGoldenTest, ZcdpShrinksAlg2SelectionNoiseAtFixedBudget) {
  // The paying consequence of the tighter backend: alg2's per-step epsilon
  // (recorded in the ledger) strictly grows when only the accounting
  // changes, and the end-to-end composed spend still meets the declared
  // budget.
  const std::size_t n = 2000;
  const std::size_t d = 12;
  Rng data_rng(33);
  SyntheticConfig config;
  config.n = n;
  config.d = d;
  config.feature_dist = ScalarDistribution::Lognormal(0.0, 0.6);
  config.noise_dist = ScalarDistribution::Normal(0.0, 0.1);
  const Vector w_star = MakeL1BallTarget(d, data_rng);
  const Dataset data = GenerateLinear(config, w_star, data_rng);
  const SquaredLoss loss;
  const L1Ball ball(d, 1.0);
  const Problem problem = Problem::ConstrainedErm(loss, data, ball);

  SolverSpec advanced_spec;
  advanced_spec.budget = PrivacyBudget::Approx(1.0, 1e-5);
  SolverSpec zcdp_spec = advanced_spec;
  zcdp_spec.accounting = Accounting::kZcdp;

  const StatusOr<const Solver*> solver =
      SolverRegistry::Global().Find("alg2_private_lasso");
  ASSERT_TRUE(solver.ok());
  Rng rng_a(5);
  Rng rng_z(5);
  const StatusOr<FitResult> advanced_fit =
      (*solver)->TryFit(problem, advanced_spec, rng_a);
  const StatusOr<FitResult> zcdp_fit =
      (*solver)->TryFit(problem, zcdp_spec, rng_z);
  ASSERT_TRUE(advanced_fit.ok());
  ASSERT_TRUE(zcdp_fit.ok());
  ASSERT_FALSE(advanced_fit->ledger.entries().empty());
  ASSERT_FALSE(zcdp_fit->ledger.entries().empty());
  EXPECT_GT(zcdp_fit->ledger.entries()[0].epsilon,
            advanced_fit->ledger.entries()[0].epsilon);
  EXPECT_LE(zcdp_fit->ledger.TotalEpsilon(), 1.0 + 1e-9);
  EXPECT_LE(zcdp_fit->ledger.TotalDelta(), 1e-5 + 1e-15);
}

}  // namespace
}  // namespace htdp
