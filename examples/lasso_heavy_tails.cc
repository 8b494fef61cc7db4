// LASSO with heavy-tailed features: four estimators head to head.
//
//   1. "alg1_dp_fw"         (Heavy-tailed DP-FW, eps-DP) -- robust gradients
//   2. "alg2_private_lasso" (Heavy-tailed Private LASSO) -- shrunken data
//   3. "baseline_robust_gd" ([WXDX20], Remark 1)         -- poly(d) noise
//   4. Non-private Frank-Wolfe                           -- the reference
//
// The three private solvers run through the registry on the SAME Problem --
// only the name and the SolverSpec differ. Run on lognormal and Student-t
// features (the Figure 5 / Figure 6 workloads) at a laptop-friendly scale.

#include <cstdio>
#include <memory>

#include "core/htdp.h"

namespace {

using namespace htdp;

void RunWorkload(const char* label, const ScalarDistribution& features,
                 std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = 20000;
  const std::size_t d = 100;
  const double epsilon = 1.0;
  const double delta = 1e-5;

  SyntheticConfig config;
  config.n = n;
  config.d = d;
  config.feature_dist = features;
  config.noise_dist = ScalarDistribution::Normal(0.0, 0.1);
  const Vector w_star = MakeL1BallTarget(d, rng);
  const Dataset data = GenerateLinear(config, w_star, rng);

  const SquaredLoss loss;
  const L1Ball ball(d, 1.0);
  const Vector w0(d, 0.0);
  const Problem problem = Problem::ConstrainedErm(loss, data, ball);

  SolverSpec alg1_spec;
  alg1_spec.budget = PrivacyBudget::Pure(epsilon);
  alg1_spec.tau = EstimateGradientSecondMoment(loss, FullView(data), w0);
  const FitResult alg1_result =
      SolverRegistry::Global().Create(kSolverAlg1DpFw)->Fit(problem,
                                                            alg1_spec, rng);

  SolverSpec alg2_spec;
  alg2_spec.budget = PrivacyBudget::Approx(epsilon, delta);
  const FitResult alg2_result =
      SolverRegistry::Global()
          .Create(kSolverAlg2PrivateLasso)
          ->Fit(problem, alg2_spec, rng);

  SolverSpec baseline_spec;
  baseline_spec.budget = PrivacyBudget::Approx(epsilon, delta);
  baseline_spec.tau = alg1_spec.tau;
  const FitResult baseline_result =
      SolverRegistry::Global()
          .Create(kSolverBaselineRobustGd)
          ->Fit(problem, baseline_spec, rng);

  FrankWolfeOptions fw;
  fw.iterations = 120;
  const auto fw_result = MinimizeFrankWolfe(loss, data, ball, w0, fw);

  std::printf("\n-- %s  (n=%zu, d=%zu, eps=%.1f) --\n", label, n, d, epsilon);
  std::printf("  %-34s excess risk = %8.4f\n",
              "Algorithm 1 (HT DP-FW, eps-DP):",
              ExcessEmpiricalRisk(loss, data, alg1_result.w, w_star));
  std::printf("  %-34s excess risk = %8.4f  (T=%d, K=%.2f)\n",
              "Algorithm 2 (HT Private LASSO):",
              ExcessEmpiricalRisk(loss, data, alg2_result.w, w_star),
              alg2_result.iterations, alg2_result.shrinkage_used);
  std::printf("  %-34s excess risk = %8.4f\n",
              "[WXDX20] robust-GD baseline:",
              ExcessEmpiricalRisk(loss, data, baseline_result.w, w_star));
  std::printf("  %-34s excess risk = %8.4f\n",
              "Non-private Frank-Wolfe:",
              ExcessEmpiricalRisk(loss, data, fw_result.w, w_star));
}

}  // namespace

int main() {
  RunWorkload("Lognormal(0, 0.6) features", ScalarDistribution::Lognormal(0.0, 0.6),
              11);
  RunWorkload("Student-t(10) features", ScalarDistribution::StudentT(10.0), 13);
  return 0;
}
