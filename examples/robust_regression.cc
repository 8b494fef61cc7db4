// Non-convex robust regression with the Tukey biweight loss (Theorem 3).
//
// Algorithm 1 is not restricted to convex losses: under Assumption 2
// (bounded, odd psi' with positive expected slope at 0 and symmetric noise)
// the fixed-step variant achieves O~(1/(n eps)^(1/4)). This example runs
// "alg1_dp_fw" twice through the facade on the same data -- once with the
// biweight loss on the Theorem 3 schedule, once with the squared loss on
// the Theorem 2 schedule -- swapping only the Problem's loss and the
// SolverSpec. Both pipelines share the robust gradient estimator; the
// biweight loss is the one Theorem 3 actually covers in this regime.

#include <cstdio>
#include <memory>

#include "core/htdp.h"

int main() {
  using namespace htdp;

  Rng rng(31);
  const std::size_t n = 30000;
  const std::size_t d = 100;

  SyntheticConfig config;
  config.n = n;
  config.d = d;
  config.feature_dist = ScalarDistribution::Normal(0.0, 1.0);
  config.noise_dist = ScalarDistribution::StudentT(1.5);  // symmetric, infinite variance
  const Vector w_star = MakeL1BallTarget(d, rng);
  const Dataset data = GenerateLinear(config, w_star, rng);

  const L1Ball ball(d, 1.0);
  const Vector w0(d, 0.0);
  const double epsilon = 2.0;
  const std::unique_ptr<Solver> solver =
      SolverRegistry::Global().Create(kSolverAlg1DpFw);

  // Theorem 3 schedule: fixed step 1/sqrt(T), T ~ sqrt(n eps / log(d)).
  Alg1RobustSchedule schedule;
  const Status solved = TrySolveAlg1RobustSchedule(
      n, d, PrivacyBudget::Pure(epsilon), 0.1, &schedule);
  HTDP_CHECK(solved.ok()) << solved.ToString();
  const BiweightLoss biweight(1.0);
  const Problem robust_problem = Problem::ConstrainedErm(biweight, data, ball);
  SolverSpec robust_spec;
  robust_spec.budget = PrivacyBudget::Pure(epsilon);
  robust_spec.iterations = schedule.iterations;
  robust_spec.scale = schedule.scale;
  robust_spec.beta = schedule.beta;
  robust_spec.diminishing_step = false;
  robust_spec.fixed_step = schedule.step;
  Rng robust_rng = rng.Fork();
  const FitResult robust =
      solver->Fit(robust_problem, robust_spec, robust_rng);

  // Squared-loss pipeline (Theorem 2 schedule) on the same data.
  const SquaredLoss squared;
  const Problem squared_problem =
      Problem::ConstrainedErm(squared, data, ball);
  SolverSpec squared_spec;
  squared_spec.budget = PrivacyBudget::Pure(epsilon);
  squared_spec.tau =
      EstimateGradientSecondMoment(squared, FullView(data), w0);
  Rng squared_rng = rng.Fork();
  const FitResult least_squares =
      solver->Fit(squared_problem, squared_spec, squared_rng);

  std::printf("Robust regression under Student-t(1.5) noise "
              "(n=%zu, d=%zu, eps=%.1f)\n\n",
              n, d, epsilon);
  std::printf("Theorem 3 schedule: T = %d, s = %.2f, fixed eta = %.4f\n\n",
              schedule.iterations, schedule.scale, schedule.step);
  std::printf("  %-36s ||w-w*|| = %.4f\n",
              "Alg.1 + biweight loss (Thm 3):",
              EstimationError(robust.w, w_star));
  std::printf("  %-36s ||w-w*|| = %.4f\n",
              "Alg.1 + squared loss (Thm 2):",
              EstimationError(least_squares.w, w_star));
  std::printf("\nBoth runs are %.1f-DP (ledger: %.3f and %.3f).\n", epsilon,
              robust.ledger.TotalEpsilon(),
              least_squares.ledger.TotalEpsilon());
  return 0;
}
