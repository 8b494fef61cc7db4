// Ablation B: data splitting (pure eps-DP, Algorithm 1's choice) versus
// full-batch advanced composition ((eps, delta)-DP), the design trade-off
// discussed after Theorem 3.
//
// The split variant charges each disjoint fold the full epsilon but sees
// only m = n/T samples per robust gradient. The composition variant sees
// all n samples every iteration but must shrink each step's budget to
// eps / (2 sqrt(2 T log(1/delta))). Which wins depends on (n, eps, T) --
// this bench prints both across the epsilon grid.

#include <cstdio>
#include <vector>

#include "bench_common.h"

namespace {

using namespace htdp;
using namespace htdp::bench;

// Full-batch variant of Algorithm 1: robust gradient on ALL data each
// iteration + advanced composition across iterations.
double Alg1CompositionTrial(std::size_t n, std::size_t d, double epsilon,
                            const LinearWorkload& workload,
                            std::uint64_t seed) {
  Rng rng(seed);
  SyntheticConfig config{n, d, workload.features, workload.noise};
  const Vector w_star = MakeL1BallTarget(d, rng);
  const Dataset data = GenerateLinear(config, w_star, rng);
  const SquaredLoss loss;
  const L1Ball ball(d, 1.0);
  const double delta = PaperDelta(n);

  const double tau =
      EstimateGradientSecondMoment(loss, FullView(data), Vector(d, 0.0));
  Alg1Schedule schedule;
  const Status solved =
      TrySolveAlg1Schedule(n, d, PrivacyBudget::Pure(epsilon), tau,
                           ball.num_vertices(), 0.1, &schedule);
  HTDP_CHECK(solved.ok()) << solved.ToString();
  const int iterations = schedule.iterations;
  const double step_epsilon =
      AdvancedCompositionStepEpsilon(epsilon, delta, iterations);
  const RobustGradientEstimator estimator(schedule.scale, schedule.beta);
  const DatasetView view = FullView(data);

  Vector w(d, 0.0);
  Vector grad;
  Vector scores;
  for (int t = 1; t <= iterations; ++t) {
    estimator.Estimate(loss, view, w, grad);
    const double sensitivity =
        ball.MaxVertexL1Norm() * estimator.Sensitivity(n);
    const ExponentialMechanism mechanism(sensitivity, step_epsilon);
    ball.VertexInnerProducts(grad, scores);
    for (double& value : scores) value = -value;
    const std::size_t pick = mechanism.SelectGumbel(scores, rng);
    ball.ApplyConvexStep(pick, 2.0 / (static_cast<double>(t) + 2.0), w);
  }
  return ExcessEmpiricalRisk(loss, data, w, w_star);
}

}  // namespace

int main() {
  const BenchEnv env = GetBenchEnv();
  PrintBanner("Ablation B",
              "data splitting (eps-DP) vs advanced composition "
              "((eps,delta)-DP)",
              env);

  const LinearWorkload workload;
  const std::size_t d = 200;
  const std::size_t n = ScaledN(30000, env);

  PrintSection("excess risk, lognormal LASSO  (n = " + std::to_string(n) +
               ", d = " + std::to_string(d) + ")");
  TablePrinter table({"epsilon", "split", "composition"});
  table.PrintHeader();
  for (const double epsilon : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    const Summary split = RunTrials(
        env.trials, env.seed + static_cast<std::uint64_t>(100 * epsilon),
        [&](std::uint64_t seed) {
          return Alg1LinearTrial(n, d, epsilon, workload, seed);
        });
    const Summary composed = RunTrials(
        env.trials, env.seed + static_cast<std::uint64_t>(100 * epsilon),
        [&](std::uint64_t seed) {
          return Alg1CompositionTrial(n, d, epsilon, workload, seed);
        });
    table.PrintRow({TablePrinter::Cell(epsilon), MeanStd(split),
                    MeanStd(composed)});
  }

  std::printf(
      "\nReading: splitting keeps the full per-step budget but pays a\n"
      "1/sqrt(T) statistical price per fold; composition uses every sample\n"
      "per step but divides epsilon by ~2 sqrt(2 T log(1/delta)). The paper\n"
      "adopts splitting because the analysis of sup_w <v, g~ - grad L>\n"
      "breaks under data reuse -- empirically the variants are close.\n");
  return 0;
}
