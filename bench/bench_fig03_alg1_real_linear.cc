// Figure 3: Algorithm 1 on (simulated) real-world regression datasets --
// Blog Feedback (n=60021, d=281) and Twitter (n=583249, d=77).
//
// Protocol per Section 6.2: the dataset is fixed; w* is the non-private
// Frank-Wolfe minimizer over the unit l1 ball on the full data; the private
// error is reported for growing prefixes n and several epsilon. The genuine
// UCI files are not redistributable here, so data/real_world_sim.h provides
// heavy-tailed correlated stand-ins with the paper's (n, d) (see
// "Deviations from the paper" in README.md); drop the real CSVs in with
// data/csv.h to reproduce exactly.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"

namespace {

using namespace htdp;
using namespace htdp::bench;

void RunDataset(const RealWorldSpec& spec, const BenchEnv& env) {
  const std::unique_ptr<Solver> solver =
      SolverRegistry::Global().Create(kSolverAlg1DpFw);
  Rng rng(env.seed);
  const std::size_t cap = ScaledN(spec.n, env, /*floor_n=*/5000);
  const Dataset full = SimulateRealWorld(spec, cap, rng);
  const std::size_t d = full.dim();
  const SquaredLoss loss;
  const L1Ball ball(d, 1.0);

  FrankWolfeOptions fw;
  fw.iterations = 80;
  const Vector w_ref =
      MinimizeFrankWolfe(loss, full, ball, Vector(d, 0.0), fw).w;
  const double ref_risk = EmpiricalRisk(loss, full, w_ref);

  PrintSection(spec.name + "  (simulated stand-in, n_cap = " +
               std::to_string(cap) + ", d = " + std::to_string(d) + ")");
  TablePrinter table({"n", "eps=0.5", "eps=1", "eps=2"});
  table.PrintHeader();
  for (const double fraction : {0.2, 0.4, 0.7, 1.0}) {
    const std::size_t n =
        std::max<std::size_t>(1000, static_cast<std::size_t>(
                                        fraction * static_cast<double>(cap)));
    // The protocol's growing-prefix subset, as a non-owning view: the fit
    // runs on Problem.prefix (no per-point deep copy of the dataset).
    const DatasetView subset = PrefixView(full, n);
    std::vector<std::string> row = {TablePrinter::Cell(n)};
    for (const double epsilon : {0.5, 1.0, 2.0}) {
      const Summary summary = RunTrials(
          env.trials, env.seed + n + static_cast<std::uint64_t>(10 * epsilon),
          [&](std::uint64_t seed) {
            Rng trial_rng(seed);
            Problem problem = Problem::ConstrainedErm(loss, full, ball);
            problem.prefix = n;
            SolverSpec solver_spec;
            solver_spec.budget = PrivacyBudget::Pure(epsilon);
            solver_spec.tau = EstimateGradientSecondMoment(
                loss, subset, Vector(d, 0.0));
            const FitResult result =
                solver->Fit(problem, solver_spec, trial_rng);
            return EmpiricalRisk(loss, full, result.w) - ref_risk;
          });
      row.push_back(MeanStd(summary));
    }
    table.PrintRow(row);
  }
}

}  // namespace

int main() {
  const BenchEnv env = GetBenchEnv();
  PrintBanner("Figure 3", "Alg.1, linear regression, real-data stand-ins",
              env);
  RunDataset(BlogFeedbackSpec(), env);
  RunDataset(TwitterSpec(), env);
  return 0;
}
