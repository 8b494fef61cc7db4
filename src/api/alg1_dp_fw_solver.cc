// Algorithm 1 (heavy-tailed DP Frank-Wolfe) behind the Solver facade; the
// precondition checks live in the non-aborting TryFit contract.

#include <cmath>
#include <cstddef>

#include "api/solver_common.h"
#include "obs/trace.h"
#include "api/solvers.h"
#include "dp/accountant.h"
#include "dp/exponential_mechanism.h"
#include "util/check.h"
#include "util/timer.h"

namespace htdp {
namespace {

class Alg1DpFwSolver final : public Solver {
 public:
  std::string name() const override { return "alg1_dp_fw"; }
  std::string description() const override {
    return "Alg.1 heavy-tailed DP Frank-Wolfe over a polytope (pure eps-DP, "
           "Catoni robust gradients + exponential mechanism on disjoint "
           "folds)";
  }
  AlgorithmId algorithm() const override { return AlgorithmId::kDpFw; }
  bool requires_constraint() const override { return true; }
  bool supports_pure_dp() const override { return true; }

  StatusOr<FitResult> TryFit(const Problem& problem, const SolverSpec& spec,
                             Rng& rng) const override {
    const WallTimer timer;
    HTDP_RETURN_IF_ERROR(ValidateProblem(*this, problem, spec));
    const DatasetView data = problem.View();
    const Polytope& polytope = *problem.constraint;
    const Loss& loss = *problem.loss;
    const Vector w0 = problem.InitialIterate();
    HTDP_RETURN_IF_ERROR(CheckBetaPositive(spec.beta));
    HTDP_RETURN_IF_ERROR(CheckRobustGradientLoss(*this, loss, data, w0));

    HTDP_ASSIGN_OR_RETURN(const SolverSpec resolved,
                          TryResolveSpec(*this, problem, spec));
    // One full-budget release per disjoint fold (parallel composition):
    // every backend hands a single release the whole budget unchanged.
    const PrivacyAccountant& accountant = GetAccountant(resolved.accounting);
    const StepBudget release =
        accountant.StepBudgetFor(resolved.budget, /*steps=*/1);
    const double epsilon = release.epsilon;
    const int iterations = resolved.iterations;
    HTDP_ASSIGN_OR_RETURN(const FoldedRobustPlan plan,
                          TryMakeFoldedRobustPlan(data, resolved));

    FitResult result;
    result.w = w0;
    result.iterations = iterations;
    result.scale_used = resolved.scale;
    result.ledger.SetAccounting(resolved.accounting, resolved.budget.delta);
    // One ledger entry per iteration; reserving up front keeps the fit loop
    // free of heap allocations after the first iteration warms the
    // workspace buffers.
    result.ledger.Reserve(static_cast<std::size_t>(iterations));

    SolverWorkspace ws;
    for (int t = 1; t <= iterations; ++t) {
      if (StopRequested(resolved)) return CancelledStatus(*this);
      HTDP_TRACE_SPAN("alg1.iteration");
      const DatasetView& fold = plan.folds[static_cast<std::size_t>(t - 1)];
      plan.estimator.Estimate(loss, fold, result.w, ws.robust_grad,
                              &ws.gradient);

      // Score u(D_t, v) = -<v, g~>; sensitivity ||v||_1 * (4 sqrt(2) s)/(3 m).
      const double sensitivity =
          polytope.MaxVertexL1Norm() * plan.estimator.Sensitivity(fold.size());
      const ExponentialMechanism mechanism(sensitivity, epsilon);
      polytope.VertexInnerProducts(ws.robust_grad, ws.scores);
      for (double& value : ws.scores) value = -value;
      const std::size_t pick =
          resolved.simd_select ? mechanism.SelectGumbelSimd(ws.scores, rng)
                               : mechanism.SelectGumbel(ws.scores, rng);
      result.ledger.Record({"exponential", epsilon, 0.0, sensitivity,
                            /*fold=*/t - 1});

      double eta;
      if (resolved.diminishing_step) {
        eta = 2.0 / (static_cast<double>(t) + 2.0);
      } else if (resolved.fixed_step > 0.0) {
        eta = resolved.fixed_step;
      } else {
        eta = 1.0 / std::sqrt(static_cast<double>(iterations));
      }
      polytope.ApplyConvexStep(pick, eta, result.w);

      if (resolved.record_risk_trace) {
        result.risk_trace.push_back(EmpiricalRisk(loss, data, result.w));
      }
      NotifyObserver(resolved, t, iterations, result.w, result.ledger);
    }
    result.seconds = timer.ElapsedSeconds();
    return result;
  }
};

}  // namespace

std::unique_ptr<Solver> CreateAlg1DpFwSolver() {
  return std::make_unique<Alg1DpFwSolver>();
}

}  // namespace htdp
