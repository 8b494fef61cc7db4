// Algorithm 2 (shrunken-data heavy-tailed private LASSO) behind the Solver
// facade; squared loss by construction. The precondition checks live in the
// non-aborting TryFit contract.

#include <cstddef>

#include "api/solver_common.h"
#include "obs/trace.h"
#include "api/solvers.h"
#include "dp/accountant.h"
#include "dp/exponential_mechanism.h"
#include "losses/squared_loss.h"
#include "util/check.h"
#include "util/timer.h"

namespace htdp {
namespace {

class Alg2PrivateLassoSolver final : public Solver {
 public:
  std::string name() const override { return "alg2_private_lasso"; }
  std::string description() const override {
    return "Alg.2 heavy-tailed private LASSO ((eps,delta)-DP, entrywise "
           "shrinkage + DP Frank-Wolfe with advanced composition; squared "
           "loss by construction)";
  }
  AlgorithmId algorithm() const override {
    return AlgorithmId::kPrivateLasso;
  }
  bool requires_constraint() const override { return true; }
  bool requires_loss() const override { return false; }

  StatusOr<FitResult> TryFit(const Problem& problem, const SolverSpec& spec,
                             Rng& rng) const override {
    const WallTimer timer;
    HTDP_RETURN_IF_ERROR(ValidateProblem(*this, problem, spec));
    const DatasetView data = problem.View();
    const Polytope& polytope = *problem.constraint;
    const Vector w0 = problem.InitialIterate();

    HTDP_ASSIGN_OR_RETURN(const SolverSpec resolved,
                          TryResolveSpec(*this, problem, spec));
    const int iterations = resolved.iterations;
    const double shrinkage = resolved.shrinkage;

    // Step 2: entrywise shrinkage of the training samples.
    const Dataset shrunken = ShrinkDataset(data, shrinkage);

    const std::size_t n = data.size();
    const double k2 = shrinkage * shrinkage;
    const double vertex_norm = polytope.MaxVertexL1Norm();
    // |2 x~_j (<x~, w> - y~)| <= 2 K^2 (V + 1); replacing one sample moves
    // the average by twice that over n, and the score by ||v||_1 times that.
    const double sensitivity =
        4.0 * k2 * vertex_norm * (vertex_norm + 1.0) / static_cast<double>(n);
    // All T selection steps touch the same shrunken dataset, so the spec's
    // accounting backend splits the budget: advanced (default) reproduces
    // the historical Lemma-2 arithmetic bit for bit; zcdp funds a strictly
    // larger per-step epsilon -- a colder softmax, i.e. less selection
    // noise -- at the same end-to-end (epsilon, delta).
    const StepBudget step = GetAccountant(resolved.accounting)
                                .StepBudgetFor(resolved.budget, iterations);
    const double step_epsilon = step.epsilon;
    const ExponentialMechanism mechanism(sensitivity, step_epsilon);
    const double step_delta = step.delta;

    const SquaredLoss loss;
    const DatasetView shrunken_view = FullView(shrunken);

    FitResult result;
    result.w = w0;
    result.iterations = iterations;
    result.shrinkage_used = shrinkage;
    result.ledger.SetAccounting(resolved.accounting, resolved.budget.delta);

    result.ledger.Reserve(static_cast<std::size_t>(iterations));
    SolverWorkspace ws;
    for (int t = 1; t <= iterations; ++t) {
      if (StopRequested(resolved)) return CancelledStatus(*this);
      HTDP_TRACE_SPAN("alg2.iteration");
      // g~ = (2/n) sum_i x~_i (<x~_i, w> - y~_i), the exact gradient of the
      // squared loss on the shrunken data.
      EmpiricalGradient(loss, shrunken_view, result.w, ws.robust_grad);
      polytope.VertexInnerProducts(ws.robust_grad, ws.scores);
      for (double& value : ws.scores) value = -value;
      const std::size_t pick =
          resolved.simd_select ? mechanism.SelectGumbelSimd(ws.scores, rng)
                               : mechanism.SelectGumbel(ws.scores, rng);
      result.ledger.Record({"exponential", step_epsilon, step_delta,
                            sensitivity, /*fold=*/-1});

      const double eta = 2.0 / (static_cast<double>(t) + 2.0);
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

std::unique_ptr<Solver> CreateAlg2PrivateLassoSolver() {
  return std::make_unique<Alg2PrivateLassoSolver>();
}

}  // namespace htdp
