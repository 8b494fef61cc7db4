#include "api/solver_common.h"

#include <string>

#include "robust/shrinkage.h"
#include "util/check.h"

namespace htdp {

Status ValidateProblem(const Solver& solver, const Problem& problem,
                       const SolverSpec& spec) {
  if (problem.data == nullptr) {
    return Status::InvalidProblem(solver.name() +
                                  ": Problem.data must be set");
  }
  if (Status s = problem.data->Check(); !s.ok()) {
    return Status::WithCode(s.code(), solver.name() + ": " + s.message());
  }
  if (problem.prefix > problem.data->size()) {
    return Status::ShapeMismatch(
        solver.name() + ": Problem.prefix (" +
        std::to_string(problem.prefix) + ") exceeds data->size() (" +
        std::to_string(problem.data->size()) + ")");
  }
  if (solver.requires_loss() && problem.loss == nullptr) {
    return Status::InvalidProblem(solver.name() +
                                  ": Problem.loss must be set");
  }
  if (solver.requires_constraint() && problem.constraint == nullptr) {
    return Status::InvalidProblem(
        solver.name() + ": Problem.constraint (a Polytope) must be set");
  }
  if (solver.requires_sparsity() && problem.target_sparsity == 0 &&
      spec.sparsity == 0) {
    return Status::InvalidProblem(
        solver.name() +
        ": set Problem.target_sparsity (s*) or SolverSpec.sparsity (s)");
  }
  const std::size_t d = problem.data->dim();
  if (problem.constraint != nullptr && problem.constraint->dim() != d) {
    return Status::ShapeMismatch(
        solver.name() + ": constraint dim (" +
        std::to_string(problem.constraint->dim()) +
        ") must equal data dim (" + std::to_string(d) + ")");
  }
  if (!problem.w0.empty() && problem.w0.size() != d) {
    return Status::ShapeMismatch(
        solver.name() + ": w0 size (" + std::to_string(problem.w0.size()) +
        ") must equal data dim (" + std::to_string(d) + ")");
  }
  if (Status s = spec.budget.Check(); !s.ok()) {
    return Status::WithCode(s.code(), solver.name() + ": " + s.message());
  }
  if (!solver.supports_pure_dp() && !(spec.budget.delta > 0.0)) {
    return Status::BudgetExhausted(
        solver.name() + " satisfies (eps, delta)-DP and needs delta > 0; "
                        "set PrivacyBudget::Approx(epsilon, delta)");
  }
  return Status::Ok();
}

StatusOr<SolverSpec> TryResolveSpec(const Solver& solver,
                                    const Problem& problem,
                                    const SolverSpec& spec) {
  SolverSpec resolved = spec;
  resolved.algorithm = solver.algorithm();
  if (resolved.target_sparsity == 0) {
    resolved.target_sparsity = problem.target_sparsity;
  }
  if (problem.constraint != nullptr && resolved.num_vertices == 0) {
    resolved.num_vertices = problem.constraint->num_vertices();
  }

  if (Status s = resolved.Resolve(problem.size(), problem.dim()); !s.ok()) {
    return s;
  }
  return resolved;
}

Status CheckRobustGradientLoss(const Solver& solver, const Loss& loss,
                               const DatasetView& data, const Vector& w0) {
  double scale = 0.0;
  if (!loss.GradientAsScaledFeature(data.Row(0), data.Label(0), w0, &scale)) {
    return Status::InvalidProblem(
        solver.name() + ": loss '" + loss.Name() +
        "' has no scaled-feature gradient form "
        "(Loss::GradientAsScaledFeature), which the robust gradient needs");
  }
  return Status::Ok();
}

StatusOr<FoldedRobustPlan> TryMakeFoldedRobustPlan(
    const DatasetView& data, const SolverSpec& resolved) {
  HTDP_CHECK_GT(resolved.iterations, 0);  // Resolve never yields T < 1
  HTDP_RETURN_IF_ERROR(CheckFoldsFitSamples(resolved.iterations,
                                            data.size()));
  return FoldedRobustPlan{
      RobustGradientEstimator(resolved.scale, resolved.beta),
      SplitIntoFolds(data, static_cast<std::size_t>(resolved.iterations))};
}

Dataset ShrinkDataset(const Dataset& data, double threshold) {
  return ShrinkDataset(FullView(data), threshold);
}

Dataset ShrinkDataset(const DatasetView& view, double threshold) {
  Dataset shrunken;
  shrunken.x = view.data->x.RowSlice(view.begin, view.end);
  shrunken.y.assign(view.data->y.begin() + static_cast<long>(view.begin),
                    view.data->y.begin() + static_cast<long>(view.end));
  ShrinkInPlace(threshold, shrunken.x);
  ShrinkInPlace(threshold, shrunken.y);
  return shrunken;
}

Status CancelledStatus(const Solver& solver) {
  return Status::Cancelled(solver.name() +
                           ": stopped by SolverSpec::should_stop");
}

void NotifyObserver(const SolverSpec& spec, int iteration, int total,
                    const Vector& w, const PrivacyLedger& ledger) {
  if (!spec.observer) return;
  spec.observer(IterationEvent{iteration, total, w, ledger});
}

}  // namespace htdp
