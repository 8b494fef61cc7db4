#include "api/solver_common.h"

#include <atomic>
#include <cmath>
#include <cstddef>
#include <string>

#include "robust/shrinkage.h"
#include "util/check.h"
#include "util/parallel.h"

namespace htdp {
namespace {

// Index of the first non-finite value in [p, p + n), or n when there is
// none. v - v is 0 for a finite v and NaN otherwise, so the all-finite case
// is a branch-free sum into eight accumulators that the compiler
// vectorizes, which a std::isfinite loop does not. It is memory-bound, and
// one thread would add several ms to every figure-scale fit, so it is split
// across ParallelFor's threads.
std::size_t FirstNonFinite(const double* p, std::size_t n) {
  std::atomic<bool> all_finite{true};
  ParallelFor(
      n,
      [&](std::size_t i, std::size_t end) {
        double sums[8] = {};
        for (; i + 8 <= end; i += 8) {
          for (std::size_t k = 0; k < 8; ++k) sums[k] += p[i + k] - p[i + k];
        }
        for (; i < end; ++i) sums[0] += p[i] - p[i];
        double total = 0.0;
        for (const double sum : sums) total += sum;
        if (total != 0.0) all_finite.store(false, std::memory_order_relaxed);
      },
      std::size_t{1} << 16);
  if (all_finite.load(std::memory_order_relaxed)) return n;
  std::size_t i = 0;
  while (std::isfinite(p[i])) ++i;
  return i;
}

// kInvalidProblem naming the first non-finite entry of x, y or w0 within
// the rows the fit reads. One such value would otherwise reach the robust
// gradient and the peeling sort as NaN or inf.
Status CheckFinite(const Solver& solver, const Problem& problem) {
  const Dataset& data = *problem.data;
  const std::size_t rows = problem.size();
  const std::size_t d = data.dim();
  const auto reject = [&](const std::string& where, double value) {
    return Status::InvalidProblem(
        solver.name() + ": " + where + " is " + std::to_string(value) +
        "; every feature, label and w0 entry must be finite");
  };
  const double* x = data.x.data().data();
  if (const std::size_t i = FirstNonFinite(x, rows * d); i < rows * d) {
    return reject("x[row " + std::to_string(i / d) + ", column " +
                      std::to_string(i % d) + "]",
                  x[i]);
  }
  if (const std::size_t i = FirstNonFinite(data.y.data(), rows); i < rows) {
    return reject("y[row " + std::to_string(i) + "]", data.y[i]);
  }
  const std::size_t k = FirstNonFinite(problem.w0.data(), problem.w0.size());
  if (k < problem.w0.size()) {
    return reject("w0[column " + std::to_string(k) + "]", problem.w0[k]);
  }
  return Status::Ok();
}

}  // namespace

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
  HTDP_RETURN_IF_ERROR(CheckFinite(solver, problem));
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
