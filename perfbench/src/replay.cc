#include "replay.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/solver_common.h"
#include "core/peeling.h"
#include "dp/accountant.h"
#include "dp/exponential_mechanism.h"
#include "dp/gaussian_mechanism.h"
#include "linalg/projections.h"
#include "losses/squared_loss.h"
#include "optim/pgd.h"
#include "robust/catoni.h"
#include "robust/shrinkage.h"
#include "util/simd.h"

namespace htdp::perfbench {
namespace {

// The robust-mean kernels hand the Catoni batch kernel stack blocks of this
// many elements (kSimdBlock in robust/robust_mean.cc); lane groups and
// tails are counted per block.
constexpr std::size_t kCatoniBlock = 256;

// Classifies one Estimate call's input rows exactly as the batched kernel
// sees them: the per-sample gradient row (fused GLM row when the loss has
// one), then a = x / scale, b = |a| / sqrt(beta) per element.
void CountEstimateInputs(const Loss& loss, const DatasetView& fold,
                         const Vector& w,
                         const RobustGradientEstimator& estimator,
                         CatoniCensus& census) {
  const std::size_t d = w.size();
  const std::size_t lanes =
      estimator.simd() ? static_cast<std::size_t>(SimdInfo().lanes) : 1;
  const double scale = estimator.scale();
  const double sqrt_beta = std::sqrt(estimator.beta());
  const double ridge = loss.RidgeCoefficient();
  Vector row(d, 0.0);
  std::vector<char> cold(d, 0);
  for (std::size_t i = 0; i < fold.size(); ++i) {
    double glm_scale = 0.0;
    if (loss.GradientAsScaledFeature(fold.Row(i), fold.Label(i), w,
                                     &glm_scale)) {
      ScaledSumKernel(glm_scale, fold.Row(i), ridge, w.data(), row.data(), d);
    } else {
      loss.Gradient(fold.Row(i), fold.Label(i), w, row);
    }
    for (std::size_t j = 0; j < d; ++j) {
      const double a = row[j] / scale;
      const double abs_a = std::abs(a);
      const double b = abs_a / sqrt_beta;
      cold[j] = catoni_internal::ClosedFormApplies(abs_a, b) ? 0 : 1;
      census.cold_elements += static_cast<std::uint64_t>(cold[j]);
      if (cold[j] != 0 && b >= catoni_internal::kTinyB) ++census.split_elements;
    }
    census.elements += d;
    for (std::size_t base = 0; base < d; base += kCatoniBlock) {
      const std::size_t m = std::min(kCatoniBlock, d - base);
      std::size_t j = 0;
      for (; j + lanes <= m; j += lanes) {
        ++census.groups;
        const auto first = cold.begin() + static_cast<long>(base + j);
        if (std::any_of(first, first + static_cast<long>(lanes),
                        [](char c) { return c != 0; })) {
          ++census.spill_groups;
        }
      }
      if (j < m) {  // block tail: always the scalar path
        ++census.groups;
        ++census.spill_groups;
      }
    }
  }
  ++census.estimate_calls;
  census.estimate_rows += fold.size();
  census.estimate_elements += fold.size() * d;
}

// Shared state of one replayed fit.
struct ReplayContext {
  Tracer& tracer;
  bool census;
  ReplayResult* out;
  std::string* error;

  bool Fail(const Status& status) {
    *error = status.ToString();
    return false;
  }

  void Estimate(const RobustGradientEstimator& estimator, const Loss& loss,
                const DatasetView& fold, const Vector& w, Vector& grad,
                RobustGradientWorkspace& ws) {
    tracer.Span(kRobust, [&] { estimator.Estimate(loss, fold, w, grad, &ws); });
    if (census) {
      tracer.Exclude(
          [&] { CountEstimateInputs(loss, fold, w, estimator, out->census); });
    }
  }

  void Select(const Polytope& polytope, const ExponentialMechanism& mechanism,
              bool simd_select, const Vector& grad, Vector& scores, Rng& rng,
              std::size_t* pick) {
    tracer.Span(kSelect, [&] {
      polytope.VertexInnerProducts(grad, scores);
      for (double& value : scores) value = -value;
      *pick = simd_select ? mechanism.SelectGumbelSimd(scores, rng)
                          : mechanism.SelectGumbel(scores, rng);
    });
  }
};

bool ReplayAlg1(const Solver& solver, const Problem& problem,
                const SolverSpec& spec, Rng& rng, ReplayContext& ctx) {
  Status status = Status::Ok();
  SolverSpec resolved;
  std::optional<FoldedRobustPlan> plan;
  double epsilon = 0.0;
  ctx.tracer.Span(kResolve, [&] {
    status = ValidateProblem(solver, problem, spec);
    if (status.ok()) status = CheckBetaPositive(spec.beta);
    if (!status.ok()) return;
    StatusOr<SolverSpec> r = TryResolveSpec(solver, problem, spec);
    if (!r.ok()) {
      status = r.status();
      return;
    }
    resolved = std::move(r).value();
    epsilon = GetAccountant(resolved.accounting)
                  .StepBudgetFor(resolved.budget, 1)
                  .epsilon;
    StatusOr<FoldedRobustPlan> p =
        TryMakeFoldedRobustPlan(problem.View(), resolved);
    if (!p.ok()) {
      status = p.status();
      return;
    }
    plan.emplace(std::move(p).value());
  });
  if (!status.ok()) return ctx.Fail(status);
  const Polytope& polytope = *problem.constraint;
  Vector w = problem.InitialIterate();
  PrivacyLedger ledger;
  ledger.SetAccounting(resolved.accounting, resolved.budget.delta);
  SolverWorkspace ws;
  for (int t = 1; t <= resolved.iterations; ++t) {
    const DatasetView& fold = plan->folds[static_cast<std::size_t>(t - 1)];
    ctx.Estimate(plan->estimator, *problem.loss, fold, w, ws.robust_grad,
                 ws.gradient);
    const double sensitivity =
        polytope.MaxVertexL1Norm() * plan->estimator.Sensitivity(fold.size());
    const ExponentialMechanism mechanism(sensitivity, epsilon);
    std::size_t pick = 0;
    ctx.Select(polytope, mechanism, resolved.simd_select, ws.robust_grad,
               ws.scores, rng, &pick);
    ledger.Record({"exponential", epsilon, 0.0, sensitivity, t - 1});
    double eta;
    if (resolved.diminishing_step) {
      eta = 2.0 / (static_cast<double>(t) + 2.0);
    } else if (resolved.fixed_step > 0.0) {
      eta = resolved.fixed_step;
    } else {
      eta = 1.0 / std::sqrt(static_cast<double>(resolved.iterations));
    }
    ctx.tracer.Span(kStep, [&] { polytope.ApplyConvexStep(pick, eta, w); });
  }
  ctx.out->w = std::move(w);
  return true;
}

bool ReplayAlg2(const Solver& solver, const Problem& problem,
                const SolverSpec& spec, Rng& rng, ReplayContext& ctx) {
  Status status = Status::Ok();
  SolverSpec resolved;
  ctx.tracer.Span(kResolve, [&] {
    status = ValidateProblem(solver, problem, spec);
    if (!status.ok()) return;
    StatusOr<SolverSpec> r = TryResolveSpec(solver, problem, spec);
    if (!r.ok()) {
      status = r.status();
      return;
    }
    resolved = std::move(r).value();
  });
  if (!status.ok()) return ctx.Fail(status);
  const DatasetView data = problem.View();
  const Polytope& polytope = *problem.constraint;
  const int iterations = resolved.iterations;
  const double shrinkage = resolved.shrinkage;
  Dataset shrunken;
  ctx.tracer.Span(kShrink, [&] { shrunken = ShrinkDataset(data, shrinkage); });
  const double k2 = shrinkage * shrinkage;
  const double vertex_norm = polytope.MaxVertexL1Norm();
  const double sensitivity = 4.0 * k2 * vertex_norm * (vertex_norm + 1.0) /
                             static_cast<double>(data.size());
  const StepBudget step = GetAccountant(resolved.accounting)
                              .StepBudgetFor(resolved.budget, iterations);
  const ExponentialMechanism mechanism(sensitivity, step.epsilon);
  const SquaredLoss loss;
  const DatasetView shrunken_view = FullView(shrunken);
  Vector w = problem.InitialIterate();
  PrivacyLedger ledger;
  ledger.SetAccounting(resolved.accounting, resolved.budget.delta);
  SolverWorkspace ws;
  for (int t = 1; t <= iterations; ++t) {
    ctx.tracer.Span(kGradient, [&] {
      EmpiricalGradient(loss, shrunken_view, w, ws.robust_grad);
    });
    std::size_t pick = 0;
    ctx.Select(polytope, mechanism, resolved.simd_select, ws.robust_grad,
               ws.scores, rng, &pick);
    ledger.Record({"exponential", step.epsilon, step.delta, sensitivity, -1});
    const double eta = 2.0 / (static_cast<double>(t) + 2.0);
    ctx.tracer.Span(kStep, [&] { polytope.ApplyConvexStep(pick, eta, w); });
  }
  ctx.out->w = std::move(w);
  return true;
}

bool ReplayAlg3(const Solver& solver, const Problem& problem,
                const SolverSpec& spec, Rng& rng, ReplayContext& ctx) {
  Status status = Status::Ok();
  SolverSpec resolved;
  const double step = spec.StepOr(0.5);
  const DatasetView data = problem.View();
  ctx.tracer.Span(kResolve, [&] {
    status = ValidateProblem(solver, problem, spec);
    if (status.ok()) status = CheckStepPositive(step);
    if (!status.ok()) return;
    StatusOr<SolverSpec> r = TryResolveSpec(solver, problem, spec);
    if (!r.ok()) {
      status = r.status();
      return;
    }
    resolved = std::move(r).value();
    status = CheckSparsityWithinDim(resolved.sparsity, data.dim());
    if (status.ok()) {
      status = CheckFoldsFitSamples(resolved.iterations, data.size());
    }
  });
  if (!status.ok()) return ctx.Fail(status);
  const int iterations = resolved.iterations;
  const std::size_t sparsity = resolved.sparsity;
  const double shrinkage = resolved.shrinkage;
  Dataset shrunken;
  ctx.tracer.Span(kShrink, [&] { shrunken = ShrinkDataset(data, shrinkage); });
  std::vector<DatasetView> folds;
  ctx.tracer.Span(kResolve, [&] {
    folds = SplitIntoFolds(shrunken, static_cast<std::size_t>(iterations));
  });
  const StepBudget release =
      GetAccountant(resolved.accounting).StepBudgetFor(resolved.budget, 1);
  PrivacyLedger ledger;
  ledger.SetAccounting(resolved.accounting, resolved.budget.delta);
  const std::size_t d = data.dim();
  const double k2 = shrinkage * shrinkage;
  Vector w = problem.InitialIterate();
  SolverWorkspace ws;
  Vector& grad = ws.robust_grad;
  grad.assign(d, 0.0);
  for (int t = 0; t < iterations; ++t) {
    const DatasetView& fold = folds[static_cast<std::size_t>(t)];
    const std::size_t m = fold.size();
    ctx.tracer.Span(kGradient, [&] {
      SetZero(grad);
      for (std::size_t i = 0; i < m; ++i) {
        const double* row = fold.Row(i);
        const double residual = Dot(row, w.data(), d) - fold.Label(i);
        AxpyKernel(residual, row, grad.data(), d);
      }
    });
    ctx.tracer.Span(kStep, [&] {
      ws.w_half = w;
      Axpy(-step / static_cast<double>(m), grad, ws.w_half);
    });
    PeelingOptions peeling;
    peeling.sparsity = sparsity;
    peeling.epsilon = release.epsilon;
    peeling.delta = release.delta;
    peeling.linf_sensitivity =
        2.0 * k2 * step * (std::sqrt(static_cast<double>(sparsity)) + 1.0) /
        static_cast<double>(m);
    PeelingResult peeled;
    ctx.tracer.Span(kPeel,
                    [&] { peeled = Peel(ws.w_half, peeling, rng, &ledger, t); });
    ctx.tracer.Span(kStep, [&] {
      w = peeled.value;
      ProjectOntoL2Ball(1.0, w);
    });
  }
  ctx.out->w = std::move(w);
  return true;
}

// alg4's shrunken coordinate-wise mean, nearly the whole fit's cost. A
// function of its own, written as the solver writes it: inlined into the
// span's lambda, the loop ran about 20% slower than the solver's. It still
// compiles separately from the solver's loop, so the two can run at
// different speeds (see the self-test section of README.md).
[[gnu::noinline]] void ShrunkenMean(const DatasetView& data, double shrinkage,
                                    Vector& v) {
  const std::size_t n = data.size();
  const std::size_t d = data.dim();
  v.assign(d, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = data.Row(i);
    for (std::size_t j = 0; j < d; ++j) v[j] += Shrink(row[j], shrinkage);
  }
  Scale(1.0 / static_cast<double>(n), v);
}

bool ReplayAlg4(const Solver& solver, const Problem& problem,
                const SolverSpec& spec, Rng& rng, ReplayContext& ctx) {
  Status status = Status::Ok();
  SolverSpec resolved;
  ctx.tracer.Span(kResolve, [&] {
    status = ValidateProblem(solver, problem, spec);
    if (!status.ok()) return;
    StatusOr<SolverSpec> r = TryResolveSpec(solver, problem, spec);
    if (!r.ok()) {
      status = r.status();
      return;
    }
    resolved = std::move(r).value();
  });
  if (!status.ok()) return ctx.Fail(status);
  const DatasetView data = problem.View();
  const std::size_t n = data.size();
  const double shrinkage = resolved.shrinkage;
  SolverWorkspace ws;
  Vector& v = ws.robust_grad;
  ctx.tracer.Span(kShrink, [&] { ShrunkenMean(data, shrinkage, v); });
  const StepBudget release =
      GetAccountant(resolved.accounting).StepBudgetFor(resolved.budget, 1);
  PeelingOptions peeling;
  peeling.sparsity = resolved.sparsity;
  peeling.epsilon = release.epsilon;
  peeling.delta = release.delta;
  peeling.linf_sensitivity = 2.0 * shrinkage / static_cast<double>(n);
  PrivacyLedger ledger;
  ledger.SetAccounting(resolved.accounting, resolved.budget.delta);
  PeelingResult peeled;
  ctx.tracer.Span(kPeel, [&] { peeled = Peel(v, peeling, rng, &ledger, -1); });
  ctx.out->w = std::move(peeled.value);
  return true;
}

bool ReplayAlg5(const Solver& solver, const Problem& problem,
                const SolverSpec& spec, Rng& rng, ReplayContext& ctx) {
  Status status = Status::Ok();
  SolverSpec resolved;
  std::optional<FoldedRobustPlan> plan;
  const double step = spec.StepOr(0.5);
  ctx.tracer.Span(kResolve, [&] {
    status = ValidateProblem(solver, problem, spec);
    if (status.ok()) status = CheckStepPositive(step);
    if (status.ok()) status = CheckBetaPositive(spec.beta);
    if (!status.ok()) return;
    StatusOr<SolverSpec> r = TryResolveSpec(solver, problem, spec);
    if (!r.ok()) {
      status = r.status();
      return;
    }
    resolved = std::move(r).value();
    status = CheckSparsityWithinDim(resolved.sparsity, problem.dim());
    if (!status.ok()) return;
    StatusOr<FoldedRobustPlan> p =
        TryMakeFoldedRobustPlan(problem.View(), resolved);
    if (!p.ok()) {
      status = p.status();
      return;
    }
    plan.emplace(std::move(p).value());
  });
  if (!status.ok()) return ctx.Fail(status);
  const StepBudget release =
      GetAccountant(resolved.accounting).StepBudgetFor(resolved.budget, 1);
  PrivacyLedger ledger;
  ledger.SetAccounting(resolved.accounting, resolved.budget.delta);
  Vector w = problem.InitialIterate();
  SolverWorkspace ws;
  for (int t = 0; t < resolved.iterations; ++t) {
    const DatasetView& fold = plan->folds[static_cast<std::size_t>(t)];
    const std::size_t m = fold.size();
    ctx.Estimate(plan->estimator, *problem.loss, fold, w, ws.robust_grad,
                 ws.gradient);
    ctx.tracer.Span(kStep, [&] {
      ws.w_half = w;
      Axpy(-step, ws.robust_grad, ws.w_half);
    });
    PeelingOptions peeling;
    peeling.sparsity = resolved.sparsity;
    peeling.epsilon = release.epsilon;
    peeling.delta = release.delta;
    peeling.linf_sensitivity = 4.0 * std::sqrt(2.0) * resolved.scale * step /
                               static_cast<double>(m);
    PeelingResult peeled;
    ctx.tracer.Span(kPeel,
                    [&] { peeled = Peel(ws.w_half, peeling, rng, &ledger, t); });
    w = std::move(peeled.value);
  }
  ctx.out->w = std::move(w);
  return true;
}

bool ReplayBaseline(const Solver& solver, const Problem& problem,
                    const SolverSpec& spec, Rng& rng, ReplayContext& ctx) {
  Status status = Status::Ok();
  SolverSpec resolved;
  std::optional<FoldedRobustPlan> plan;
  ctx.tracer.Span(kResolve, [&] {
    status = ValidateProblem(solver, problem, spec);
    if (status.ok()) status = CheckBetaPositive(spec.beta);
    if (!status.ok()) return;
    StatusOr<SolverSpec> r = TryResolveSpec(solver, problem, spec);
    if (!r.ok()) {
      status = r.status();
      return;
    }
    resolved = std::move(r).value();
    StatusOr<FoldedRobustPlan> p =
        TryMakeFoldedRobustPlan(problem.View(), resolved);
    if (!p.ok()) {
      status = p.status();
      return;
    }
    plan.emplace(std::move(p).value());
  });
  if (!status.ok()) return ctx.Fail(status);
  PgdOptions projection;
  projection.projection = resolved.projection;
  projection.radius = resolved.radius;
  const GaussianCalibration calibration =
      GetAccountant(resolved.accounting).GaussianFor(resolved.budget, 1);
  PrivacyLedger ledger;
  ledger.SetAccounting(resolved.accounting, resolved.budget.delta);
  const std::size_t d = problem.dim();
  Vector w = problem.InitialIterate();
  SolverWorkspace ws;
  Vector& grad = ws.robust_grad;
  for (int t = 1; t <= resolved.iterations; ++t) {
    const DatasetView& fold = plan->folds[static_cast<std::size_t>(t - 1)];
    ctx.Estimate(plan->estimator, *problem.loss, fold, w, grad, ws.gradient);
    const double l2_sensitivity = std::sqrt(static_cast<double>(d)) *
                                  plan->estimator.Sensitivity(fold.size());
    ctx.tracer.Span(kPrivatize, [&] {
      const GaussianMechanism mechanism =
          calibration.sigma_multiplier > 0.0
              ? GaussianMechanism::WithSigma(l2_sensitivity *
                                             calibration.sigma_multiplier)
              : GaussianMechanism(l2_sensitivity, calibration.step_epsilon,
                                  calibration.step_delta);
      if (resolved.vector_noise_fill) {
        mechanism.PrivatizeInPlaceFilled(grad, ws.noise, rng);
      } else {
        mechanism.PrivatizeInPlace(grad, rng);
      }
    });
    ledger.Record({"gaussian", calibration.step_epsilon,
                   calibration.step_delta, l2_sensitivity, t - 1,
                   calibration.rho});
    const double eta = resolved.step > 0.0
                           ? resolved.step
                           : 2.0 / (static_cast<double>(t) + 2.0);
    ctx.tracer.Span(kStep, [&] {
      Axpy(-eta, grad, w);
      ApplyProjection(projection, w);
    });
  }
  ctx.out->w = std::move(w);
  return true;
}

}  // namespace

const char* LayerMetric(Layer layer) {
  static constexpr const char* kNames[kLayerCount] = {
      "api.resolve_ms",   "data.shrink_ms", "robust.estimate_ms",
      "losses.gradient_ms", "dp.select_ms",  "dp.privatize_ms",
      "peeling.peel_ms",  "optim.step_ms"};
  return kNames[layer];
}

std::uint64_t Tracer::Now() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

void CatoniCensus::Add(const CatoniCensus& other) {
  elements += other.elements;
  cold_elements += other.cold_elements;
  split_elements += other.split_elements;
  groups += other.groups;
  spill_groups += other.spill_groups;
  estimate_calls += other.estimate_calls;
  estimate_rows += other.estimate_rows;
  estimate_elements += other.estimate_elements;
}

bool ReplayFit(const Solver& solver, const Problem& problem,
               const SolverSpec& spec, Rng rng, Tracer& tracer, bool census,
               ReplayResult* out, std::string* error) {
  using ReplayFn = bool (*)(const Solver&, const Problem&, const SolverSpec&,
                            Rng&, ReplayContext&);
  ReplayFn fn = nullptr;
  switch (solver.algorithm()) {
    case AlgorithmId::kDpFw: fn = ReplayAlg1; break;
    case AlgorithmId::kPrivateLasso: fn = ReplayAlg2; break;
    case AlgorithmId::kSparseLinReg: fn = ReplayAlg3; break;
    case AlgorithmId::kPeeling: fn = ReplayAlg4; break;
    case AlgorithmId::kSparseOpt: fn = ReplayAlg5; break;
    case AlgorithmId::kRobustGd: fn = ReplayBaseline; break;
  }
  if (fn == nullptr) {
    *error = "no replay for solver " + solver.name();
    return false;
  }
  *out = ReplayResult{};
  ReplayContext ctx{tracer, census, out, error};
  const std::size_t first_span = tracer.spans().size();
  const std::uint64_t excluded_before = tracer.excluded_ns();
  const std::uint64_t start = Tracer::Now();
  if (!fn(solver, problem, spec, rng, ctx)) return false;
  const std::uint64_t wall_ns =
      Tracer::Now() - start - (tracer.excluded_ns() - excluded_before);
  out->wall_ms = 1e-6 * static_cast<double>(wall_ns);
  double spans_ms = 0.0;
  for (std::size_t i = first_span; i < tracer.spans().size(); ++i) {
    const SpanRecord& s = tracer.spans()[i];
    const double ms = 1e-6 * static_cast<double>(s.end_ns - s.start_ns);
    out->layer_ms[s.layer] += ms;
    spans_ms += ms;
  }
  out->rest_ms = out->wall_ms - spans_ms;
  return true;
}

double EstimateCeilingNsPerElem(const Loss& loss, const Dataset& data,
                                std::size_t rows, double scale, int reps) {
  rows = std::min(rows, data.size());
  const RobustGradientEstimator estimator(scale, 1.0);
  const DatasetView view{&data, 0, rows};
  const Vector w(data.dim(), 0.0);
  Vector out;
  RobustGradientWorkspace ws;
  estimator.Estimate(loss, view, w, out, &ws);  // warm the workspace
  std::vector<double> ns;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t start = Tracer::Now();
    estimator.Estimate(loss, view, w, out, &ws);
    ns.push_back(static_cast<double>(Tracer::Now() - start));
  }
  return Median(ns) / static_cast<double>(rows * data.dim());
}

}  // namespace htdp::perfbench
