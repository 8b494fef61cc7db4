#include "core/hyperparams.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <sstream>
#include <string>

namespace htdp {
namespace {

double SafeLog(double x) { return std::log(std::max(x, std::exp(1.0))); }

int ClampIterations(double t, std::size_t n) {
  // At least one iteration; never more folds than samples.
  const double capped =
      std::min(std::max(t, 1.0), static_cast<double>(n));
  return static_cast<int>(capped);
}

std::string Describe(const char* field, double value) {
  std::ostringstream out;
  out << field << "=" << value;
  return out.str();
}

// Shared strict validation of the inputs every schedule depends on: the
// typed PrivacyBudget check plus the fundability floor.
Status CheckCommon(std::size_t n, const PrivacyBudget& budget) {
  if (n == 0) return Status::Invalid("n must be > 0");
  if (Status s = budget.Check(); !s.ok()) return s;  // incl. finiteness
  if (static_cast<double>(n) * budget.epsilon < 1.0) {
    return Status::BudgetExhausted(
        Describe("privacy budget too small: need n * epsilon >= 1, got "
                 "n * epsilon",
                 static_cast<double>(n) * budget.epsilon));
  }
  return Status::Ok();
}

Status CheckZeta(double zeta) {
  if (!(zeta > 0.0) || zeta >= 1.0) {
    return Status::Invalid(Describe("zeta must lie in (0, 1); zeta", zeta));
  }
  return Status::Ok();
}

Status CheckTau(double tau) {
  if (!(tau > 0.0) || !std::isfinite(tau)) {
    return Status::Invalid(Describe("tau must be positive and finite; tau",
                                    tau));
  }
  return Status::Ok();
}

Status CheckScalePositive(const char* name, double value) {
  if (!(value > 0.0) || !std::isfinite(value)) {
    return Status::Invalid(Describe(name, value));
  }
  return Status::Ok();
}

// K = (n eps / (s T))^(1/4), Theorem 7 / Section 6.2.
double Alg3ShrinkageFor(std::size_t n, double epsilon, std::size_t sparsity,
                        int iterations) {
  const double s_t =
      static_cast<double>(sparsity) * static_cast<double>(iterations);
  return std::pow(static_cast<double>(n) * epsilon / s_t, 0.25);
}

// The schedule formulas. Each is reached only through its TrySolve*
// wrapper below, which validates every input first.
Alg1Schedule SolveAlg1Schedule(std::size_t n, std::size_t d, double epsilon,
                               double tau, std::size_t num_vertices,
                               double zeta) {
  Alg1Schedule schedule;
  const double n_eps = static_cast<double>(n) * epsilon;
  schedule.iterations = ClampIterations(std::floor(std::cbrt(n_eps)), n);
  const double t = static_cast<double>(schedule.iterations);
  const double log_term = SafeLog(static_cast<double>(num_vertices) *
                                  static_cast<double>(d) * t / zeta);
  schedule.scale = std::sqrt(n_eps * tau / (t * log_term));
  schedule.beta = 1.0;
  return schedule;
}

Alg1RobustSchedule SolveAlg1RobustSchedule(std::size_t n, std::size_t d,
                                           double epsilon, double zeta) {
  Alg1RobustSchedule schedule;
  const double n_eps = static_cast<double>(n) * epsilon;
  const double log_d = SafeLog(static_cast<double>(d) / zeta);
  schedule.iterations =
      ClampIterations(std::floor(std::sqrt(n_eps / log_d)), n);
  const double t = static_cast<double>(schedule.iterations);
  schedule.scale = std::sqrt(
      n_eps / (std::sqrt(t) * SafeLog(static_cast<double>(d) * t / zeta)));
  schedule.beta = 1.0;
  schedule.step = 1.0 / std::sqrt(t);
  return schedule;
}

Alg2Schedule SolveAlg2Schedule(std::size_t n, double epsilon) {
  Alg2Schedule schedule;
  const double n_eps = static_cast<double>(n) * epsilon;
  schedule.iterations =
      ClampIterations(std::ceil(std::pow(n_eps, 0.4)), n);
  schedule.shrinkage =
      std::pow(n_eps, 0.25) /
      std::pow(static_cast<double>(schedule.iterations), 0.125);
  return schedule;
}

Alg3Schedule SolveAlg3Schedule(std::size_t n, double epsilon,
                               std::size_t target_sparsity, int multiplier) {
  Alg3Schedule schedule;
  schedule.iterations =
      ClampIterations(std::floor(std::log(static_cast<double>(n))), n);
  schedule.sparsity = target_sparsity * static_cast<std::size_t>(multiplier);
  schedule.shrinkage =
      Alg3ShrinkageFor(n, epsilon, schedule.sparsity, schedule.iterations);
  schedule.step = 0.5;
  return schedule;
}

Alg5Schedule SolveAlg5Schedule(std::size_t n, double epsilon, double tau,
                               std::size_t target_sparsity, double zeta) {
  Alg5Schedule schedule;
  schedule.iterations =
      ClampIterations(std::floor(std::log(static_cast<double>(n))), n);
  schedule.sparsity = 2 * target_sparsity;
  const double t = static_cast<double>(schedule.iterations);
  const double s = static_cast<double>(schedule.sparsity);
  const double n_eps = static_cast<double>(n) * epsilon;
  // k^4 = n^2 eps^2 tau^2 / ((s T)^2 log(T s / zeta)) per the Theorem 8 proof.
  schedule.scale = std::sqrt(n_eps * tau / (s * t)) /
                   std::pow(SafeLog(t * s / zeta), 0.25);
  schedule.beta = 1.0;
  schedule.step = 0.5;
  return schedule;
}

}  // namespace

Status TrySolveAlg1Schedule(std::size_t n, std::size_t d,
                            const PrivacyBudget& budget, double tau,
                            std::size_t num_vertices, double zeta,
                            Alg1Schedule* out) {
  if (Status s = CheckCommon(n, budget); !s.ok()) return s;
  if (d == 0) return Status::Invalid("d must be > 0");
  if (num_vertices == 0) return Status::Invalid("num_vertices must be > 0");
  if (Status s = CheckTau(tau); !s.ok()) return s;
  if (Status s = CheckZeta(zeta); !s.ok()) return s;
  *out = SolveAlg1Schedule(n, d, budget.epsilon, tau, num_vertices, zeta);
  if (Status s = CheckScalePositive(
          "Alg1 schedule produced a degenerate truncation scale; scale",
          out->scale);
      !s.ok()) {
    return s;
  }
  return Status::Ok();
}

Status TrySolveAlg1RobustSchedule(std::size_t n, std::size_t d,
                                  const PrivacyBudget& budget, double zeta,
                                  Alg1RobustSchedule* out) {
  if (Status s = CheckCommon(n, budget); !s.ok()) return s;
  if (d == 0) return Status::Invalid("d must be > 0");
  if (Status s = CheckZeta(zeta); !s.ok()) return s;
  *out = SolveAlg1RobustSchedule(n, d, budget.epsilon, zeta);
  if (Status s = CheckScalePositive(
          "Alg1 robust schedule produced a degenerate truncation scale; "
          "scale",
          out->scale);
      !s.ok()) {
    return s;
  }
  return Status::Ok();
}

Status TrySolveAlg2Schedule(std::size_t n, const PrivacyBudget& budget,
                            Alg2Schedule* out) {
  if (Status s = CheckCommon(n, budget); !s.ok()) return s;
  *out = SolveAlg2Schedule(n, budget.epsilon);
  if (Status s = CheckScalePositive(
          "Alg2 schedule produced a degenerate shrinkage threshold; "
          "shrinkage",
          out->shrinkage);
      !s.ok()) {
    return s;
  }
  return Status::Ok();
}

Status TrySolveAlg3Schedule(std::size_t n, const PrivacyBudget& budget,
                            std::size_t target_sparsity, int multiplier,
                            Alg3Schedule* out) {
  if (Status s = CheckCommon(n, budget); !s.ok()) return s;
  if (target_sparsity == 0) {
    return Status::Invalid("set target_sparsity (s*) or sparsity (s)");
  }
  if (multiplier < 1) return Status::Invalid("sparsity_multiplier must be >= 1");
  *out = SolveAlg3Schedule(n, budget.epsilon, target_sparsity, multiplier);
  if (Status s = CheckScalePositive(
          "Alg3 schedule produced a degenerate shrinkage threshold; "
          "shrinkage",
          out->shrinkage);
      !s.ok()) {
    return s;
  }
  return Status::Ok();
}

Status TrySolveAlg3Shrinkage(std::size_t n, const PrivacyBudget& budget,
                             std::size_t sparsity, int iterations,
                             double* shrinkage) {
  if (Status s = CheckCommon(n, budget); !s.ok()) return s;
  if (sparsity == 0) return Status::Invalid("sparsity must be > 0");
  if (iterations < 1) return Status::Invalid("iterations must be >= 1");
  *shrinkage = Alg3ShrinkageFor(n, budget.epsilon, sparsity, iterations);
  return CheckScalePositive(
      "Alg3 schedule produced a degenerate shrinkage threshold; "
      "shrinkage",
      *shrinkage);
}

Status TrySolvePeelingShrinkage(std::size_t n, const PrivacyBudget& budget,
                                double* shrinkage) {
  if (Status s = CheckCommon(n, budget); !s.ok()) return s;
  *shrinkage = std::pow(static_cast<double>(n) * budget.epsilon, 0.25);
  return CheckScalePositive(
      "Peeling schedule produced a degenerate shrinkage threshold; "
      "shrinkage",
      *shrinkage);
}

Status TrySolveAlg5Schedule(std::size_t n, std::size_t d,
                            const PrivacyBudget& budget, double tau,
                            std::size_t target_sparsity, double zeta,
                            Alg5Schedule* out) {
  if (Status s = CheckCommon(n, budget); !s.ok()) return s;
  if (d == 0) return Status::Invalid("d must be > 0");
  if (Status s = CheckTau(tau); !s.ok()) return s;
  if (target_sparsity == 0) {
    return Status::Invalid("set target_sparsity (s*) or sparsity (s)");
  }
  if (Status s = CheckZeta(zeta); !s.ok()) return s;
  *out = SolveAlg5Schedule(n, budget.epsilon, tau, target_sparsity, zeta);
  if (Status s = CheckScalePositive(
          "Alg5 schedule produced a degenerate truncation scale; scale",
          out->scale);
      !s.ok()) {
    return s;
  }
  return Status::Ok();
}

}  // namespace htdp
