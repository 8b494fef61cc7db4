#include "dp/accountant.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.h"

namespace htdp {
namespace {

/// Sequential totals of one composition group (the shared-data entries, or
/// one disjoint fold's entries).
struct GroupTotals {
  double epsilon_sum = 0.0;
  double delta_sum = 0.0;
  double epsilon_sq_sum = 0.0;  // for the advanced bound
  // Entry classes for the zcdp backend: rho-native releases carry their own
  // rho; classic pure releases (delta == 0) are epsilon^2/2-zCDP; classic
  // approximate releases (delta > 0) have no finite zCDP parameter.
  double rho_sum = 0.0;  // native rho + epsilon^2/2 over classic pure
  double classic_approx_epsilon_sum = 0.0;
  double classic_approx_delta_sum = 0.0;
  bool any_rho_native = false;
  bool any_classic_approx = false;
  int count = 0;

  void Add(const PrivacyLedger::Entry& entry) {
    epsilon_sum += entry.epsilon;
    delta_sum += entry.delta;
    epsilon_sq_sum += entry.epsilon * entry.epsilon;
    if (entry.rho > 0.0) {
      rho_sum += entry.rho;
      any_rho_native = true;
    } else if (entry.delta > 0.0) {
      classic_approx_epsilon_sum += entry.epsilon;
      classic_approx_delta_sum += entry.delta;
      any_classic_approx = true;
    } else {
      rho_sum += 0.5 * entry.epsilon * entry.epsilon;
    }
    ++count;
  }
};

/// One pass over the entries: shared-data group + per-fold groups. Entries
/// almost always arrive in nondecreasing fold order (solvers record fold
/// t at iteration t), so the `back()` fast path makes the grouping O(n)
/// without any hashing; out-of-order folds fall back to a linear probe.
struct GroupedEntries {
  GroupTotals shared;
  std::vector<std::pair<int, GroupTotals>> folds;

  explicit GroupedEntries(const std::vector<PrivacyLedger::Entry>& entries) {
    for (const PrivacyLedger::Entry& entry : entries) {
      if (entry.fold < 0) {
        shared.Add(entry);
        continue;
      }
      if (!folds.empty() && folds.back().first == entry.fold) {
        folds.back().second.Add(entry);
        continue;
      }
      auto it = std::find_if(
          folds.begin(), folds.end(),
          [&](const auto& group) { return group.first == entry.fold; });
      if (it == folds.end()) {
        folds.emplace_back(entry.fold, GroupTotals{});
        it = folds.end() - 1;
      }
      it->second.Add(entry);
    }
  }
};

/// Basic (sequential within a group, parallel across folds) totals -- the
/// historical PrivacyLedger::TotalEpsilon/TotalDelta rule, and the sound
/// fallback every tighter backend takes the minimum against.
ComposedPrivacy BasicCompose(const GroupedEntries& grouped) {
  ComposedPrivacy total{grouped.shared.epsilon_sum, grouped.shared.delta_sum};
  double fold_epsilon = 0.0;
  double fold_delta = 0.0;
  for (const auto& [fold, group] : grouped.folds) {
    fold_epsilon = std::max(fold_epsilon, group.epsilon_sum);
    fold_delta = std::max(fold_delta, group.delta_sum);
  }
  total.epsilon += fold_epsilon;
  total.delta += fold_delta;
  return total;
}

class BasicAccountant final : public PrivacyAccountant {
 public:
  Accounting id() const override { return Accounting::kBasic; }

  StepBudget StepBudgetFor(const PrivacyBudget& total,
                           int steps) const override {
    HTDP_CHECK_GE(steps, 1);
    if (steps == 1) return {total.epsilon, total.delta};
    const double t = static_cast<double>(steps);
    return {total.epsilon / t, total.delta / t};
  }

  GaussianCalibration GaussianFor(const PrivacyBudget& total,
                                  int steps) const override {
    HTDP_CHECK_GE(steps, 1);
    HTDP_CHECK_GT(total.delta, 0.0) << "Gaussian releases require delta > 0";
    const StepBudget step = StepBudgetFor(total, steps);
    return {step.epsilon, step.delta, 0.0};
  }

  ComposedPrivacy Compose(const std::vector<PrivacyLedger::Entry>& entries,
                          double /*conversion_delta*/) const override {
    return BasicCompose(GroupedEntries(entries));
  }
};

class AdvancedAccountant final : public PrivacyAccountant {
 public:
  Accounting id() const override { return Accounting::kAdvanced; }

  StepBudget StepBudgetFor(const PrivacyBudget& total,
                           int steps) const override {
    HTDP_CHECK_GE(steps, 1);
    if (steps == 1) return {total.epsilon, total.delta};
    if (!(total.delta > 0.0)) {
      // Lemma 2 needs delta > 0; a pure budget splits sequentially.
      return {BasicCompositionStepEpsilon(total.epsilon, steps), 0.0};
    }
    return {AdvancedCompositionStepEpsilon(total.epsilon, total.delta, steps),
            AdvancedCompositionStepDelta(total.delta, steps)};
  }

  GaussianCalibration GaussianFor(const PrivacyBudget& total,
                                  int steps) const override {
    HTDP_CHECK_GE(steps, 1);
    HTDP_CHECK_GT(total.delta, 0.0) << "Gaussian releases require delta > 0";
    if (steps == 1) return {total.epsilon, total.delta, 0.0};
    // Half the delta funds Lemma 2's composition slack, half the Gaussian
    // tails -- the classic clipped DP-SGD split, preserved bit for bit.
    return {AdvancedCompositionStepEpsilon(total.epsilon, total.delta / 2.0,
                                           steps),
            AdvancedCompositionStepDelta(total.delta / 2.0, steps), 0.0};
  }

  ComposedPrivacy Compose(const std::vector<PrivacyLedger::Entry>& entries,
                          double /*conversion_delta*/) const override {
    const GroupedEntries grouped(entries);
    ComposedPrivacy total{AdvancedGroupEpsilon(grouped.shared),
                          grouped.shared.delta_sum};
    double fold_epsilon = 0.0;
    double fold_delta = 0.0;
    for (const auto& [fold, group] : grouped.folds) {
      fold_epsilon = std::max(fold_epsilon, AdvancedGroupEpsilon(group));
      fold_delta = std::max(fold_delta, group.delta_sum);
    }
    total.epsilon += fold_epsilon;
    total.delta += fold_delta;
    return total;
  }

 private:
  /// Inverts Lemma 2 for one group: k heterogeneous steps (eps_i, delta_i)
  /// compose to sqrt(8 ln(2 / sum delta_i) * sum eps_i^2) -- which reduces
  /// to exactly the declared total for the homogeneous splits
  /// StepBudgetFor produces -- capped by the always-valid basic sum (so a
  /// single-entry group composes to exactly what it recorded).
  static double AdvancedGroupEpsilon(const GroupTotals& group) {
    if (group.count <= 1 || !(group.delta_sum > 0.0)) {
      return group.epsilon_sum;
    }
    const double bound = std::sqrt(8.0 * std::log(2.0 / group.delta_sum) *
                                   group.epsilon_sq_sum);
    return std::min(group.epsilon_sum, bound);
  }
};

class ZcdpAccountant final : public PrivacyAccountant {
 public:
  Accounting id() const override { return Accounting::kZcdp; }

  StepBudget StepBudgetFor(const PrivacyBudget& total,
                           int steps) const override {
    HTDP_CHECK_GE(steps, 1);
    if (steps == 1) return {total.epsilon, total.delta};
    if (!(total.delta > 0.0)) {
      // No delta to fund the rho -> (eps, delta) conversion; split
      // sequentially like basic.
      return {BasicCompositionStepEpsilon(total.epsilon, steps), 0.0};
    }
    // Each step is a pure eps'-DP release, i.e. eps'^2/2-zCDP; T of them
    // compose to rho, which converts back to exactly (epsilon, delta).
    // The delta is spent in that final conversion, not per step.
    const double rho = ZcdpRhoForBudget(total.epsilon, total.delta);
    return {std::sqrt(2.0 * rho / static_cast<double>(steps)), 0.0};
  }

  GaussianCalibration GaussianFor(const PrivacyBudget& total,
                                  int steps) const override {
    HTDP_CHECK_GE(steps, 1);
    HTDP_CHECK_GT(total.delta, 0.0) << "Gaussian releases require delta > 0";
    const double rho = ZcdpRhoForBudget(total.epsilon, total.delta);
    const double step_rho = rho / static_cast<double>(steps);
    // sigma = Delta_2 / sqrt(2 rho') per step with rho' = rho / T.
    const double multiplier = std::sqrt(1.0 / (2.0 * step_rho));
    if (steps == 1) {
      // The classic single-release calibration can be tighter than the
      // zCDP route for moderate epsilon; take whichever is smaller so
      // sigma(zcdp) <= sigma(advanced) holds at every T.
      const GaussianCalibration classic{total.epsilon, total.delta, 0.0, 0.0};
      if (classic.NoiseMultiplier() <= multiplier) return classic;
    }
    return {std::sqrt(2.0 * step_rho), 0.0, multiplier, step_rho};
  }

  ComposedPrivacy Compose(const std::vector<PrivacyLedger::Entry>& entries,
                          double conversion_delta) const override {
    const GroupedEntries grouped(entries);
    const ComposedPrivacy basic = BasicCompose(grouped);

    bool any_native = grouped.shared.any_rho_native;
    bool any_classic_approx = grouped.shared.any_classic_approx;
    double rho = grouped.shared.rho_sum;
    double fold_rho = 0.0;
    double classic_epsilon = grouped.shared.classic_approx_epsilon_sum;
    double classic_delta = grouped.shared.classic_approx_delta_sum;
    double fold_classic_epsilon = 0.0;
    double fold_classic_delta = 0.0;
    for (const auto& [fold, group] : grouped.folds) {
      fold_rho = std::max(fold_rho, group.rho_sum);
      fold_classic_epsilon =
          std::max(fold_classic_epsilon, group.classic_approx_epsilon_sum);
      fold_classic_delta =
          std::max(fold_classic_delta, group.classic_approx_delta_sum);
      any_native = any_native || group.any_rho_native;
      any_classic_approx = any_classic_approx || group.any_classic_approx;
    }
    rho += fold_rho;
    classic_epsilon += fold_classic_epsilon;
    classic_delta += fold_classic_delta;

    // Without a conversion delta there is no way back from rho; the basic
    // totals are the only claim available. (rho-native entries are only
    // minted under approximate budgets, so this branch never sees them in
    // practice.)
    if (!(conversion_delta > 0.0)) return basic;

    if (!any_native) {
      // Classic approximate entries -- the parallel-composition fold
      // solvers -- have no finite zCDP parameter; keep the basic totals,
      // which are already exact there. All-pure ledgers may take whichever
      // of the basic sum and the rho conversion is smaller (both are valid
      // guarantees for genuinely pure-DP releases).
      if (any_classic_approx) return basic;
      const double zcdp_epsilon = ZcdpEpsilonForRho(rho, conversion_delta);
      if (basic.epsilon <= zcdp_epsilon) return basic;
      return {zcdp_epsilon, conversion_delta};
    }

    // rho-native entries present: their recorded epsilon is only a carrier
    // (a Gaussian release is not pure-DP), so the basic sum is NOT a valid
    // claim and the rho conversion stands. Classic approximate entries, if
    // any are mixed in, compose sequentially on top -- sound, if
    // conservative (no solver currently mixes the two classes).
    const double zcdp_epsilon = ZcdpEpsilonForRho(rho, conversion_delta);
    return {classic_epsilon + zcdp_epsilon,
            classic_delta + conversion_delta};
  }
};

}  // namespace

double GaussianCalibration::NoiseMultiplier() const {
  if (sigma_multiplier > 0.0) return sigma_multiplier;
  return std::sqrt(2.0 * std::log(1.25 / step_delta)) / step_epsilon;
}

const PrivacyAccountant& GetAccountant(Accounting backend) {
  static const BasicAccountant basic;
  static const AdvancedAccountant advanced;
  static const ZcdpAccountant zcdp;
  switch (backend) {
    case Accounting::kBasic:
      return basic;
    case Accounting::kAdvanced:
      return advanced;
    case Accounting::kZcdp:
      return zcdp;
  }
  return advanced;
}

StatusOr<Accounting> ParseAccounting(const std::string& name) {
  if (name == "basic") return Accounting::kBasic;
  if (name == "advanced") return Accounting::kAdvanced;
  if (name == "zcdp") return Accounting::kZcdp;
  return Status::InvalidProblem("unknown accounting backend \"" + name +
                                "\"; expected basic, advanced or zcdp");
}

}  // namespace htdp
