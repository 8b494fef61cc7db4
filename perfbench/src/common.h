#ifndef HTDP_PERFBENCH_COMMON_H_
#define HTDP_PERFBENCH_COMMON_H_

// Small shared helpers of the repo benchmark: clocks, order statistics, the
// ordered metric set every workload fills, and the output checks.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "api/api.h"

namespace htdp::perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

inline double MsSince(Clock::time_point from) {
  return 1e3 * Seconds(from, Clock::now());
}

/// Linear-interpolated quantile q in [0, 1] of `values` (copied, sorted).
/// An empty sample has no quantile: NaN, which fails the run's
/// MetricSet::AllFinite check instead of reading as a perfect score.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

inline double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

/// getrusage max RSS of this process, in MB.
inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Metrics in emission order; names are unique.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics_.push_back({name, value, unit});
  }

  /// Human-readable lines, one per metric.
  void Print(const char* prefix) const {
    for (const auto& m : metrics_) {
      std::printf("%s %-34s %16.6f %s\n", prefix, m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

  /// The `"metrics": {...}` body of the result line.
  std::string ToJson() const {
    std::string out = "{";
    char buf[128];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out += (i == 0 ? "\"" : ", \"") + metrics_[i].name + "\": {\"value\": " +
             buf + ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    return out + "}";
  }

  bool AllFinite() const {
    for (const auto& m : metrics_) {
      if (!std::isfinite(m.value)) return false;
    }
    return true;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Outcome counters behind `attempted`, `failed` and `failed_frac`.
struct Outcomes {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> first_errors;  // a few diagnostics for the log

  void Fail(std::string why) {
    ++failed;
    if (first_errors.size() < 8) first_errors.push_back(std::move(why));
  }
};

/// True when the two vectors hold the same bits.
inline bool BitEqual(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// True when two fits released the same output bits (iterate and support).
inline bool SameFit(const FitResult& a, const FitResult& b) {
  return BitEqual(a.w, b.w) && a.selected == b.selected &&
         a.iterations == b.iterations;
}

/// The ledger composes to at most the declared (epsilon, delta).
inline bool LedgerWithinBudget(const FitResult& fit,
                               const PrivacyBudget& budget) {
  const double slack = 1e-12;
  return !fit.ledger.entries().empty() &&
         fit.ledger.TotalEpsilon() <= budget.epsilon * (1.0 + slack) &&
         fit.ledger.TotalDelta() <= budget.delta * (1.0 + slack);
}

}  // namespace htdp::perfbench

#endif  // HTDP_PERFBENCH_COMMON_H_
