#ifndef HTDP_PERFBENCH_REPLAY_H_
#define HTDP_PERFBENCH_REPLAY_H_

// The traced replay: each registered solver's iteration loop re-run from the
// benchmark's own code through the same public calls the solver makes, with
// a span around every call into a layer. The replay's final iterate must
// equal the real fit's bit for bit, which proves it made the same calls in
// the same order on the same RNG stream.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "api/api.h"
#include "common.h"

namespace htdp::perfbench {

/// The layers a fit's time is split into; every span belongs to one.
enum Layer : int {
  kResolve,    // api: validation, spec resolution, fold plan
  kShrink,     // api/solver_common ShrinkDataset, alg4's shrunken mean
  kRobust,     // core/robust_gradient Estimate (Catoni kernel)
  kGradient,   // losses: EmpiricalGradient / Dot+Axpy exact gradient
  kSelect,     // optim/polytope VertexInnerProducts + dp SelectGumbel
  kPrivatize,  // dp/gaussian_mechanism PrivatizeInPlace
  kPeel,       // core/peeling Peel
  kStep,       // optim step + projection
  kLayerCount
};

/// Metric name of each layer's self time, in Layer order.
const char* LayerMetric(Layer layer);

/// One closed span, kept in memory until the run ends.
struct SpanRecord {
  Layer layer;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
};

/// Records spans around layer calls. With `record` off the calls run
/// untimed, which is how the tracing overhead is measured.
class Tracer {
 public:
  explicit Tracer(bool record) : record_(record) {}

  template <typename F>
  void Span(Layer layer, F&& call) {
    if (!record_) {
      call();
      return;
    }
    const std::uint64_t start = Now();
    call();
    spans_.push_back({layer, start, Now()});
  }

  /// Runs `call` outside the measured fit (the workload census).
  template <typename F>
  void Exclude(F&& call) {
    const std::uint64_t start = Now();
    call();
    excluded_ns_ += Now() - start;
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }
  std::uint64_t excluded_ns() const { return excluded_ns_; }

  static std::uint64_t Now();

 private:
  bool record_;
  std::vector<SpanRecord> spans_;
  std::uint64_t excluded_ns_ = 0;
};

/// Exact counts of how the batched Catoni kernel classifies the per-sample
/// gradient rows it is fed: elements outside the closed form (cold), the
/// part of those that takes the exact-split quadrature rather than the
/// cheap tiny-b branch, and lane groups (of SimdInfo().lanes within each
/// 256-element block) that spill to the scalar path because they hold a
/// cold element or are a block tail.
struct CatoniCensus {
  std::uint64_t elements = 0;
  std::uint64_t cold_elements = 0;
  std::uint64_t split_elements = 0;
  std::uint64_t groups = 0;
  std::uint64_t spill_groups = 0;
  std::uint64_t estimate_calls = 0;
  std::uint64_t estimate_rows = 0;
  std::uint64_t estimate_elements = 0;

  void Add(const CatoniCensus& other);
};

/// Result of one replayed fit.
struct ReplayResult {
  Vector w;
  double wall_ms = 0.0;  // replay time minus excluded census time
  std::array<double, kLayerCount> layer_ms{};
  double rest_ms = 0.0;  // wall minus the spans: solver glue
  CatoniCensus census;
};

/// Replays `solver`'s TryFit on (problem, spec) from `rng`. With `census`
/// set, classifies every Estimate input row (outside the timed fit).
/// Returns false (with `error`) when the solver is unknown to the replay or
/// the configuration is rejected.
bool ReplayFit(const Solver& solver, const Problem& problem,
               const SolverSpec& spec, Rng rng, Tracer& tracer, bool census,
               ReplayResult* out, std::string* error);

/// Median ns per element of `reps` Estimate calls on the first `rows` rows
/// of `data` at w = 0 -- the kernel's ceiling at a fold size large enough to
/// fan out over every pool thread.
double EstimateCeilingNsPerElem(const Loss& loss, const Dataset& data,
                                std::size_t rows, double scale, int reps);

}  // namespace htdp::perfbench

#endif  // HTDP_PERFBENCH_REPLAY_H_
