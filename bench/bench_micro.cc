// Microbenchmarks (google-benchmark) of the primitives on the hot paths of
// Algorithms 1-5: the smoothed truncation function, the robust mean /
// gradient estimators, the DP mechanisms, Peeling and the geometry ops.
//
// Unlike the figure benches this binary has its own main: it strips two
// htdp-specific flags before handing the rest to google-benchmark --
//   --smoke        quick pass (low --benchmark_min_time) for CI
//   --json=PATH    perf-trajectory output path (default BENCH_micro.json)
// -- and always writes the BENCH_*.json schema of bench_common.h so the
// perf trajectory is tracked PR-over-PR.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/htdp.h"
#include "daemon/server.h"
#include "net/client.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace htdp {
namespace {

void BM_Phi(benchmark::State& state) {
  double x = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Phi(x));
    x += 1e-6;
  }
}
BENCHMARK(BM_Phi);

void BM_SmoothedPhiClosedForm(benchmark::State& state) {
  double a = 0.3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SmoothedPhi(a, 0.7));
    a += 1e-7;
  }
}
BENCHMARK(BM_SmoothedPhiClosedForm);

void BM_SmoothedPhiSplitPath(benchmark::State& state) {
  double a = 1e8;  // forces the composite-quadrature fallback
  for (auto _ : state) {
    benchmark::DoNotOptimize(SmoothedPhi(a, a));
    a += 1.0;
  }
}
BENCHMARK(BM_SmoothedPhiSplitPath);

// The dispatched SmoothedPhi batch over 64K elements, of which the given
// per-mille share (at random positions) falls in the exact-split region:
// warm elements have |a| < 3, split ones |a| log-uniform in [130, 1e9],
// both with b = |a| (the beta = 1 transform). 66 per mille is the split
// share of a heavy_tail_pinned fit; 0 is the all-warm ceiling.
void BM_SmoothedPhiBatchColdShare(benchmark::State& state) {
  constexpr std::size_t kN = 1 << 16;
  const double split_share = static_cast<double>(state.range(0)) / 1000.0;
  Rng rng(17);
  Vector a(kN);
  Vector b(kN);
  for (std::size_t j = 0; j < kN; ++j) {
    const double sign = rng.UniformUnit() < 0.5 ? -1.0 : 1.0;
    a[j] = rng.UniformUnit() < split_share
               ? sign * 130.0 * std::pow(1e9 / 130.0, rng.UniformUnit())
               : rng.Uniform(-3.0, 3.0);
    b[j] = std::abs(a[j]);
  }
  Vector out(kN);
  for (auto _ : state) {
    SmoothedPhiBatch(a.data(), b.data(), out.data(), kN);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kN));
}
BENCHMARK(BM_SmoothedPhiBatchColdShare)->Arg(0)->Arg(66)->Arg(330);

void BM_RobustMeanEstimate(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  Vector values(n);
  for (double& v : values) v = SampleLognormal(rng, 0.0, 1.0);
  const RobustMeanEstimator estimator(10.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.Estimate(values));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  // Memory traffic: one streaming read of the input row. Tracking bytes/sec
  // next to items/sec separates memory-bound regressions (bytes/sec falls)
  // from compute-bound ones (items/sec falls while bytes/sec tracks it).
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(n * sizeof(double)));
}
BENCHMARK(BM_RobustMeanEstimate)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_AccumulateContributions(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  Vector values(n);
  for (double& v : values) v = SampleLognormal(rng, 0.0, 1.0);
  Vector acc(n, 0.0);
  const RobustMeanEstimator estimator(10.0, 1.0);
  for (auto _ : state) {
    estimator.AccumulateContributions(values.data(), n, acc.data());
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  // Memory traffic: read xs, read-modify-write acc = three double streams.
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(3 * n * sizeof(double)));
}
BENCHMARK(BM_AccumulateContributions)->Arg(1000)->Arg(10000)->Arg(100000);

// The acceptance-tracked hot path: one robust-gradient estimate. The
// {4096, 2048} point is the perf-trajectory headline recorded in
// BENCH_micro.json; the workspace is loop-carried exactly as the solvers
// carry it, so warm iterations allocate nothing.
void BM_RobustGradient(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t d = static_cast<std::size_t>(state.range(1));
  Rng rng(5);
  SyntheticConfig config{n, d, ScalarDistribution::Lognormal(0.0, 0.6),
                         ScalarDistribution::Normal(0.0, 0.1)};
  const Vector w_star = MakeL1BallTarget(d, rng);
  const Dataset data = GenerateLinear(config, w_star, rng);
  const SquaredLoss loss;
  const RobustGradientEstimator estimator(10.0, 1.0);
  const Vector w(d, 0.0);
  Vector out;
  RobustGradientWorkspace workspace;
  for (auto _ : state) {
    estimator.Estimate(loss, FullView(data), w, out, &workspace);
    benchmark::DoNotOptimize(out[0]);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n * d));
}
BENCHMARK(BM_RobustGradient)
    ->Args({1000, 100})
    ->Args({1000, 800})
    ->Args({10000, 400})
    ->Args({4096, 2048})
    ->Unit(benchmark::kMillisecond);

// The tracing overhead budget, measured (acceptance: idle tracing costs
// BM_RobustGradient < 1%). Spans are always compiled in, so there is no
// span-free build to compare against and the bound is derived: per-span
// cost in the runtime-disabled state (the solver hot path's actual state
// when no trace pull is active) x spans per Estimate (exactly one,
// "robust.estimate") / the measured headline {4096, 2048} estimate time.
// Recorded in BENCH_micro.json as trace_overhead_pct alongside the raw
// span_ns_disabled / span_ns_enabled costs.
void BM_TraceOverhead(benchmark::State& state) {
  const bool was_enabled = obs::TraceEnabled();

  // Per-span cost, runtime-disabled: one relaxed atomic load per guard.
  obs::SetTraceEnabled(false);
  constexpr int kSpans = 1 << 20;
  WallTimer disabled_timer;
  for (int i = 0; i < kSpans; ++i) {
    HTDP_TRACE_SPAN("bench.disabled");
    benchmark::DoNotOptimize(i);
  }
  const double span_ns_disabled =
      disabled_timer.ElapsedSeconds() * 1e9 / kSpans;

  // Per-span cost, runtime-enabled: two clock reads + a ring write.
  obs::SetTraceEnabled(true);
  constexpr int kEnabledSpans = 1 << 16;
  WallTimer enabled_timer;
  for (int i = 0; i < kEnabledSpans; ++i) {
    HTDP_TRACE_SPAN("bench.enabled");
    benchmark::DoNotOptimize(i);
  }
  const double span_ns_enabled =
      enabled_timer.ElapsedSeconds() * 1e9 / kEnabledSpans;
  obs::SetTraceEnabled(false);

  // The headline estimate, timed directly (same shape as the
  // BM_RobustGradient {4096, 2048} acceptance point).
  const std::size_t n = 4096;
  const std::size_t d = 2048;
  Rng rng(5);
  SyntheticConfig config{n, d, ScalarDistribution::Lognormal(0.0, 0.6),
                         ScalarDistribution::Normal(0.0, 0.1)};
  const Vector w_star = MakeL1BallTarget(d, rng);
  const Dataset data = GenerateLinear(config, w_star, rng);
  const SquaredLoss loss;
  const RobustGradientEstimator estimator(10.0, 1.0);
  const Vector w(d, 0.0);
  Vector out;
  RobustGradientWorkspace workspace;
  estimator.Estimate(loss, FullView(data), w, out, &workspace);  // warm
  constexpr int kEstimates = 3;
  WallTimer estimate_timer;
  for (int i = 0; i < kEstimates; ++i) {
    estimator.Estimate(loss, FullView(data), w, out, &workspace);
    benchmark::DoNotOptimize(out.data());
  }
  const double estimate_ns =
      estimate_timer.ElapsedSeconds() * 1e9 / kEstimates;

  int iterations = 0;
  for (auto _ : state) {
    HTDP_TRACE_SPAN("bench.loop");
    benchmark::DoNotOptimize(iterations);
    ++iterations;
  }
  obs::SetTraceEnabled(was_enabled);
  obs::ClearTrace();

  state.counters["span_ns_disabled"] = span_ns_disabled;
  state.counters["span_ns_enabled"] = span_ns_enabled;
  state.counters["trace_overhead_pct"] =
      estimate_ns > 0.0 ? span_ns_disabled / estimate_ns * 100.0 : 0.0;
}
BENCHMARK(BM_TraceOverhead);

// Accountant calibration on the release hot path: one NoiseMultiplier call
// per (backend, T). Timing is the bench; the JSON trajectory additionally
// records the resulting sigma and -- on the zcdp rows -- the
// sigma(advanced)/sigma(zcdp) ratio, so BENCH_micro.json tracks the
// accounting payoff per release PR-over-PR.
void BM_AccountantNoiseMultiplier(benchmark::State& state) {
  const Accounting backend = static_cast<Accounting>(state.range(0));
  const int steps = static_cast<int>(state.range(1));
  const PrivacyBudget budget = PrivacyBudget::Approx(1.0, 1e-5);
  const PrivacyAccountant& accountant = GetAccountant(backend);
  double sigma = 0.0;
  for (auto _ : state) {
    sigma = accountant.NoiseMultiplier(budget, steps);
    benchmark::DoNotOptimize(sigma);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(AccountingName(backend));
  state.counters["sigma"] = sigma;
  if (backend == Accounting::kZcdp) {
    state.counters["sigma_ratio"] =
        GetAccountant(Accounting::kAdvanced).NoiseMultiplier(budget, steps) /
        sigma;
  }
}
BENCHMARK(BM_AccountantNoiseMultiplier)
    ->Args({static_cast<long>(Accounting::kAdvanced), 1})
    ->Args({static_cast<long>(Accounting::kAdvanced), 32})
    ->Args({static_cast<long>(Accounting::kZcdp), 1})
    ->Args({static_cast<long>(Accounting::kZcdp), 32});

void BM_ExponentialMechanism(benchmark::State& state) {
  const std::size_t range = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  Vector scores(range);
  for (double& s : scores) s = rng.Uniform(-1.0, 1.0);
  const ExponentialMechanism mechanism(0.1, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mechanism.SelectGumbel(scores, rng));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(range));
}
BENCHMARK(BM_ExponentialMechanism)->Arg(400)->Arg(1600)->Arg(12800);

// The SolverSpec::simd_select fast path: identical uniform stream, Gumbel
// transform through the vectorized log.
void BM_ExponentialMechanismSimd(benchmark::State& state) {
  const std::size_t range = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  Vector scores(range);
  for (double& s : scores) s = rng.Uniform(-1.0, 1.0);
  const ExponentialMechanism mechanism(0.1, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mechanism.SelectGumbelSimd(scores, rng));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(range));
}
BENCHMARK(BM_ExponentialMechanismSimd)->Arg(400)->Arg(1600)->Arg(12800);

void BM_Peeling(benchmark::State& state) {
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const std::size_t s = static_cast<std::size_t>(state.range(1));
  Rng rng(11);
  Vector v(d);
  for (double& value : v) value = rng.Uniform(-1.0, 1.0);
  PeelingOptions options;
  options.sparsity = s;
  options.epsilon = 1.0;
  options.delta = 1e-5;
  options.linf_sensitivity = 0.01;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Peel(v, options, rng).value.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(d * s));
}
BENCHMARK(BM_Peeling)->Args({400, 20})->Args({800, 40})->Args({3200, 40});

void BM_ProjectOntoL1Ball(benchmark::State& state) {
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  Rng rng(13);
  Vector base(d);
  for (double& v : base) v = rng.Uniform(-1.0, 1.0);
  for (auto _ : state) {
    Vector x = base;
    ProjectOntoL1Ball(1.0, x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_ProjectOntoL1Ball)->Arg(100)->Arg(1000)->Arg(10000);

void BM_L1BallVertexScores(benchmark::State& state) {
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const L1Ball ball(d, 1.0);
  Rng rng(17);
  Vector g(d);
  for (double& v : g) v = rng.Uniform(-1.0, 1.0);
  Vector scores;
  for (auto _ : state) {
    ball.VertexInnerProducts(g, scores);
    benchmark::DoNotOptimize(scores.data());
  }
}
BENCHMARK(BM_L1BallVertexScores)->Arg(400)->Arg(6400);

void BM_LaplaceSampling(benchmark::State& state) {
  Rng rng(19);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampleLaplace(rng, 1.0));
  }
}
BENCHMARK(BM_LaplaceSampling);

void BM_LognormalSampling(benchmark::State& state) {
  Rng rng(23);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampleLognormal(rng, 0.0, 0.6));
  }
}
BENCHMARK(BM_LognormalSampling);

void BM_FillNormal(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(27);
  Vector out(n);
  for (auto _ : state) {
    FillNormal(rng, out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_FillNormal)->Arg(1000)->Arg(100000);

void BM_ShrinkDataset(benchmark::State& state) {
  const std::size_t n = 10000;
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  Rng rng(29);
  Matrix x(n, d);
  for (double& e : x.data()) e = SampleStudentT(rng, 3.0);
  for (auto _ : state) {
    Matrix copy = x;
    ShrinkInPlace(2.0, copy);
    benchmark::DoNotOptimize(copy.data().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n * d));
}
BENCHMARK(BM_ShrinkDataset)->Arg(100)->Arg(400);

// Engine throughput: end-to-end fit jobs/sec over a (concurrent jobs x
// worker threads) grid -- 1/4/16 jobs against 1/2/4 workers. Each outer
// iteration submits `jobs` pinned-schedule alg1 fits and waits for all of
// them, so items_per_second in the BENCH_micro.json trajectory reads
// directly as jobs/sec at that point (the "Engine throughput" section of
// the perf trajectory). The grid is the scheduler's scaling sweep: the
// jobs > workers rows exercise queueing, the jobs < workers rows measure
// idle-worker overhead, and comparing a fixed jobs row across worker
// counts shows the speedup curve (flat on a 1-core CI runner -- see
// hw_cores in the JSON header -- by design).
void BM_EngineThroughput(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  const int workers = static_cast<int>(state.range(1));
  const std::size_t n = 2000;
  const std::size_t d = 64;
  Rng rng(33);
  SyntheticConfig config{n, d, ScalarDistribution::Lognormal(0.0, 0.6),
                         ScalarDistribution::Normal(0.0, 0.1)};
  const Vector w_star = MakeL1BallTarget(d, rng);
  const Dataset data = GenerateLinear(config, w_star, rng);
  const SquaredLoss loss;
  const L1Ball ball(d, 1.0);

  Engine engine(Engine::Options{workers});
  std::uint64_t seed = 0;
  for (auto _ : state) {
    std::vector<JobHandle> handles;
    handles.reserve(static_cast<std::size_t>(jobs));
    for (int j = 0; j < jobs; ++j) {
      FitJob job;
      job.solver_name = kSolverAlg1DpFw;
      job.problem = Problem::ConstrainedErm(loss, data, ball);
      job.spec.budget = PrivacyBudget::Pure(1.0);
      job.spec.iterations = 20;  // pinned schedule: measures serving, not
      job.spec.scale = 5.0;      // the auto-solver
      job.seed = ++seed;
      job.tag = "bench";
      handles.push_back(engine.Submit(std::move(job)));
    }
    for (const JobHandle& handle : handles) {
      benchmark::DoNotOptimize(handle.Wait().ok());
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(jobs));
}
BENCHMARK(BM_EngineThroughput)
    ->ArgNames({"jobs", "workers"})
    ->Args({1, 1})
    ->Args({4, 1})
    ->Args({16, 1})
    ->Args({1, 2})
    ->Args({4, 2})
    ->Args({16, 2})
    ->Args({1, 4})
    ->Args({4, 4})
    ->Args({16, 4})
    ->Unit(benchmark::kMillisecond);

// Serving latency: one submit -> result round trip against an in-process
// htdpd Server over a real loopback socket -- dataset serialization, frame
// codec, kernel socket hops, engine dispatch and the result frames back.
// The solver schedule is pinned tiny so the number is the WIRE cost, not
// the fit. Besides the mean the trajectory records p50_ms / p99_ms (tail
// latency regresses first when the event loop misbehaves), which
// JsonTrajectoryReporter forwards into BENCH_micro.json.
void BM_DaemonRoundTrip(benchmark::State& state) {
  daemon::ServerOptions options;
  options.port = 0;
  StatusOr<std::unique_ptr<daemon::Server>> server =
      daemon::Server::Create(std::move(options));
  if (!server.ok()) {
    state.SkipWithError(server.status().message().c_str());
    return;
  }
  std::thread serve([&] { server.value()->Run(); });
  StatusOr<std::unique_ptr<net::Client>> client =
      net::Client::Connect("127.0.0.1", server.value()->port());
  if (!client.ok()) {
    server.value()->RequestDrain();
    serve.join();
    state.SkipWithError(client.status().message().c_str());
    return;
  }

  const std::size_t n = 400;
  const std::size_t d = 10;
  Rng rng(35);
  SyntheticConfig config{n, d, ScalarDistribution::Lognormal(0.0, 0.6),
                         ScalarDistribution::Normal(0.0, 0.1)};
  const Vector w_star = MakeL1BallTarget(d, rng);
  net::SubmitRequest request;
  request.solver = kSolverAlg1DpFw;
  request.seed = 1;
  request.spec.budget = PrivacyBudget::Pure(1.0);
  request.spec.iterations = 5;  // pinned: measures serving, not the solver
  request.spec.scale = 5.0;
  request.problem.data = GenerateLinear(config, w_star, rng);
  request.problem.loss = net::kWireLossSquared;
  request.problem.constraint = net::WireConstraint::kL1Ball;
  request.problem.constraint_radius = 1.0;

  std::vector<double> latencies_ms;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    StatusOr<std::uint64_t> job = client.value()->Submit(request);
    if (!job.ok()) {
      state.SkipWithError(job.status().message().c_str());
      break;
    }
    StatusOr<FitResult> result = client.value()->WaitResult(job.value());
    if (!result.ok()) {
      state.SkipWithError(result.status().message().c_str());
      break;
    }
    benchmark::DoNotOptimize(result.value().w.data());
    latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count());
  }
  server.value()->RequestDrain();
  serve.join();

  if (!latencies_ms.empty()) {
    std::sort(latencies_ms.begin(), latencies_ms.end());
    const auto percentile = [&](double q) {
      const auto rank = static_cast<std::size_t>(
          q * static_cast<double>(latencies_ms.size()));
      return latencies_ms[std::min(rank, latencies_ms.size() - 1)];
    };
    state.counters["p50_ms"] = percentile(0.50);
    state.counters["p99_ms"] = percentile(0.99);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DaemonRoundTrip)->Unit(benchmark::kMillisecond);

// Serving under overload: the same round trip against a deliberately
// saturated daemon -- one engine worker, a queue cap of 4, and a background
// flood of submits keeping the queue at its watermark -- driven through
// SubmitAndWaitWithRetry. This measures what a caller actually experiences
// during an overload event: the retried round-trip latency (p50/p99 WITH
// backoff waits included), the flood's shed rate, and the retries each
// completed operation needed. All three land in BENCH_micro.json, so a
// regression in the shed path or the backoff schedule shows up in the perf
// trajectory PR-over-PR.
void BM_DaemonOverloadRoundTrip(benchmark::State& state) {
  daemon::ServerOptions options;
  options.port = 0;
  options.engine_workers = 1;
  options.max_queue_depth = 4;
  StatusOr<std::unique_ptr<daemon::Server>> server =
      daemon::Server::Create(std::move(options));
  if (!server.ok()) {
    state.SkipWithError(server.status().message().c_str());
    return;
  }
  std::thread serve([&] { server.value()->Run(); });
  StatusOr<std::unique_ptr<net::Client>> flood =
      net::Client::Connect("127.0.0.1", server.value()->port());
  StatusOr<std::unique_ptr<net::Client>> probe =
      flood.ok() ? net::Client::Connect("127.0.0.1", server.value()->port())
                 : StatusOr<std::unique_ptr<net::Client>>(flood.status());
  if (!probe.ok()) {
    server.value()->RequestDrain();
    serve.join();
    state.SkipWithError(probe.status().message().c_str());
    return;
  }

  const std::size_t n = 400;
  const std::size_t d = 10;
  Rng rng(36);
  SyntheticConfig config{n, d, ScalarDistribution::Lognormal(0.0, 0.6),
                         ScalarDistribution::Normal(0.0, 0.1)};
  const Vector w_star = MakeL1BallTarget(d, rng);
  net::SubmitRequest request;
  request.solver = kSolverAlg1DpFw;
  request.spec.budget = PrivacyBudget::Pure(1.0);
  request.spec.iterations = 20;  // heavy enough that the flood backs up
  request.spec.scale = 5.0;
  request.problem.data = GenerateLinear(config, w_star, rng);
  request.problem.loss = net::kWireLossSquared;
  request.problem.constraint = net::WireConstraint::kL1Ball;
  request.problem.constraint_radius = 1.0;

  net::RetryPolicy policy;
  policy.max_attempts = 0;  // unlimited; the deadline bounds each op
  policy.deadline_seconds = 30.0;
  policy.initial_backoff_ms = 1.0;
  policy.max_backoff_ms = 20.0;
  policy.jitter_seed = 7;

  std::uint64_t seed = 0;
  std::size_t flood_submits = 0;
  std::size_t flood_shed = 0;
  std::vector<double> latencies_ms;
  for (auto _ : state) {
    // Keep the single worker saturated: a burst of fire-and-forget submits,
    // some of which the watermark latch sheds with immediate UNAVAILABLE
    // replies (the daemon's memory stays bounded either way).
    for (int burst = 0; burst < 6; ++burst) {
      request.seed = ++seed;
      StatusOr<std::uint64_t> job = flood.value()->Submit(request);
      ++flood_submits;
      if (!job.ok()) {
        if (job.status().code() != StatusCode::kUnavailable) {
          state.SkipWithError(job.status().message().c_str());
          break;
        }
        ++flood_shed;
      }
    }
    const auto start = std::chrono::steady_clock::now();
    request.seed = ++seed;
    StatusOr<FitResult> result =
        probe.value()->SubmitAndWaitWithRetry(request, policy);
    if (!result.ok()) {
      state.SkipWithError(result.status().message().c_str());
      break;
    }
    benchmark::DoNotOptimize(result.value().w.data());
    latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count());
  }
  const std::size_t probe_retries = probe.value()->retries_used();
  server.value()->RequestDrain();
  serve.join();

  if (!latencies_ms.empty()) {
    std::sort(latencies_ms.begin(), latencies_ms.end());
    const auto percentile = [&](double q) {
      const auto rank = static_cast<std::size_t>(
          q * static_cast<double>(latencies_ms.size()));
      return latencies_ms[std::min(rank, latencies_ms.size() - 1)];
    };
    state.counters["p50_retry_ms"] = percentile(0.50);
    state.counters["p99_retry_ms"] = percentile(0.99);
    state.counters["shed_rate"] =
        flood_submits > 0 ? static_cast<double>(flood_shed) /
                                static_cast<double>(flood_submits)
                          : 0.0;
    state.counters["retries_per_op"] =
        static_cast<double>(probe_retries) /
        static_cast<double>(latencies_ms.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DaemonOverloadRoundTrip)->Unit(benchmark::kMillisecond);

// google-benchmark renamed Run::error_occurred to Run::skipped in v1.8.0;
// detect whichever member this library version has.
template <typename R, typename = void>
struct RunHasSkipped : std::false_type {};
template <typename R>
struct RunHasSkipped<R, std::void_t<decltype(std::declval<const R&>().skipped)>>
    : std::true_type {};

template <typename R>
bool RunWasSkipped(const R& run) {
  if constexpr (RunHasSkipped<R>::value) {
    return static_cast<bool>(run.skipped);
  } else {
    return run.error_occurred;
  }
}

/// Captures every finished run into the BENCH_*.json perf-trajectory schema
/// while still printing the familiar console table.
class JsonTrajectoryReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (RunWasSkipped(run)) continue;
      // With --benchmark_repetitions, aggregate rows (_mean/_stddev/...)
      // carry statistics, not times; recording them would corrupt the
      // trajectory (a _stddev row's "wall_seconds" is not a duration).
      if (run.run_type == Run::RT_Aggregate) continue;
      bench::BenchRecord record;
      record.name = run.benchmark_name();
      // GetAdjustedRealTime is per-iteration real time in the run's time
      // unit; normalize back to seconds.
      record.wall_seconds = run.GetAdjustedRealTime() /
                            benchmark::GetTimeUnitMultiplier(run.time_unit);
      record.iterations_per_sec =
          record.wall_seconds > 0.0 ? 1.0 / record.wall_seconds : 0.0;
      for (const char* extra :
           {"sigma", "sigma_ratio", "p50_ms", "p99_ms", "p50_retry_ms",
            "p99_retry_ms", "shed_rate", "retries_per_op",
            "trace_overhead_pct", "span_ns_disabled", "span_ns_enabled"}) {
        const auto it = run.counters.find(extra);
        if (it != run.counters.end()) {
          record.extras.emplace_back(extra, it->second.value);
        }
      }
      // Rate counters are per main-thread CPU time; rescale to wall clock
      // so pooled runs report true throughput (the number the perf
      // trajectory tracks).
      const double wall_rescale =
          (run.real_accumulated_time > 0.0 && run.cpu_accumulated_time > 0.0)
              ? run.cpu_accumulated_time / run.real_accumulated_time
              : 1.0;
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        record.items_per_sec = items->second.value * wall_rescale;
      }
      const auto bytes = run.counters.find("bytes_per_second");
      if (bytes != run.counters.end()) {
        record.extras.emplace_back("bytes_per_sec",
                                   bytes->second.value * wall_rescale);
      }
      writer_.Add(std::move(record));
    }
  }

  bool Write(const std::string& path) const { return writer_.WriteFile(path); }

 private:
  bench::BenchJsonWriter writer_{"bench_micro"};
};

}  // namespace
}  // namespace htdp

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_micro.json";
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      args.push_back(argv[i]);
    }
  }
  std::string min_time = "--benchmark_min_time=0.05";
  if (smoke) args.push_back(min_time.data());
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  htdp::JsonTrajectoryReporter trajectory;
  benchmark::RunSpecifiedBenchmarks(&trajectory);
  if (!trajectory.Write(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("perf trajectory written to %s (git %s, %d threads, simd %s)\n",
              json_path.c_str(), htdp::bench::GitRevision(),
              htdp::NumWorkerThreads(), htdp::bench::SimdTag());
  return 0;
}
