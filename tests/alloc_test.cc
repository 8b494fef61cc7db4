// Allocation guards: after the first (warm-up) iterations, the alg1 fit
// loop and the workspace-backed robust gradient estimate must perform no
// heap allocation at all, and a large SUBMIT must cost exactly one
// dataset-sized allocation end to end. Counted by overriding the global
// allocation functions for this test binary.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <new>
#include <span>
#include <string>
#include <utility>

#include "core/htdp.h"
#include "gtest/gtest.h"
#include "net/client.h"
#include "net/serialize.h"
#include "net/transport.h"
#include "util/parallel.h"

namespace {

std::atomic<std::size_t> g_allocations{0};
// Allocations of at least g_large_bytes bytes are also counted here.
std::atomic<std::size_t> g_large_bytes{std::numeric_limits<std::size_t>::max()};
std::atomic<std::size_t> g_large_allocations{0};

void CountAllocation(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size >= g_large_bytes.load(std::memory_order_relaxed)) {
    g_large_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}

void* CountedAllocate(std::size_t size) {
  CountAllocation(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAllocate(size); }
void* operator new[](std::size_t size) { return CountedAllocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  CountAllocation(size);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  CountAllocation(size);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace htdp {
namespace {

// Keeps kernel outputs observable so the compiler cannot elide the calls.
volatile double benchmark_sink = 0.0;

Dataset MakeData(std::size_t n, std::size_t d, Rng& rng) {
  SyntheticConfig config;
  config.n = n;
  config.d = d;
  config.feature_dist = ScalarDistribution::Lognormal(0.0, 0.6);
  const Vector w_star = MakeL1BallTarget(d, rng);
  return GenerateLinear(config, w_star, rng);
}

TEST(ZeroAllocationTest, Alg1IterationsAllocateNothingAfterWarmup) {
  Rng data_rng(17);
  const std::size_t n = 640;
  const std::size_t d = 16;
  const Dataset data = MakeData(n, d, data_rng);
  const SquaredLoss loss;
  const L1Ball ball(d, 1.0);
  const Problem problem = Problem::ConstrainedErm(loss, data, ball);

  constexpr int kIterations = 8;
  // Allocation counter snapshot after each iteration, captured through the
  // observer. Fixed-size storage: the capture itself must not allocate.
  static std::size_t counts[kIterations + 1];
  static int events;
  events = 0;

  SolverSpec spec;
  spec.budget = PrivacyBudget::Pure(1.0);
  spec.iterations = kIterations;
  spec.scale = 5.0;
  spec.tau = 4.0;
  spec.observer = [](const IterationEvent& event) {
    if (event.iteration <= kIterations) {
      counts[event.iteration] = g_allocations.load(std::memory_order_relaxed);
      ++events;
    }
  };

  const std::unique_ptr<Solver> solver =
      SolverRegistry::Global().Create(kSolverAlg1DpFw);
  Rng rng(5);
  const FitResult result = solver->Fit(problem, spec, rng);
  ASSERT_EQ(result.iterations, kIterations);
  ASSERT_EQ(events, kIterations);

  // Iteration 1 warms the workspace (and, on multi-core machines, may
  // create the process-wide Engine); iteration 2 may still touch a
  // lazily-grown buffer. From then on the loop must be allocation-free.
  for (int t = 3; t <= kIterations; ++t) {
    EXPECT_EQ(counts[t] - counts[t - 1], 0u)
        << "iteration " << t << " allocated";
  }
}

TEST(ZeroAllocationTest, SimdBatchKernelsAllocateNothing) {
  // The SIMD kernel layer works out of registers and fixed stack blocks:
  // SmoothedPhiBatch, the SIMD AccumulateContributions path and the SIMD
  // Gumbel-max selection must not touch the heap at all (not even on their
  // first call -- there is no warm-up state to grow).
  Rng rng(41);
  const std::size_t n = 3000;
  Vector a(n);
  Vector b(n);
  Vector out(n);
  Vector acc(n, 0.0);
  Vector scores(n);
  for (std::size_t j = 0; j < n; ++j) {
    a[j] = SampleLognormal(rng, 0.0, 0.8) - 1.0;
    b[j] = std::abs(a[j]);
    scores[j] = rng.Uniform(-1.0, 1.0);
  }
  // The toggle is on for the whole test, so the batch and the estimator
  // take the SIMD path even when the process runs under HTDP_SIMD=off.
  const ScopedSimdOverride simd(true);
  const RobustMeanEstimator estimator(2.0, 1.0);
  const ExponentialMechanism mechanism(0.1, 1.0);

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 3; ++round) {
    SmoothedPhiBatch(a.data(), b.data(), out.data(), n);
    estimator.AccumulateContributions(a.data(), n, acc.data());
    benchmark_sink = benchmark_sink + out[0] + acc[0];
    benchmark_sink =
        benchmark_sink +
        static_cast<double>(mechanism.SelectGumbelSimd(scores, rng));
  }
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "SIMD batch kernel allocated";
}

TEST(ZeroAllocationTest, WorkspaceEstimateAllocatesNothingWhenWarm) {
  Rng data_rng(29);
  const std::size_t n = 2000;
  const std::size_t d = 32;
  const Dataset data = MakeData(n, d, data_rng);
  const SquaredLoss loss;
  const RobustGradientEstimator estimator(5.0, 1.0);
  const Vector w(d, 0.01);

  RobustGradientWorkspace workspace;
  Vector out;
  // Warm-up: sizes the partials, row buffers and the output vector.
  estimator.Estimate(loss, FullView(data), w, out, &workspace);

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 5; ++round) {
    estimator.Estimate(loss, FullView(data), w, out, &workspace);
  }
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "warm Estimate allocated";
}

// A test-only solver whose fit runs `fit` on the Engine worker.
class CallbackSolver : public Solver {
 public:
  explicit CallbackSolver(std::function<void()> fit) : fit_(std::move(fit)) {}
  std::string name() const override { return "callback"; }
  std::string description() const override { return "runs a test callback"; }
  AlgorithmId algorithm() const override { return AlgorithmId::kDpFw; }
  bool requires_loss() const override { return false; }
  StatusOr<FitResult> TryFit(const Problem&, const SolverSpec&,
                             Rng&) const override {
    fit_();
    return FitResult{};
  }

 private:
  std::function<void()> fit_;
};

TEST(ZeroAllocationTest, WarmDispatchingEstimateAllocatesNothing) {
  // 2000 x 64 gives the estimate more than one coordinate block, so each
  // call dispatches twice: from a job to its own Engine's three workers,
  // and from the test thread to the process-wide Engine.
  Rng data_rng(37);
  const std::size_t n = 2000;
  const std::size_t d = 64;
  const Dataset data = MakeData(n, d, data_rng);
  const SquaredLoss loss;
  const RobustGradientEstimator estimator(5.0, 1.0);
  const Vector w(d, 0.01);
  RobustGradientWorkspace workspace;
  Vector out;
  // Warms the workspace (and, on the test thread, may create the
  // process-wide Engine), then counts the allocations of five more calls.
  const auto warm_allocations = [&] {
    estimator.Estimate(loss, FullView(data), w, out, &workspace);
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    for (int round = 0; round < 5; ++round) {
      estimator.Estimate(loss, FullView(data), w, out, &workspace);
    }
    return g_allocations.load(std::memory_order_relaxed) - before;
  };

  std::size_t in_job = 0;
  const CallbackSolver solver([&] { in_job = warm_allocations(); });
  Engine engine(Engine::Options{3});
  FitJob job;
  job.solver = &solver;
  const JobHandle handle = engine.Submit(std::move(job));
  ASSERT_TRUE(handle.Wait().ok());
  EXPECT_EQ(in_job, 0u) << "warm Estimate allocated inside an Engine job";

  if (NumWorkerThreads() < 2) {
    GTEST_SKIP() << "ParallelFor runs serially on the test thread";
  }
  EXPECT_EQ(warm_allocations(), 0u) << "warm Estimate allocated";
}

// A client stream that takes the bytes and keeps none of them; the peer
// never answers.
class DiscardingStream : public net::ByteStream {
 public:
  Status Send(std::span<const net::ByteSpan>) override { return Status::Ok(); }
  StatusOr<std::size_t> Recv(std::uint8_t*, std::size_t) override {
    return std::size_t{0};
  }
  void Close() override {}
};

TEST(ZeroAllocationTest, LargeSubmitAllocatesOneDatasetBuffer) {
  // No n x d buffer on the client (the dataset is sent from the request's
  // own Matrix) and exactly one on the daemon (the job's Matrix storage,
  // filled as the bytes arrive).
  Rng data_rng(31);
  net::SubmitRequest request;
  request.solver = kSolverAlg1DpFw;
  request.problem.loss = net::kWireLossSquared;
  request.problem.data = MakeData(1024, 128, data_rng);  // a 1 MB x block
  const std::size_t x_bytes = 1024 * 128 * sizeof(double);
  net::WireWriter payload;
  net::EncodeSubmit(payload, request);
  const std::vector<std::uint8_t> wire =
      net::EncodeFrame(net::FrameType::kSubmit, payload.bytes());
  auto client = net::Client::ConnectWith(
      []() -> StatusOr<std::unique_ptr<net::ByteStream>> {
        return std::unique_ptr<net::ByteStream>(
            std::make_unique<DiscardingStream>());
      });
  ASSERT_TRUE(client.ok());

  g_large_allocations.store(0);
  g_large_bytes.store(x_bytes);
  // Fails as a closed connection, once the frame has gone out.
  const StatusOr<std::uint64_t> sent = client.value()->Submit(request);
  const std::size_t client_large = g_large_allocations.exchange(0);

  net::FrameDecoder decoder(net::kDefaultMaxPayloadBytes, net::OpenSubmitSink);
  for (std::size_t at = 0; at < wire.size(); at += 64 << 10) {
    decoder.Feed(wire.data() + at, std::min<std::size_t>(64 << 10,
                                                         wire.size() - at));
  }
  std::optional<net::Frame> frame;
  ASSERT_TRUE(decoder.Next(&frame).ok());
  ASSERT_TRUE(frame.has_value());
  const StatusOr<net::SubmitRequest> received = net::TakeSubmit(*frame);
  const std::size_t daemon_large = g_large_allocations.load();
  g_large_bytes.store(std::numeric_limits<std::size_t>::max());

  EXPECT_EQ(sent.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(client_large, 0u) << "the client copied the dataset";
  ASSERT_TRUE(received.ok()) << received.status().message();
  EXPECT_EQ(daemon_large, 1u) << "the daemon buffered the dataset";
  EXPECT_EQ(received.value().problem.data.x.data(),
            request.problem.data.x.data());
  EXPECT_EQ(received.value().problem.data.y, request.problem.data.y);
}

}  // namespace
}  // namespace htdp
