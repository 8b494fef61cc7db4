// ParallelFor determinism and scheduling guards. The bit-identity tests run
// their bodies from the test thread and as jobs on Engines of 1, 3 and 8
// workers (AtEveryWidth), so dispatches genuinely execute on multiple
// threads even on single-core CI machines, and the robust gradient's
// coordinate blocks take several different layouts.
//
// The contracts under test: a ParallelFor's thread count follows the
// Engine that runs it; the robust gradient equals its serial
// per-coordinate, row-order sum bit for bit at every worker count; the exact
// reductions (EmpiricalRisk, EmpiricalGradient) equal their serial
// fixed-chunk sums bit for bit at every worker count; a dispatch never waits
// for another one to finish; and the chunks of a job's dispatch run on its
// Engine's workers.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/htdp.h"
#include "gtest/gtest.h"
#include "util/parallel.h"
#include "util/simd.h"
#include "util/simd_dispatch.h"

namespace htdp {
namespace {

/// A test-only solver whose fit runs `fit` on the Engine worker and
/// returns an empty FitResult.
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

FitJob JobFor(const Solver& solver) {
  FitJob job;
  job.solver = &solver;
  return job;
}

constexpr int kEngineWidths[] = {1, 3, 8};

// Runs `body(threads)` from the test thread, whose ParallelFor calls may
// use threads = NumWorkerThreads(), then as a job on an Engine of each
// width in {1, 3, 8}, whose calls may use threads = that width.
void AtEveryWidth(const std::function<void(int threads)>& body) {
  {
    SCOPED_TRACE("test thread");
    body(NumWorkerThreads());
  }
  for (const int width : {1, 3, 8}) {
    const CallbackSolver solver([&] {
      SCOPED_TRACE("Engine of " + std::to_string(width) + " workers");
      body(width);
    });
    Engine engine(Engine::Options{width});
    const JobHandle job = engine.Submit(JobFor(solver));
    ASSERT_TRUE(job.Wait().ok());
  }
}

TEST(ParallelPoolTest, DispatchThreadsFollowTheCallersEngine) {
  AtEveryWidth([](int threads) {
    EXPECT_EQ(parallel_internal::DispatchThreads(), threads);
    std::mutex mu;
    std::set<int> in_chunks;
    ParallelFor(
        64,
        [&](std::size_t, std::size_t) {
          const int nested = parallel_internal::DispatchThreads();
          const std::lock_guard<std::mutex> lock(mu);
          in_chunks.insert(nested);
        },
        /*min_parallel=*/2);
    EXPECT_EQ(in_chunks, std::set<int>{1});
  });
}

// An estimator built with the process-wide SIMD toggle at `simd`. The toggle
// is held only while it is constructed, which is when the estimator picks
// its Catoni kernel path; every other kernel (the Dot behind each row's
// gradient scale, say) keeps the process setting.
template <typename Estimator>
Estimator BuildWithSimd(bool simd, double scale, double beta) {
  const ScopedSimdOverride mode(simd);
  return Estimator(scale, beta);
}

// Serial reference of the estimator's reduction contract, written
// coordinate by coordinate: each coordinate sums the scalar
// SampleContribution of its fused gradient entries over the rows in row
// order, then scales by 1/m. Nothing here depends on the worker count.
Vector SerialCoordinateRobustGradient(const RobustGradientEstimator& estimator,
                                      const Loss& loss,
                                      const DatasetView& view,
                                      const Vector& w) {
  const std::size_t d = w.size();
  const std::size_t m = view.size();
  const RobustMeanEstimator scalar(estimator.scale(), estimator.beta());
  const double ridge = loss.RidgeCoefficient();
  Vector out(d, 0.0);
  for (std::size_t j = 0; j < d; ++j) {
    for (std::size_t i = 0; i < m; ++i) {
      double scale = 0.0;
      EXPECT_TRUE(
          loss.GradientAsScaledFeature(view.Row(i), view.Label(i), w, &scale));
      out[j] += scalar.SampleContribution(scale * view.Row(i)[j] +
                                          ridge * w[j]);
    }
  }
  Scale(1.0 / static_cast<double>(m), out);
  return out;
}

TEST(ParallelPoolTest, PooledRobustGradientMatchesSerialCoordinateSums) {
  Rng rng(21);
  const std::size_t n = 3000;
  const std::size_t d = 96;
  SyntheticConfig config{n, d, ScalarDistribution::Lognormal(0.0, 0.6),
                         ScalarDistribution::Normal(0.0, 0.1)};
  const Vector w_star = MakeL1BallTarget(d, rng);
  const Dataset data = GenerateLinear(config, w_star, rng);
  const SquaredLoss loss;
  // Scalar mode: the serial reference recomputes contributions with scalar
  // SampleContribution calls, which the batch kernel only matches bit for
  // bit on the scalar path (SIMD agreement is ULP-bound, pinned in
  // robust_test). The SIMD tables are pinned against the whole-row kernel
  // in BlockedEstimateEqualsWholeRowKernelsUnderEveryTable.
  const auto estimator =
      BuildWithSimd<RobustGradientEstimator>(/*simd=*/false, 5.0, 1.0);
  Vector w(d, 0.0);
  for (std::size_t j = 0; j < d; ++j) w[j] = 0.01 * static_cast<double>(j % 5);

  const Vector reference =
      SerialCoordinateRobustGradient(estimator, loss, FullView(data), w);
  AtEveryWidth([&](int) {
    Vector pooled;
    estimator.Estimate(loss, FullView(data), w, pooled);
    ASSERT_EQ(pooled.size(), reference.size());
    for (std::size_t j = 0; j < d; ++j) {
      ASSERT_EQ(pooled[j], reference[j]) << "coordinate " << j;
    }
  });
}

// Whole-row reference: per row, one ScaledSumKernel and one
// AccumulateContributions call over all d coordinates, in row order, then
// 1/m. Estimate splits the row into 8-aligned coordinate blocks; under
// every kernel table the Catoni lanes are independent of their neighbours
// and of where a block or tail starts, so the two agree bit for bit. Also
// counts the cold (non-closed-form) elements the rows contain.
Vector WholeRowRobustGradient(const RobustGradientEstimator& estimator,
                              const Loss& loss, const DatasetView& view,
                              const Vector& w, std::size_t* cold) {
  const std::size_t d = w.size();
  const std::size_t m = view.size();
  const auto kernel = BuildWithSimd<RobustMeanEstimator>(
      estimator.simd(), estimator.scale(), estimator.beta());
  const double sqrt_beta = std::sqrt(estimator.beta());
  Vector row(d, 0.0);
  Vector acc(d, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    double scale = 0.0;
    EXPECT_TRUE(
        loss.GradientAsScaledFeature(view.Row(i), view.Label(i), w, &scale));
    ScaledSumKernel(scale, view.Row(i), loss.RidgeCoefficient(), w.data(),
                    row.data(), d);
    kernel.AccumulateContributions(row.data(), d, acc.data());
    for (std::size_t j = 0; j < d; ++j) {
      const double abs_a = std::abs(row[j] / estimator.scale());
      if (!catoni_internal::ClosedFormApplies(abs_a, abs_a / sqrt_beta)) {
        ++*cold;
      }
    }
  }
  Scale(1.0 / static_cast<double>(m), acc);
  return acc;
}

TEST(ParallelPoolTest, BlockedEstimateEqualsWholeRowKernelsUnderEveryTable) {
  AtEveryWidth([](int) {
    const SquaredLoss loss;
    for (const std::size_t m : {std::size_t{100}, std::size_t{3000}}) {
      for (const std::size_t d : {5u, 37u, 64u, 400u, 803u}) {
        Rng rng(1000 + 7 * m + d);
        SyntheticConfig config{m, d, ScalarDistribution::Lognormal(0.0, 2.0),
                               ScalarDistribution::Normal(0.0, 0.1)};
        const Vector w_star = MakeL1BallTarget(d, rng);
        const Dataset data = GenerateLinear(config, w_star, rng);
        // At w* the residuals are the label noise, so the gradient entries
        // are noise times Lognormal(0, 2) features: mostly closed-form, with
        // a heavy tail of cold elements.
        const Vector& w = w_star;
        const auto expect_blocked_equals_whole_row =
            [&](const RobustGradientEstimator& estimator) {
              std::size_t cold = 0;
              const Vector reference = WholeRowRobustGradient(
                  estimator, loss, FullView(data), w, &cold);
              ASSERT_GT(cold, 0u) << "data must reach the cold lanes";
              Vector blocked;
              estimator.Estimate(loss, FullView(data), w, blocked);
              ASSERT_EQ(blocked.size(), d);
              for (std::size_t j = 0; j < d; ++j) {
                ASSERT_EQ(blocked[j], reference[j]) << "coordinate " << j;
              }
            };
        SCOPED_TRACE("m=" + std::to_string(m) + " d=" + std::to_string(d));
        for (const char* isa : {"avx512f", "avx2", "sse2"}) {
          if (!SimdIsaAvailable(isa)) continue;
          SCOPED_TRACE(isa);
          const ScopedSimdIsaOverride pin(isa);
          const auto estimator =
              BuildWithSimd<RobustGradientEstimator>(/*simd=*/true, 1.0, 1.0);
          ASSERT_TRUE(estimator.simd());
          expect_blocked_equals_whole_row(estimator);
        }
        SCOPED_TRACE("simd off");
        expect_blocked_equals_whole_row(
            BuildWithSimd<RobustGradientEstimator>(/*simd=*/false, 1.0, 1.0));
      }
    }
  });
}

TEST(ParallelPoolTest, RepeatedPooledEstimatesAreBitIdentical) {
  Rng rng(33);
  const std::size_t n = 4096;
  const std::size_t d = 48;
  SyntheticConfig config{n, d, ScalarDistribution::StudentT(3.0),
                         ScalarDistribution::Normal(0.0, 0.1)};
  const Vector w_star = MakeL1BallTarget(d, rng);
  const Dataset data = GenerateLinear(config, w_star, rng);
  const LogisticLoss loss;
  const RobustGradientEstimator estimator(8.0, 2.0);
  const Vector w(d, 0.01);

  Vector first;
  RobustGradientWorkspace workspace;
  estimator.Estimate(loss, FullView(data), w, first, &workspace);
  AtEveryWidth([&](int) {
    for (int round = 0; round < 20; ++round) {
      Vector again;
      estimator.Estimate(loss, FullView(data), w, again,
                         round % 2 == 0 ? &workspace : nullptr);
      for (std::size_t j = 0; j < d; ++j) {
        ASSERT_EQ(again[j], first[j]) << "round " << round << " coord " << j;
      }
    }
  });
}

TEST(ParallelPoolTest, PooledEmpiricalRiskIsStableAcrossRuns) {
  Rng rng(41);
  const std::size_t n = 6000;
  const std::size_t d = 32;
  SyntheticConfig config{n, d, ScalarDistribution::Lognormal(0.0, 0.6),
                         ScalarDistribution::Normal(0.0, 0.1)};
  const Vector w_star = MakeL1BallTarget(d, rng);
  const Dataset data = GenerateLinear(config, w_star, rng);
  const SquaredLoss loss;
  const double first = EmpiricalRisk(loss, data, w_star);
  AtEveryWidth([&](int) {
    for (int round = 0; round < 50; ++round) {
      ASSERT_EQ(EmpiricalRisk(loss, data, w_star), first) << "round " << round;
    }
  });
}

// Serial reference of the exact reductions' contract (losses/loss.cc):
// the rows split into chunks of 512 (the last one partial), each chunk sums
// its rows in row order, and the partials add in chunk order. Holds for
// views of up to 64 chunks. Nothing here depends on the worker count.
constexpr std::size_t kReductionChunkRows = 512;

double ChunkedRisk(const Loss& loss, const DatasetView& view,
                   const Vector& w) {
  double total = 0.0;
  for (std::size_t lo = 0; lo < view.size(); lo += kReductionChunkRows) {
    const std::size_t hi = std::min(lo + kReductionChunkRows, view.size());
    double acc = 0.0;
    for (std::size_t i = lo; i < hi; ++i) {
      acc += loss.Value(view.Row(i), view.Label(i), w);
    }
    total += acc;
  }
  return total / static_cast<double>(view.size());
}

Vector ChunkedGradient(const Loss& loss, const DatasetView& view,
                       const Vector& w) {
  const std::size_t d = w.size();
  Vector total(d, 0.0);
  for (std::size_t lo = 0; lo < view.size(); lo += kReductionChunkRows) {
    const std::size_t hi = std::min(lo + kReductionChunkRows, view.size());
    Vector acc(d, 0.0);
    for (std::size_t i = lo; i < hi; ++i) {
      double scale = 0.0;
      EXPECT_TRUE(
          loss.GradientAsScaledFeature(view.Row(i), view.Label(i), w, &scale));
      AxpyKernel(scale, view.Row(i), acc.data(), d);
    }
    Axpy(1.0, acc, total);
  }
  const double inv_m = 1.0 / static_cast<double>(view.size());
  for (std::size_t j = 0; j < d; ++j) {
    total[j] = total[j] * inv_m + loss.RidgeCoefficient() * w[j];
  }
  return total;
}

TEST(ParallelPoolTest, ExactReductionsMatchFixedChunkSums) {
  Rng rng(57);
  const std::size_t n = 3000;
  const std::size_t d = 40;
  SyntheticConfig config{n, d, ScalarDistribution::Lognormal(0.0, 0.6),
                         ScalarDistribution::Normal(0.0, 0.1)};
  const Vector w_star = MakeL1BallTarget(d, rng);
  const Dataset linear = GenerateLinear(config, w_star, rng);
  const Dataset logistic = GenerateLogistic(config, w_star, rng);
  Vector w(d, 0.0);
  for (std::size_t j = 0; j < d; ++j) w[j] = 0.02 * static_cast<double>(j % 7);

  // Five whole chunks plus a partial one, starting mid-dataset.
  const std::size_t begin = 37;
  const std::size_t rows = 5 * kReductionChunkRows + 201;
  const SquaredLoss squared;
  const LogisticLoss logistic_ridge(0.05);
  const std::pair<const Loss*, const Dataset*> cases[] = {
      {&squared, &linear}, {&logistic_ridge, &logistic}};
  for (const auto& test_case : cases) {
    const Loss* loss = test_case.first;
    const Dataset* data = test_case.second;
    SCOPED_TRACE(loss->Name());
    const DatasetView view{data, begin, begin + rows};
    const double risk = ChunkedRisk(*loss, view, w);
    const Vector reference = ChunkedGradient(*loss, view, w);
    AtEveryWidth([&](int) {
      EXPECT_EQ(EmpiricalRisk(*loss, view, w), risk);
      Vector grad;
      EmpiricalGradient(*loss, view, w, grad);
      ASSERT_EQ(grad.size(), d);
      for (std::size_t j = 0; j < d; ++j) {
        ASSERT_EQ(grad[j], reference[j]) << "coordinate " << j;
      }
    });
  }
}

TEST(ParallelPoolTest, ContendedDispatchRunsInline) {
  // Thread A's dispatch holds the pool until this thread's dispatch has
  // finished. If the second dispatch queued behind the first, A's chunks
  // would give up at the deadline and the test fails (it never hangs).
  using Clock = std::chrono::steady_clock;
  std::atomic<bool> a_running{false};
  std::atomic<bool> b_done{false};
  std::atomic<bool> a_timed_out{false};
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(10);
  std::thread a([&] {
    ParallelFor(
        64,
        [&](std::size_t, std::size_t) {
          a_running.store(true);
          while (!b_done.load()) {
            if (Clock::now() > deadline) {
              a_timed_out.store(true);
              return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        },
        /*min_parallel=*/2);
  });
  while (!a_running.load()) std::this_thread::yield();

  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(
      hits.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      },
      /*min_parallel=*/2);
  b_done.store(true);
  a.join();

  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_FALSE(a_timed_out.load())
      << "the second dispatch waited for the first to release the pool";
}

TEST(ParallelPoolTest, EngineWorkersRunASoloJobsChunks) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(10);
  std::mutex mu;
  std::condition_variable cv;
  std::set<std::thread::id> workers;
  std::set<std::thread::id> chunk_threads;
  bool timed_out = false;
  // Waits, under `lock`, until `done` holds or the shared deadline passes.
  const auto wait_for = [&](std::unique_lock<std::mutex>& lock,
                            const std::function<bool()>& done) {
    if (!cv.wait_until(lock, deadline, done)) timed_out = true;
  };

  Engine engine(Engine::Options{3});
  // Three jobs that each hold a worker until all three have started name
  // the Engine's three worker threads.
  const CallbackSolver name_worker([&] {
    std::unique_lock<std::mutex> lock(mu);
    workers.insert(std::this_thread::get_id());
    cv.notify_all();
    wait_for(lock, [&] { return workers.size() == 3; });
  });
  std::vector<JobHandle> probes;
  for (int i = 0; i < 3; ++i) {
    probes.push_back(engine.Submit(JobFor(name_worker)));
  }
  for (const JobHandle& probe : probes) ASSERT_TRUE(probe.Wait().ok());
  ASSERT_EQ(workers.size(), 3u);

  // A solo job whose every chunk waits until two threads have entered one:
  // the job's worker cannot finish alone, so idle workers must take chunks.
  const CallbackSolver dispatch([&] {
    ParallelFor(
        64,
        [&](std::size_t, std::size_t) {
          std::unique_lock<std::mutex> lock(mu);
          chunk_threads.insert(std::this_thread::get_id());
          cv.notify_all();
          wait_for(lock, [&] { return chunk_threads.size() >= 2; });
        },
        /*min_parallel=*/2);
  });
  const JobHandle solo = engine.Submit(JobFor(dispatch));
  ASSERT_TRUE(solo.Wait().ok());

  const std::lock_guard<std::mutex> lock(mu);
  EXPECT_FALSE(timed_out) << "no second thread ran a chunk";
  EXPECT_GE(chunk_threads.size(), 2u);
  for (const std::thread::id& id : chunk_threads) {
    EXPECT_EQ(workers.count(id), 1u) << "a chunk ran off the Engine's workers";
  }
}

TEST(ParallelPoolTest, BusyEngineDispatchRunsOnItsOwner) {
  // Job A's first chunk, which its own worker runs, blocks until job B's
  // dispatch has finished. B runs on the Engine's other worker, and its
  // dispatch must run there alone rather than wait for A's worker. If it
  // waited, A's chunk would give up at the deadline and the test fails (it
  // never hangs).
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(10);
  std::atomic<bool> a_running{false};
  std::atomic<bool> b_done{false};
  std::atomic<bool> a_timed_out{false};
  const CallbackSolver a_solver([&] {
    ParallelFor(
        64,
        [&](std::size_t begin, std::size_t) {
          if (begin != 0) return;
          a_running.store(true);
          while (!b_done.load()) {
            if (Clock::now() > deadline) {
              a_timed_out.store(true);
              return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        },
        /*min_parallel=*/2);
  });
  std::vector<std::atomic<int>> hits(1000);
  std::mutex mu;
  std::set<std::thread::id> b_threads;
  std::thread::id b_owner;
  const CallbackSolver b_solver([&] {
    b_owner = std::this_thread::get_id();
    ParallelFor(
        hits.size(),
        [&](std::size_t begin, std::size_t end) {
          {
            const std::lock_guard<std::mutex> lock(mu);
            b_threads.insert(std::this_thread::get_id());
          }
          for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
        },
        /*min_parallel=*/2);
    b_done.store(true);
  });

  Engine engine(Engine::Options{2});
  const JobHandle a = engine.Submit(JobFor(a_solver));
  while (!a_running.load()) std::this_thread::yield();
  const JobHandle b = engine.Submit(JobFor(b_solver));
  ASSERT_TRUE(b.Wait().ok());
  ASSERT_TRUE(a.Wait().ok());

  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_FALSE(a_timed_out.load())
      << "B's dispatch waited for A's worker";
  const std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(b_threads, std::set<std::thread::id>{b_owner});
}

}  // namespace
}  // namespace htdp
