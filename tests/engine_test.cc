// Tests for the concurrent Engine job layer: bit-identical results to
// sequential TryFit at fixed seeds for every registered solver, non-aborting
// typed error statuses through Submit, FIFO start order, cancellation
// (queued, running, and racing the workers' dequeue), wall-clock deadlines,
// shutdown semantics, and aggregate EngineStats.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/htdp.h"
#include "gtest/gtest.h"
#include "harness/experiment.h"
#include "harness/scenario.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/simd.h"

namespace htdp {
namespace {

Dataset EngineTestData(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  SyntheticConfig config;
  config.n = n;
  config.d = d;
  config.feature_dist = ScalarDistribution::Lognormal(0.0, 0.6);
  config.noise_dist = ScalarDistribution::Normal(0.0, 0.1);
  const Vector w_star = MakeL1BallTarget(d, rng);
  return GenerateLinear(config, w_star, rng);
}

/// The shared workload of the bit-identity tests: every registered solver
/// can fit it (constraint and sparsity target both present).
struct SharedWorkload {
  SharedWorkload() : data(EngineTestData(600, 12, 17)), ball(12, 1.0) {}

  FitJob JobFor(const std::string& name, std::uint64_t seed) const {
    const Solver* solver = *SolverRegistry::Global().Find(name);
    FitJob job;
    job.solver_name = name;
    job.problem.loss = &loss;
    job.problem.data = &data;
    job.problem.target_sparsity = 3;
    if (solver->requires_constraint()) job.problem.constraint = &ball;
    job.spec.budget = solver->supports_pure_dp()
                          ? PrivacyBudget::Pure(1.0)
                          : PrivacyBudget::Approx(1.0, 1e-5);
    job.spec.tau = 4.0;
    job.spec.step = 0.02;
    job.seed = seed;
    job.tag = name;
    return job;
  }

  Dataset data;
  SquaredLoss loss;
  L1Ball ball;
};

/// Sum over every series of `name` (all label sets) in a Prometheus export.
double ScrapedTotal(const std::string& text, const std::string& name) {
  double total = 0.0;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.size() <= name.size() || line.compare(0, name.size(), name) != 0) {
      continue;
    }
    const char next = line[name.size()];  // a label set or the value
    if (next != ' ' && next != '{') continue;
    total += std::stod(line.substr(line.rfind(' ') + 1));
  }
  return total;
}

/// Every engine counter family with the EngineStats field it mirrors.
const std::vector<std::pair<std::string, std::size_t EngineStats::*>>&
EngineCounterFamilies() {
  static const auto* families =
      new std::vector<std::pair<std::string, std::size_t EngineStats::*>>{
          {"htdp_engine_jobs_submitted_total", &EngineStats::submitted},
          {"htdp_engine_jobs_completed_total", &EngineStats::completed},
          {"htdp_engine_jobs_succeeded_total", &EngineStats::succeeded},
          {"htdp_engine_jobs_failed_total", &EngineStats::failed},
          {"htdp_engine_jobs_cancelled_total", &EngineStats::cancelled},
          {"htdp_engine_jobs_deadline_exceeded_total",
           &EngineStats::deadline_exceeded},
          {"htdp_engine_jobs_budget_rejected_total",
           &EngineStats::budget_rejected},
          {"htdp_engine_jobs_shed_total", &EngineStats::unavailable_rejected},
          {"htdp_engine_jobs_shed_expired_total", &EngineStats::shed_expired},
      };
  return *families;
}

/// Engine counter totals and the fit-latency observation count, read from
/// the process-wide registry's export (reading never registers a series).
struct RegistrySnapshot {
  std::vector<double> counters;  // EngineCounterFamilies() order
  double fit_latency_count = 0.0;
};

RegistrySnapshot SnapshotRegistry() {
  const std::string text = obs::MetricRegistry::Global().ToPrometheus();
  RegistrySnapshot snapshot;
  for (const auto& family : EngineCounterFamilies()) {
    snapshot.counters.push_back(ScrapedTotal(text, family.first));
  }
  snapshot.fit_latency_count =
      ScrapedTotal(text, "htdp_fit_latency_seconds_count");
  return snapshot;
}

/// Counts FitJob::on_done calls across one test's jobs.
struct DoneCounter {
  std::atomic<std::size_t> calls{0};

  FitJob Counted(FitJob job) {
    job.on_done = [this] { calls.fetch_add(1); };
    return job;
  }
};

/// Counter parity between the Engine's two stores: after draining
/// `engine`, every htdp_engine_*_total delta since `before` (taken while
/// no other Engine was counting) equals the matching EngineStats field,
/// and htdp_fit_latency_seconds observed exactly the `picked_up` jobs a
/// worker ran -- inline rejections, queued cancels, dequeue sheds and
/// shutdown sweeps are not observed. Every job was submitted through
/// `done`, so on_done must have run once per completed job: Drain()
/// returns only after each completion, callback included, has finished.
void ExpectRegistryMatchesStats(const RegistrySnapshot& before, Engine& engine,
                                std::size_t picked_up,
                                const DoneCounter& done) {
  engine.Drain();
  const EngineStats stats = engine.stats();
  const RegistrySnapshot after = SnapshotRegistry();
  for (std::size_t i = 0; i < EngineCounterFamilies().size(); ++i) {
    const auto& family = EngineCounterFamilies()[i];
    EXPECT_EQ(after.counters[i] - before.counters[i],
              static_cast<double>(stats.*family.second))
        << family.first;
  }
  EXPECT_EQ(after.fit_latency_count - before.fit_latency_count,
            static_cast<double>(picked_up));
  EXPECT_EQ(done.calls.load(), stats.completed);
}

TEST(EngineTest, EverySolverBitIdenticalToSequentialTryFit) {
  const SharedWorkload workload;
  Engine engine(Engine::Options{/*workers=*/4});

  // Submit every solver several times with distinct seeds, all concurrent.
  const std::vector<std::string> names = SolverRegistry::Global().Names();
  std::vector<JobHandle> handles;
  for (const std::string& name : names) {
    for (std::uint64_t seed : {5u, 99u, 1234u}) {
      handles.push_back(engine.Submit(workload.JobFor(name, seed)));
    }
  }

  std::size_t index = 0;
  for (const std::string& name : names) {
    const Solver* solver = *SolverRegistry::Global().Find(name);
    for (std::uint64_t seed : {5u, 99u, 1234u}) {
      SCOPED_TRACE(name + " seed=" + std::to_string(seed));
      const StatusOr<FitResult>& concurrent = handles[index++].Wait();
      ASSERT_TRUE(concurrent.ok()) << concurrent.status().ToString();

      const FitJob job = workload.JobFor(name, seed);
      Rng rng(seed);
      const StatusOr<FitResult> sequential =
          solver->TryFit(job.problem, job.spec, rng);
      ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();

      ASSERT_EQ(concurrent->w.size(), sequential->w.size());
      for (std::size_t j = 0; j < sequential->w.size(); ++j) {
        EXPECT_EQ(concurrent->w[j], sequential->w[j]);
      }
      EXPECT_EQ(concurrent->iterations, sequential->iterations);
      EXPECT_EQ(concurrent->ledger.entries().size(),
                sequential->ledger.entries().size());
      EXPECT_EQ(concurrent->selected, sequential->selected);
    }
  }

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, handles.size());
  EXPECT_EQ(stats.completed, handles.size());
  EXPECT_EQ(stats.succeeded, handles.size());
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.running, 0u);
  EXPECT_GT(stats.jobs_per_second, 0.0);
}

TEST(EngineTest, ExplicitRngStreamOverridesSeed) {
  const SharedWorkload workload;
  Engine engine(Engine::Options{2});

  // A mid-stream generator (as the harness hands over after data
  // generation) must be honored verbatim.
  Rng stream(7);
  stream.Next();
  stream.Next();
  FitJob job = workload.JobFor(kSolverAlg1DpFw, /*seed=*/0);
  job.rng = stream;  // overrides seed
  const JobHandle handle = engine.Submit(std::move(job));

  Rng reference_rng(7);
  reference_rng.Next();
  reference_rng.Next();
  const FitJob reference_job = workload.JobFor(kSolverAlg1DpFw, 0);
  const Solver* solver = *SolverRegistry::Global().Find(kSolverAlg1DpFw);
  const StatusOr<FitResult> reference =
      solver->TryFit(reference_job.problem, reference_job.spec,
                     reference_rng);
  ASSERT_TRUE(reference.ok());

  const StatusOr<FitResult>& fit = handle.Wait();
  ASSERT_TRUE(fit.ok());
  for (std::size_t j = 0; j < reference->w.size(); ++j) {
    EXPECT_EQ(fit->w[j], reference->w[j]);
  }
}

TEST(EngineTest, SubmitNeverAbortsOnUserError) {
  const RegistrySnapshot before = SnapshotRegistry();
  DoneCounter done;
  const SharedWorkload workload;
  Engine engine(Engine::Options{2});

  {
    // Unknown solver name: typed status listing the registered names.
    FitJob job = workload.JobFor(kSolverAlg1DpFw, 1);
    job.solver_name = "no_such_solver";
    const JobHandle handle = engine.Submit(done.Counted(std::move(job)));
    const StatusOr<FitResult>& fit = handle.Wait();
    ASSERT_FALSE(fit.ok());
    EXPECT_EQ(fit.status().code(), StatusCode::kUnknownSolver);
    EXPECT_NE(fit.status().message().find(kSolverAlg5SparseOpt),
              std::string::npos);
  }
  {
    // Unfundable budget.
    FitJob job = workload.JobFor(kSolverAlg1DpFw, 2);
    job.spec.budget.epsilon = -1.0;
    const JobHandle handle = engine.Submit(done.Counted(std::move(job)));
    const StatusOr<FitResult>& fit = handle.Wait();
    ASSERT_FALSE(fit.ok());
    EXPECT_EQ(fit.status().code(), StatusCode::kBudgetExhausted);
  }
  {
    // Missing constraint.
    FitJob job = workload.JobFor(kSolverAlg1DpFw, 3);
    job.problem.constraint = nullptr;
    const JobHandle handle = engine.Submit(done.Counted(std::move(job)));
    const StatusOr<FitResult>& fit = handle.Wait();
    ASSERT_FALSE(fit.ok());
    EXPECT_EQ(fit.status().code(), StatusCode::kInvalidProblem);
  }
  {
    // Shape mismatch.
    FitJob job = workload.JobFor(kSolverBaselineRobustGd, 4);
    job.problem.w0 = Vector(5, 0.0);
    const JobHandle handle = engine.Submit(done.Counted(std::move(job)));
    const StatusOr<FitResult>& fit = handle.Wait();
    ASSERT_FALSE(fit.ok());
    EXPECT_EQ(fit.status().code(), StatusCode::kShapeMismatch);
  }

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.failed, 4u);
  EXPECT_EQ(stats.succeeded, 0u);
  ExpectRegistryMatchesStats(before, engine, /*picked_up=*/3, done);
}

/// Blocks a single-worker engine inside a fit until released, so queue
/// behavior can be tested deterministically.
struct WorkerGate {
  std::atomic<bool> reached{false};
  std::atomic<bool> release{false};

  std::function<bool()> Hook() {
    return [this] {
      reached.store(true);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return false;
    };
  }
  void AwaitReached() {
    while (!reached.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
};

TEST(EngineTest, CancelQueuedJob) {
  const RegistrySnapshot before = SnapshotRegistry();
  DoneCounter done;
  const SharedWorkload workload;
  Engine engine(Engine::Options{1});
  WorkerGate gate;

  FitJob blocker = workload.JobFor(kSolverAlg1DpFw, 11);
  blocker.spec.should_stop = gate.Hook();  // parks the only worker
  const JobHandle running = engine.Submit(done.Counted(std::move(blocker)));
  gate.AwaitReached();

  JobHandle queued =
      engine.Submit(done.Counted(workload.JobFor(kSolverAlg1DpFw, 12)));
  EXPECT_EQ(engine.stats().queue_depth, 1u);
  queued.Cancel();

  // The cancellation is visible immediately -- result, done() AND the
  // engine counters -- while the only worker is still parked inside the
  // blocking job, before anything dequeues.
  EXPECT_TRUE(queued.done());
  EXPECT_EQ(done.calls.load(), 1u);  // on_done ran inside Cancel()
  const StatusOr<FitResult>& cancelled = queued.Wait();
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(engine.stats().queue_depth, 0u);
  EXPECT_EQ(engine.stats().cancelled, 1u);
  gate.release.store(true);

  // The blocking job itself ran to completion: its hook always returned
  // false, so the fit is bit-identical to an unhooked sequential run.
  const StatusOr<FitResult>& blocked = running.Wait();
  ASSERT_TRUE(blocked.ok()) << blocked.status().ToString();
  const FitJob reference_job = workload.JobFor(kSolverAlg1DpFw, 11);
  Rng rng(11);
  const Solver* solver = *SolverRegistry::Global().Find(kSolverAlg1DpFw);
  const StatusOr<FitResult> reference =
      solver->TryFit(reference_job.problem, reference_job.spec, rng);
  ASSERT_TRUE(reference.ok());
  for (std::size_t j = 0; j < reference->w.size(); ++j) {
    EXPECT_EQ(blocked->w[j], reference->w[j]);
  }

  engine.Drain();
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.succeeded, 1u);
  ExpectRegistryMatchesStats(before, engine, /*picked_up=*/1, done);
}

TEST(EngineTest, QueuedJobsStartInSubmissionOrder) {
  const SharedWorkload workload;
  Engine engine(Engine::Options{1});
  WorkerGate gate;

  FitJob blocker = workload.JobFor(kSolverAlg1DpFw, 11);
  blocker.spec.should_stop = gate.Hook();  // parks the only worker
  const JobHandle running = engine.Submit(std::move(blocker));
  gate.AwaitReached();

  // Each queued job records its index on its first should_stop poll, which
  // comes before the fit's first iteration.
  std::mutex mu;
  std::vector<int> started;
  constexpr int kQueued = 6;
  std::vector<JobHandle> handles;
  for (int i = 0; i < kQueued; ++i) {
    FitJob job =
        workload.JobFor(kSolverAlg1DpFw, 20 + static_cast<std::uint64_t>(i));
    job.spec.should_stop = [&mu, &started, i] {
      const std::lock_guard<std::mutex> lock(mu);
      if (std::find(started.begin(), started.end(), i) == started.end()) {
        started.push_back(i);
      }
      return false;
    };
    handles.push_back(engine.Submit(std::move(job)));
  }
  EXPECT_EQ(engine.stats().queue_depth, static_cast<std::size_t>(kQueued));

  gate.release.store(true);
  EXPECT_TRUE(running.Wait().ok());
  for (const JobHandle& handle : handles) EXPECT_TRUE(handle.Wait().ok());
  const std::vector<int> submitted = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(started, submitted);
}

/// Cancel erases a queued job while four workers pop the same queue: each
/// job must be finished once, by whichever side removed it.
TEST(EngineTest, CancelRacingDequeueFinishesEachJobOnce) {
  const RegistrySnapshot before = SnapshotRegistry();
  DoneCounter done;
  const SharedWorkload workload;
  Engine engine(Engine::Options{/*workers=*/4});

  constexpr std::size_t kJobs = 64;
  std::vector<JobHandle> handles;
  for (std::size_t i = 0; i < kJobs; ++i) {
    handles.push_back(engine.Submit(
        done.Counted(workload.JobFor(kSolverAlg1DpFw, 500 + i))));
  }
  std::thread canceller([&handles] {
    for (std::size_t i = 1; i < kJobs; i += 2) handles[i].Cancel();
  });
  canceller.join();
  engine.Drain();

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.completed, kJobs);
  EXPECT_EQ(stats.cancelled + stats.succeeded, kJobs);
  EXPECT_EQ(done.calls.load(), stats.completed);

  // Jobs cancelled before a worker claimed them never reached a solver and
  // carry this message; every other job was run by a worker.
  std::size_t picked_up = 0;
  const Solver* solver = *SolverRegistry::Global().Find(kSolverAlg1DpFw);
  for (std::size_t i = 0; i < kJobs; ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    const StatusOr<FitResult>& result = handles[i].Wait();
    if (!result.ok()) {
      EXPECT_EQ(i % 2, 1u);  // only the odd jobs were cancelled
      EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
      if (result.status().message().find("cancelled before it started") ==
          std::string::npos) {
        ++picked_up;
      }
      continue;
    }
    ++picked_up;
    const FitJob job = workload.JobFor(kSolverAlg1DpFw, 500 + i);
    Rng rng(500 + i);
    const StatusOr<FitResult> sequential =
        solver->TryFit(job.problem, job.spec, rng);
    ASSERT_TRUE(sequential.ok());
    ASSERT_EQ(result->w.size(), sequential->w.size());
    for (std::size_t j = 0; j < sequential->w.size(); ++j) {
      EXPECT_EQ(result->w[j], sequential->w[j]);
    }
  }
  ExpectRegistryMatchesStats(before, engine, picked_up, done);
}

TEST(EngineTest, CancelRunningJobStopsCooperatively) {
  const RegistrySnapshot before = SnapshotRegistry();
  DoneCounter done;
  const SharedWorkload workload;
  Engine engine(Engine::Options{1});
  WorkerGate gate;

  // The gate parks the fit inside its first should_stop poll -- AFTER the
  // Engine's wrapped hook checked the (still clear) cancel flag, so the
  // first iteration proceeds once released. The cancellation then lands
  // deterministically at the second poll, with no timing window.
  FitJob job = workload.JobFor(kSolverAlg1DpFw, 13);
  job.spec.iterations = 20;  // >= 2 iterations so a later poll sees the flag
  job.spec.should_stop = gate.Hook();
  JobHandle handle = engine.Submit(done.Counted(std::move(job)));
  gate.AwaitReached();  // the job is mid-fit now
  handle.Cancel();
  gate.release.store(true);

  const StatusOr<FitResult>& fit = handle.Wait();
  ASSERT_FALSE(fit.ok());
  EXPECT_EQ(fit.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(engine.stats().cancelled, 1u);
  ExpectRegistryMatchesStats(before, engine, /*picked_up=*/1, done);
}

TEST(EngineTest, DeadlineExceededWhileQueued) {
  const RegistrySnapshot before = SnapshotRegistry();
  DoneCounter done;
  const SharedWorkload workload;
  Engine engine(Engine::Options{1});
  WorkerGate gate;

  FitJob blocker = workload.JobFor(kSolverAlg1DpFw, 21);
  blocker.spec.should_stop = gate.Hook();
  const JobHandle running = engine.Submit(done.Counted(std::move(blocker)));
  gate.AwaitReached();

  FitJob hurried = workload.JobFor(kSolverAlg1DpFw, 22);
  hurried.deadline_seconds = 1e-4;
  const JobHandle late = engine.Submit(done.Counted(std::move(hurried)));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  gate.release.store(true);

  const StatusOr<FitResult>& fit = late.Wait();
  ASSERT_FALSE(fit.ok());
  EXPECT_EQ(fit.status().code(), StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(running.Wait().ok());
  EXPECT_EQ(engine.stats().deadline_exceeded, 1u);
  ExpectRegistryMatchesStats(before, engine, /*picked_up=*/1, done);
}

TEST(EngineTest, DeadlineExceededMidFit) {
  const RegistrySnapshot before = SnapshotRegistry();
  DoneCounter done;
  const SharedWorkload workload;
  Engine engine(Engine::Options{1});

  FitJob job = workload.JobFor(kSolverAlg1DpFw, 23);
  job.spec.iterations = 400;
  job.spec.observer = [](const IterationEvent&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  job.deadline_seconds = 0.05;
  const JobHandle handle = engine.Submit(done.Counted(std::move(job)));
  const StatusOr<FitResult>& fit = handle.Wait();
  ASSERT_FALSE(fit.ok());
  EXPECT_EQ(fit.status().code(), StatusCode::kDeadlineExceeded);
  ExpectRegistryMatchesStats(before, engine, /*picked_up=*/1, done);
}

TEST(EngineTest, DeadlineExceededOnLateSuccess) {
  const RegistrySnapshot before = SnapshotRegistry();
  DoneCounter done;
  // alg4 polls should_stop only once, before its single pass, so a short
  // deadline cannot interrupt it -- the contract still holds because the
  // Engine rejects the late result after the fit returns.
  const SharedWorkload workload;
  Engine engine(Engine::Options{1});

  FitJob job = workload.JobFor(kSolverAlg4Peeling, 25);
  job.spec.observer = [](const IterationEvent&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  };
  job.deadline_seconds = 0.005;
  const JobHandle handle = engine.Submit(done.Counted(std::move(job)));
  const StatusOr<FitResult>& fit = handle.Wait();
  ASSERT_FALSE(fit.ok());
  EXPECT_EQ(fit.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(engine.stats().deadline_exceeded, 1u);
  ExpectRegistryMatchesStats(before, engine, /*picked_up=*/1, done);
}

TEST(EngineTest, ShutdownCancelsQueuedAndRejectsLateSubmits) {
  const RegistrySnapshot before = SnapshotRegistry();
  DoneCounter done;
  const SharedWorkload workload;
  Engine engine(Engine::Options{1});
  WorkerGate gate;

  FitJob blocker = workload.JobFor(kSolverAlg1DpFw, 31);
  blocker.spec.should_stop = gate.Hook();
  const JobHandle running = engine.Submit(done.Counted(std::move(blocker)));
  gate.AwaitReached();
  const JobHandle queued =
      engine.Submit(done.Counted(workload.JobFor(kSolverAlg1DpFw, 32)));

  // Shutdown must cancel the queued job and wait for the running one; the
  // release flips first so Shutdown's join can finish.
  gate.release.store(true);
  engine.Shutdown();

  EXPECT_TRUE(running.Wait().ok());
  const StatusOr<FitResult>& cancelled = queued.Wait();
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);

  const JobHandle late_handle =
      engine.Submit(done.Counted(workload.JobFor(kSolverAlg1DpFw, 33)));
  const StatusOr<FitResult>& late = late_handle.Wait();
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kCancelled);
  ExpectRegistryMatchesStats(before, engine, /*picked_up=*/1, done);
}

TEST(EngineTest, OnDoneSeesThePublishedResult) {
  const SharedWorkload workload;
  Engine engine(Engine::Options{1});
  WorkerGate gate;

  // The gate holds the worker inside the fit until `handle` is assigned,
  // so the callback never reads it mid-write.
  JobHandle handle;
  std::atomic<int> saw_done{-1};
  FitJob job = workload.JobFor(kSolverAlg1DpFw, 81);
  job.spec.should_stop = gate.Hook();
  job.on_done = [&saw_done, handle_ptr = &handle] {
    saw_done.store(handle_ptr->done() ? 1 : 0);
  };
  handle = engine.Submit(std::move(job));
  gate.release.store(true);

  engine.Drain();
  EXPECT_TRUE(handle.Wait().ok());
  EXPECT_EQ(saw_done.load(), 1);
}

TEST(EngineTest, DrainWaitsForAllJobs) {
  const SharedWorkload workload;
  Engine engine(Engine::Options{3});
  const int jobs = 12;
  std::vector<JobHandle> handles;
  for (int i = 0; i < jobs; ++i) {
    handles.push_back(engine.Submit(
        workload.JobFor(kSolverAlg5SparseOpt, 100 + static_cast<std::uint64_t>(i))));
  }
  engine.Drain();
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.completed, static_cast<std::size_t>(jobs));
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.running, 0u);
  for (const JobHandle& handle : handles) EXPECT_TRUE(handle.done());
}

/// Regression for the jobs_per_sec rate: it is derived from the monotonic
/// clock (obs/clock.h), so it can never go negative or non-finite, no
/// matter what the wall clock does, and uptime only moves forward.
TEST(EngineTest, JobsPerSecondIsMonotonicClockDerived) {
  const SharedWorkload workload;
  Engine engine(Engine::Options{2});

  const EngineStats before = engine.stats();
  EXPECT_GE(before.uptime_seconds, 0.0);
  EXPECT_GE(before.jobs_per_second, 0.0);
  EXPECT_TRUE(std::isfinite(before.jobs_per_second));

  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    JobHandle handle = engine.Submit(workload.JobFor(kSolverAlg1DpFw, seed));
    handle.Wait();
  }

  const EngineStats after = engine.stats();
  EXPECT_GE(after.uptime_seconds, before.uptime_seconds);
  EXPECT_GT(after.jobs_per_second, 0.0);
  EXPECT_TRUE(std::isfinite(after.jobs_per_second));

  // Repeated snapshots stay sane (no negative rates, ever).
  for (int i = 0; i < 16; ++i) {
    const EngineStats snap = engine.stats();
    EXPECT_GE(snap.jobs_per_second, 0.0);
    EXPECT_TRUE(std::isfinite(snap.jobs_per_second));
  }
}

/// Constructing an Engine tags the metrics export with the runtime config:
/// an info-style gauge whose labels carry the dispatched SIMD ISA and the
/// worker-thread count (the value itself is a constant 1).
TEST(EngineTest, RuntimeInfoGaugeTagsSimdModeAndThreadCount) {
  Engine engine(Engine::Options{3});
  const std::string text = obs::MetricRegistry::Global().ToPrometheus();
  const std::string expected =
      std::string("htdp_runtime_info{simd=\"") +
      (SimdEnabled() ? SimdInfo().isa : "off") + "\",threads=\"3\"} 1";
  EXPECT_NE(text.find(expected), std::string::npos) << text;
}

/// Span integrity under the worker pool (the TSan CI leg runs this suite):
/// every worker thread's ring holds well-formed spans in close order, the
/// engine.job spans appear once per executed job, and iteration spans nest
/// strictly inside them (depth > 0 on the same thread).
TEST(EngineTest, TraceSpansNestCorrectlyUnderWorkerPool) {
  obs::ClearTrace();
  // Worker threads are created by the Engine below, so they pick up this
  // capacity -- big enough that iteration spans cannot evict the job spans.
  const std::size_t saved_capacity = obs::TraceCapacity();
  obs::SetTraceCapacity(1u << 16);
  obs::SetTraceEnabled(true);

  const SharedWorkload workload;
  const int jobs = 8;
  {
    Engine engine(Engine::Options{4});
    std::vector<JobHandle> handles;
    for (int i = 0; i < jobs; ++i) {
      handles.push_back(engine.Submit(
          workload.JobFor(kSolverAlg1DpFw, static_cast<std::uint64_t>(i))));
    }
    for (JobHandle& handle : handles) {
      ASSERT_TRUE(handle.Wait().ok());
    }
  }
  obs::SetTraceEnabled(false);

  std::size_t job_spans = 0;
  std::size_t iteration_spans = 0;
  std::size_t queue_wait_spans = 0;
  for (const obs::ThreadTrace& t : obs::CollectTrace()) {
    std::uint64_t last_end = 0;
    for (const obs::Span& s : t.spans) {
      ASSERT_NE(s.name, nullptr);
      EXPECT_LE(s.start_ns, s.end_ns);
      EXPECT_GE(s.end_ns, last_end);  // rings record in close order
      last_end = s.end_ns;
      const std::string name(s.name);
      if (name == "engine.job") {
        job_spans++;
        EXPECT_EQ(s.depth, 0u);  // top of the worker's stack
      } else if (name == "alg1.iteration") {
        iteration_spans++;
        EXPECT_GT(s.depth, 0u);  // strictly inside engine.job
      } else if (name == "engine.queue_wait") {
        queue_wait_spans++;
      }
    }
  }
  obs::ClearTrace();
  obs::SetTraceCapacity(saved_capacity);
  EXPECT_EQ(job_spans, static_cast<std::size_t>(jobs));
  EXPECT_EQ(queue_wait_spans, static_cast<std::size_t>(jobs));
  EXPECT_GT(iteration_spans, 0u);
}

// ---------------------------------------------------------------------------
// Tenant budgets: shared named budgets enforced at Submit via the
// BudgetManager (api/budget_manager.h).
// ---------------------------------------------------------------------------

TEST(BudgetManagerTest, RegisterReserveRefundLifecycle) {
  BudgetManager budgets;
  ASSERT_TRUE(budgets.RegisterTenant("team-a", PrivacyBudget::Approx(2.0, 1e-4))
                  .ok());
  EXPECT_EQ(budgets.RegisterTenant("team-a", PrivacyBudget::Pure(1.0)).code(),
            StatusCode::kInvalidProblem);  // duplicate
  EXPECT_EQ(
      budgets.RegisterTenant("broke", PrivacyBudget::Approx(-1.0, 0.0)).code(),
      StatusCode::kBudgetExhausted);  // unfundable total

  ASSERT_TRUE(
      budgets.TryReserve("team-a", PrivacyBudget::Approx(1.5, 5e-5)).ok());
  const StatusOr<PrivacyBudget> remaining = budgets.Remaining("team-a");
  ASSERT_TRUE(remaining.ok());
  EXPECT_NEAR(remaining->epsilon, 0.5, 1e-12);
  EXPECT_NEAR(remaining->delta, 5e-5, 1e-15);

  // Does not fit anymore -> typed kBudgetExhausted naming the remainder.
  const Status rejected =
      budgets.TryReserve("team-a", PrivacyBudget::Approx(1.0, 1e-5));
  EXPECT_EQ(rejected.code(), StatusCode::kBudgetExhausted);
  EXPECT_NE(rejected.message().find("remaining"), std::string::npos);

  // Refund restores headroom.
  budgets.Refund("team-a", PrivacyBudget::Approx(1.5, 5e-5));
  EXPECT_TRUE(
      budgets.TryReserve("team-a", PrivacyBudget::Approx(1.0, 1e-5)).ok());

  EXPECT_EQ(budgets.TryReserve("never-registered", PrivacyBudget::Pure(0.1))
                .code(),
            StatusCode::kInvalidProblem);
  const auto stats = budgets.Stats("team-a");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->admitted, 2u);
  EXPECT_EQ(stats->rejected, 1u);
  EXPECT_EQ(stats->refunded, 1u);
}

TEST(BudgetManagerTest, PureTenantCannotFundApproxJobs) {
  BudgetManager budgets;
  ASSERT_TRUE(budgets.RegisterTenant("pure", PrivacyBudget::Pure(5.0)).ok());
  EXPECT_TRUE(budgets.TryReserve("pure", PrivacyBudget::Pure(1.0)).ok());
  EXPECT_EQ(budgets.TryReserve("pure", PrivacyBudget::Approx(1.0, 1e-6))
                .code(),
            StatusCode::kBudgetExhausted);
}

TEST(EngineTenantTest, OverBudgetSubmissionsRejectedBeforeAnyWorkRuns) {
  const RegistrySnapshot before = SnapshotRegistry();
  DoneCounter done;
  const SharedWorkload workload;
  BudgetManager budgets;
  ASSERT_TRUE(
      budgets.RegisterTenant("sweep", PrivacyBudget::Approx(2.5, 1e-4)).ok());
  Engine engine(Engine::Options{/*workers=*/2, &budgets});

  // Three (eps = 1, delta = 1e-5) jobs: the first two fit in the 2.5
  // epsilon budget, the third must be rejected inline with
  // kBudgetExhausted -- before it ever reaches a worker.
  std::vector<JobHandle> handles;
  for (int i = 0; i < 3; ++i) {
    FitJob job = workload.JobFor(kSolverAlg2PrivateLasso, 7);
    job.tenant = "sweep";
    handles.push_back(engine.Submit(done.Counted(std::move(job))));
  }
  ASSERT_TRUE(handles[0].Wait().ok());
  ASSERT_TRUE(handles[1].Wait().ok());
  const StatusOr<FitResult>& rejected = handles[2].Wait();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kBudgetExhausted);
  EXPECT_TRUE(handles[2].done());  // completed inline at Submit

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.budget_rejected, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.succeeded, 2u);

  // The admitted fits stay bit-identical to an untenanted sequential fit.
  const Solver* solver =
      *SolverRegistry::Global().Find(kSolverAlg2PrivateLasso);
  Rng rng(7);
  const FitJob reference = workload.JobFor(kSolverAlg2PrivateLasso, 7);
  const StatusOr<FitResult> sequential =
      solver->TryFit(reference.problem, reference.spec, rng);
  ASSERT_TRUE(sequential.ok());
  ASSERT_EQ(handles[0].Wait()->w.size(), sequential->w.size());
  for (std::size_t i = 0; i < sequential->w.size(); ++i) {
    EXPECT_EQ(handles[0].Wait()->w[i], sequential->w[i]);
  }

  const StatusOr<PrivacyBudget> remaining = budgets.Remaining("sweep");
  ASSERT_TRUE(remaining.ok());
  EXPECT_NEAR(remaining->epsilon, 0.5, 1e-12);
  ExpectRegistryMatchesStats(before, engine, /*picked_up=*/2, done);
}

TEST(EngineTenantTest, TenantWithoutManagerIsATypedError) {
  const SharedWorkload workload;
  Engine engine(Engine::Options{/*workers=*/1});
  FitJob job = workload.JobFor(kSolverAlg1DpFw, 3);
  job.tenant = "nobody-configured-budgets";
  const JobHandle handle = engine.Submit(std::move(job));
  const StatusOr<FitResult>& result = handle.Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidProblem);
  EXPECT_NE(result.status().message().find("BudgetManager"),
            std::string::npos);
}

TEST(EngineTenantTest, UnknownTenantIsATypedError) {
  const SharedWorkload workload;
  BudgetManager budgets;
  Engine engine(Engine::Options{/*workers=*/1, &budgets});
  FitJob job = workload.JobFor(kSolverAlg1DpFw, 3);
  job.tenant = "unregistered";
  const JobHandle handle = engine.Submit(std::move(job));
  EXPECT_EQ(handle.Wait().status().code(), StatusCode::kInvalidProblem);
  EXPECT_EQ(engine.stats().budget_rejected, 0u);  // config error, not spend
}

TEST(EngineTenantTest, QueuedCancellationRefundsTheReservation) {
  const SharedWorkload workload;
  BudgetManager budgets;
  ASSERT_TRUE(
      budgets.RegisterTenant("cancelme", PrivacyBudget::Approx(1.0, 1e-5))
          .ok());
  Engine engine(Engine::Options{/*workers=*/1, &budgets});

  // Occupy the single worker so the tenant job stays queued.
  std::atomic<bool> release{false};
  FitJob blocker = workload.JobFor(kSolverAlg1DpFw, 11);
  blocker.spec.iterations = 1000000;
  blocker.spec.scale = 5.0;
  blocker.spec.should_stop = [&release] { return release.load(); };
  blocker.problem.target_sparsity = 0;
  const JobHandle blocking_handle = engine.Submit(std::move(blocker));

  FitJob queued = workload.JobFor(kSolverAlg2PrivateLasso, 13);
  queued.tenant = "cancelme";
  JobHandle queued_handle = engine.Submit(std::move(queued));
  {
    const StatusOr<PrivacyBudget> reserved = budgets.Remaining("cancelme");
    ASSERT_TRUE(reserved.ok());
    EXPECT_NEAR(reserved->epsilon, 0.0, 1e-12);  // fully reserved
  }

  queued_handle.Cancel();
  EXPECT_EQ(queued_handle.Wait().status().code(), StatusCode::kCancelled);
  {
    // The job never ran, so its reservation came back.
    const StatusOr<PrivacyBudget> refunded = budgets.Remaining("cancelme");
    ASSERT_TRUE(refunded.ok());
    EXPECT_NEAR(refunded->epsilon, 1.0, 1e-12);
  }

  release.store(true);
  (void)blocking_handle.Wait();
}

TEST(EngineTenantTest, ValidationFailureRefundsTheReservation) {
  const SharedWorkload workload;
  BudgetManager budgets;
  ASSERT_TRUE(
      budgets.RegisterTenant("strict", PrivacyBudget::Approx(1.0, 1e-5))
          .ok());
  Engine engine(Engine::Options{/*workers=*/1, &budgets});

  // The reservation succeeds (the budget itself is fundable), but the
  // solver rejects the malformed problem before any mechanism runs -- the
  // tenant must not be charged for a fit that never released anything.
  FitJob job = workload.JobFor(kSolverAlg2PrivateLasso, 5);
  job.tenant = "strict";
  job.problem.constraint = nullptr;  // alg2 requires a constraint
  const JobHandle handle = engine.Submit(std::move(job));
  EXPECT_EQ(handle.Wait().status().code(), StatusCode::kInvalidProblem);
  engine.Drain();
  const StatusOr<PrivacyBudget> remaining = budgets.Remaining("strict");
  ASSERT_TRUE(remaining.ok());
  EXPECT_NEAR(remaining->epsilon, 1.0, 1e-12);
  EXPECT_NEAR(remaining->delta, 1e-5, 1e-15);
}

TEST(EngineTenantTest, ReservationConservationHoldsAtDrain) {
  // The two-phase ledger invariant: every Reserve the Engine opens is
  // closed by exactly one Commit or Abort by the time Drain() returns --
  // across successes, budget rejections, validation failures, and
  // cancellations alike. The live count is the
  // htdp_budget_reservations_open gauge, which must read zero here.
  const SharedWorkload workload;
  BudgetManager budgets;
  ASSERT_TRUE(
      budgets.RegisterTenant("mixed", PrivacyBudget::Approx(4.0, 1e-4)).ok());
  Engine engine(Engine::Options{/*workers=*/2, &budgets});

  std::vector<JobHandle> handles;
  for (int i = 0; i < 3; ++i) {  // three that succeed (3 x eps=1)
    FitJob job = workload.JobFor(kSolverAlg2PrivateLasso, 100 + i);
    job.tenant = "mixed";
    handles.push_back(engine.Submit(std::move(job)));
  }
  {  // one rejected at admission (only eps=1 left, asks eps=1+1e-5 deltas ok)
    FitJob job = workload.JobFor(kSolverAlg2PrivateLasso, 200);
    job.tenant = "mixed";
    job.spec.budget = PrivacyBudget::Approx(2.0, 1e-5);
    handles.push_back(engine.Submit(std::move(job)));
  }
  {  // one aborted after admission (validation failure: missing constraint)
    FitJob job = workload.JobFor(kSolverAlg2PrivateLasso, 300);
    job.tenant = "mixed";
    job.problem.constraint = nullptr;
    handles.push_back(engine.Submit(std::move(job)));
  }
  for (JobHandle& handle : handles) (void)handle.Wait();
  engine.Drain();

  const BudgetManager::LedgerTotals totals = budgets.Totals();
  EXPECT_EQ(totals.reserves, totals.commits + totals.aborts);
  EXPECT_EQ(totals.open, 0u);
  EXPECT_EQ(budgets.OpenReservations(), 0u);
  EXPECT_EQ(obs::MetricRegistry::Global()
                .GetGauge("htdp_budget_reservations_open",
                          "Budget reservations awaiting Commit/Abort")
                ->Value(),
            0.0);

  // And the reserves actually happened: 4 admitted (3 ok + 1 aborted).
  EXPECT_GE(totals.reserves, 4u);
  EXPECT_EQ(totals.aborts, 1u);
}

// ---------------------------------------------------------------------------
// Overload admission: bounded queue with watermark hysteresis, shed-at-
// dequeue for expired deadlines, and per-tenant inflight caps. Shedding is
// typed kUnavailable (retryable) and refunds tenant reservations in full.
// ---------------------------------------------------------------------------

TEST(EngineOverloadTest, RetryAfterHintScalesWithBacklogAndClamps) {
  EXPECT_EQ(RetryAfterHintMs(0, 4), 50u);    // empty queue: one service slot
  EXPECT_EQ(RetryAfterHintMs(4, 4), 100u);   // one job ahead per worker
  EXPECT_EQ(RetryAfterHintMs(40, 4), 550u);
  EXPECT_EQ(RetryAfterHintMs(4000, 4), 2000u);  // clamped high
  EXPECT_EQ(RetryAfterHintMs(3, 0), 200u);      // workers <= 0 treated as 1
}

TEST(EngineOverloadTest, QueueCapShedsWithTypedUnavailable) {
  const RegistrySnapshot before = SnapshotRegistry();
  DoneCounter done;
  const SharedWorkload workload;
  Engine::Options options;
  options.workers = 1;
  options.max_queue_depth = 2;
  options.queue_resume_depth = 1;
  Engine engine(options);
  WorkerGate gate;

  FitJob blocker = workload.JobFor(kSolverAlg1DpFw, 41);
  blocker.spec.should_stop = gate.Hook();  // parks the only worker
  const JobHandle running = engine.Submit(done.Counted(std::move(blocker)));
  gate.AwaitReached();

  const JobHandle q1 =
      engine.Submit(done.Counted(workload.JobFor(kSolverAlg1DpFw, 42)));
  const JobHandle q2 =
      engine.Submit(done.Counted(workload.JobFor(kSolverAlg1DpFw, 43)));
  EXPECT_EQ(engine.stats().queue_depth, 2u);

  // The queue is at its high watermark: this submit is shed synchronously
  // with the retryable typed code, naming the cap and a retry hint.
  const JobHandle shed =
      engine.Submit(done.Counted(workload.JobFor(kSolverAlg1DpFw, 44)));
  EXPECT_TRUE(shed.done());
  const StatusOr<FitResult>& outcome = shed.Wait();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(IsRetryable(outcome.status().code()));
  EXPECT_NE(outcome.status().message().find("retry after"), std::string::npos);

  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.unavailable_rejected, 1u);
  EXPECT_TRUE(stats.overloaded);
  EXPECT_GE(engine.SuggestedRetryAfterMs(), 25u);

  // Draining to the low watermark clears the latch and admission resumes.
  JobHandle cancel_me = q2;
  cancel_me.Cancel();
  const JobHandle resumed =
      engine.Submit(done.Counted(workload.JobFor(kSolverAlg1DpFw, 45)));
  EXPECT_FALSE(resumed.done());  // admitted, queued behind q1

  gate.release.store(true);
  engine.Drain();
  EXPECT_TRUE(running.Wait().ok());
  EXPECT_TRUE(q1.Wait().ok());
  EXPECT_TRUE(resumed.Wait().ok());
  EXPECT_FALSE(engine.stats().overloaded);
  ExpectRegistryMatchesStats(before, engine, /*picked_up=*/3, done);
}

TEST(EngineOverloadTest, WatermarkHysteresisHoldsUntilLowWatermark) {
  const SharedWorkload workload;
  Engine::Options options;
  options.workers = 1;
  options.max_queue_depth = 4;
  options.queue_resume_depth = 1;
  Engine engine(options);
  WorkerGate gate;

  FitJob blocker = workload.JobFor(kSolverAlg1DpFw, 51);
  blocker.spec.should_stop = gate.Hook();
  const JobHandle running = engine.Submit(std::move(blocker));
  gate.AwaitReached();

  std::vector<JobHandle> queued;
  for (std::uint64_t seed = 52; seed < 56; ++seed) {
    queued.push_back(engine.Submit(workload.JobFor(kSolverAlg1DpFw, seed)));
  }
  EXPECT_EQ(engine.stats().queue_depth, 4u);

  const JobHandle shed_at_cap =
      engine.Submit(workload.JobFor(kSolverAlg1DpFw, 56));
  EXPECT_EQ(shed_at_cap.Wait().status().code(), StatusCode::kUnavailable);

  // One pop is NOT enough: the latch holds until the queue reaches the low
  // watermark, so admission flaps once per drain cycle instead of once per
  // popped job.
  queued[3].Cancel();
  EXPECT_EQ(engine.stats().queue_depth, 3u);
  const JobHandle shed_in_band =
      engine.Submit(workload.JobFor(kSolverAlg1DpFw, 57));
  EXPECT_EQ(shed_in_band.Wait().status().code(), StatusCode::kUnavailable);

  queued[2].Cancel();
  queued[1].Cancel();
  EXPECT_EQ(engine.stats().queue_depth, 1u);  // at the low watermark
  const JobHandle resumed =
      engine.Submit(workload.JobFor(kSolverAlg1DpFw, 58));
  EXPECT_FALSE(resumed.done());

  gate.release.store(true);
  engine.Drain();
  EXPECT_TRUE(running.Wait().ok());
  EXPECT_TRUE(queued[0].Wait().ok());
  EXPECT_TRUE(resumed.Wait().ok());
  EXPECT_EQ(engine.stats().unavailable_rejected, 2u);
}

TEST(EngineOverloadTest, ExpiredQueuedJobShedAtDequeueRefundsTenant) {
  const RegistrySnapshot before = SnapshotRegistry();
  DoneCounter done;
  const SharedWorkload workload;
  BudgetManager budgets;
  ASSERT_TRUE(
      budgets.RegisterTenant("late", PrivacyBudget::Approx(1.0, 1e-5)).ok());
  Engine engine(Engine::Options{/*workers=*/1, &budgets});
  WorkerGate gate;

  FitJob blocker = workload.JobFor(kSolverAlg1DpFw, 61);
  blocker.spec.should_stop = gate.Hook();
  const JobHandle running = engine.Submit(done.Counted(std::move(blocker)));
  gate.AwaitReached();

  FitJob hurried = workload.JobFor(kSolverAlg2PrivateLasso, 62);
  hurried.tenant = "late";
  hurried.deadline_seconds = 1e-4;
  const JobHandle late = engine.Submit(done.Counted(std::move(hurried)));
  {
    const StatusOr<PrivacyBudget> reserved = budgets.Remaining("late");
    ASSERT_TRUE(reserved.ok());
    EXPECT_NEAR(reserved->epsilon, 0.0, 1e-12);  // fully reserved
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  gate.release.store(true);

  // The worker pops the expired job and sheds it WITHOUT running the
  // solver: typed kDeadlineExceeded, counted as shed, reservation back.
  EXPECT_EQ(late.Wait().status().code(), StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(running.Wait().ok());
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.shed_expired, 1u);
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  const StatusOr<PrivacyBudget> refunded = budgets.Remaining("late");
  ASSERT_TRUE(refunded.ok());
  EXPECT_NEAR(refunded->epsilon, 1.0, 1e-12);
  ExpectRegistryMatchesStats(before, engine, /*picked_up=*/1, done);
}

TEST(EngineOverloadTest, PerTenantInflightCapShedsAndRefunds) {
  const RegistrySnapshot before = SnapshotRegistry();
  DoneCounter done;
  const SharedWorkload workload;
  BudgetManager budgets;
  ASSERT_TRUE(
      budgets.RegisterTenant("flood", PrivacyBudget::Approx(10.0, 1e-3))
          .ok());
  Engine::Options options;
  options.workers = 1;
  options.budgets = &budgets;
  options.max_inflight_per_tenant = 1;
  Engine engine(options);
  WorkerGate gate;

  FitJob blocker = workload.JobFor(kSolverAlg1DpFw, 71);  // no tenant
  blocker.spec.should_stop = gate.Hook();
  const JobHandle running = engine.Submit(done.Counted(std::move(blocker)));
  gate.AwaitReached();

  FitJob first = workload.JobFor(kSolverAlg2PrivateLasso, 72);
  first.tenant = "flood";
  const JobHandle admitted = engine.Submit(done.Counted(std::move(first)));
  EXPECT_FALSE(admitted.done());  // queued, holds the tenant's one slot

  // The tenant's second inflight job is shed -- and its reservation comes
  // straight back, so the cap costs the tenant no budget.
  FitJob second = workload.JobFor(kSolverAlg2PrivateLasso, 73);
  second.tenant = "flood";
  const JobHandle shed = engine.Submit(done.Counted(std::move(second)));
  ASSERT_TRUE(shed.done());
  EXPECT_EQ(shed.Wait().status().code(), StatusCode::kUnavailable);
  {
    const StatusOr<PrivacyBudget> remaining = budgets.Remaining("flood");
    ASSERT_TRUE(remaining.ok());
    EXPECT_NEAR(remaining->epsilon, 9.0, 1e-12);  // only `admitted` reserved
  }

  // The cap is per tenant: untenanted work still queues freely.
  const JobHandle other =
      engine.Submit(done.Counted(workload.JobFor(kSolverAlg1DpFw, 74)));
  EXPECT_FALSE(other.done());

  gate.release.store(true);
  engine.Drain();
  EXPECT_TRUE(running.Wait().ok());
  EXPECT_TRUE(admitted.Wait().ok());
  EXPECT_TRUE(other.Wait().ok());
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.unavailable_rejected, 1u);

  // Once the slot frees, the tenant submits again -- and is charged only
  // for the fits that ran.
  FitJob third = workload.JobFor(kSolverAlg2PrivateLasso, 75);
  third.tenant = "flood";
  const JobHandle after = engine.Submit(done.Counted(std::move(third)));
  EXPECT_TRUE(after.Wait().ok());
  const StatusOr<PrivacyBudget> remaining = budgets.Remaining("flood");
  ASSERT_TRUE(remaining.ok());
  EXPECT_NEAR(remaining->epsilon, 8.0, 1e-12);
  ExpectRegistryMatchesStats(before, engine, /*picked_up=*/4, done);
}

TEST(EngineScenarioTest, EngineSweepMatchesSequentialRunTrials) {
  // The harness's Engine path must reproduce the sequential summary bit for
  // bit: same derived seeds, same per-trial metrics, same Summary.
  Scenario scenario;
  scenario.solver = kSolverAlg1DpFw;
  scenario.n = 800;
  scenario.d = 10;
  scenario.spec.budget = PrivacyBudget::Pure(1.0);
  scenario.estimate_tau = true;

  const int trials = 5;
  const std::uint64_t seed = 2022;
  const Summary sequential = RunTrials(trials, seed, [&](std::uint64_t s) {
    return RunScenarioTrial(scenario, s);
  });

  Engine engine(Engine::Options{4});
  const Summary concurrent =
      RunScenarioTrials(engine, scenario, trials, seed);

  EXPECT_EQ(concurrent.mean, sequential.mean);
  EXPECT_EQ(concurrent.stdev, sequential.stdev);
  EXPECT_EQ(concurrent.count, sequential.count);
}

}  // namespace
}  // namespace htdp
