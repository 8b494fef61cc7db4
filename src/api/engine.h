#ifndef HTDP_API_ENGINE_H_
#define HTDP_API_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/budget_manager.h"
#include "api/fit_result.h"
#include "api/problem.h"
#include "api/solver.h"
#include "api/solver_spec.h"
#include "rng/rng.h"
#include "util/status.h"

namespace htdp {

/// ## The Engine: a concurrent fit-job layer over the Solver facade
///
/// The paper's experiments -- and every serving workload built on them --
/// sweep dozens of (n, d, epsilon, solver) scenarios. The Engine serves
/// that fan-out natively: callers describe each fit as a FitJob, Submit()
/// returns immediately with a JobHandle, and a fixed pool of job workers
/// runs many TryFits concurrently with cancellation and per-job wall-clock
/// deadlines. Data-level parallelism inside each fit still flows through
/// ParallelFor's shared worker pool, which the Engine makes multi-tenant:
/// one job's dispatch holds the pool at a time, and a job that finds it busy
/// runs its chunks on its own worker thread instead of waiting. Chunking is
/// fixed per dispatch, so results do not depend on which of the two ran.
///
/// Determinism contract: a job's result is bit-identical to a sequential
/// `TryFit(problem, spec, rng)` with the same RNG state -- every job runs
/// on its own Rng seeded from FitJob::seed (or the explicit FitJob::rng
/// stream), and solver arithmetic never depends on scheduling.
///
/// Error contract: Submit() never aborts the process on user-supplied
/// configuration. An unknown solver name, a malformed problem, an
/// unfundable budget -- each surfaces as the job's typed error Status
/// through JobHandle::Wait() (see util/status.h for the taxonomy;
/// kCancelled and kDeadlineExceeded report the Engine's own outcomes).
///
/// Overload protection: an Engine constructed with Options::max_queue_depth
/// sheds load instead of queueing unboundedly. Admission uses high/low
/// watermarks -- once the queue reaches max_queue_depth the Engine latches
/// overloaded and rejects every submit with a typed kUnavailable until the
/// queue drains back to queue_resume_depth -- and jobs whose wall-clock
/// deadline already expired while queued are shed AT DEQUEUE (completed
/// with kDeadlineExceeded by the worker that pops them, without running the
/// solver). Options::max_inflight_per_tenant bounds one tenant's
/// queued+running jobs so a single flooding tenant cannot monopolize the
/// queue. kUnavailable rejections are retryable by contract: nothing ran,
/// and any tenant-budget reservation is refunded in full.
///
/// Tenant budgets: an Engine constructed with Options::budgets enforces
/// shared named-tenant privacy budgets (api/budget_manager.h). A job that
/// names a FitJob::tenant reserves its spec.budget from that tenant AT
/// SUBMIT TIME, under sequential composition across jobs; when the
/// reservation does not fit, the job completes inline with a typed
/// kBudgetExhausted Status and never reaches a worker -- no data is
/// touched, no mechanism runs. The reservation is refunded automatically
/// when the job provably released nothing: cancelled or shut down while
/// still queued, rejected by the pre-run deadline/cancel checks, or failed
/// by the solver's up-front validation (kInvalidProblem, kShapeMismatch,
/// kUnknownSolver, kBudgetExhausted -- every solver validates before its
/// first mechanism invocation). Jobs that ran iterations (success, mid-fit
/// kCancelled or kDeadlineExceeded) stay charged: their released outputs
/// are privacy spend whether or not the caller keeps the FitResult.
///
/// The accounting is TWO-PHASE under the hood: Submit opens a
/// BudgetManager reservation (a RESERVE record when the manager journals
/// to a dp::BudgetStore), and the unique completing path closes it with
/// exactly one Commit (spend final) or Abort (spend returned) before the
/// completion is published -- so when Drain() returns, no reservation is
/// open, and a crash between the phases is recovered conservatively (the
/// dangling reserve counts as committed; see docs/durability.md).

/// One fit request. The Problem's non-owning pointers (data, loss,
/// constraint) must stay valid until the job completes -- the Engine copies
/// the Problem/SolverSpec values but never the dataset. The spec's
/// observer/should_stop hooks run on an Engine worker thread; hooks whose
/// captured state is shared across jobs must be thread-safe.
struct FitJob {
  /// SolverRegistry name, e.g. "alg1_dp_fw", resolved at Submit() against
  /// the global registry. Ignored when `solver` is set.
  std::string solver_name;

  /// Explicit solver instance (must outlive the job). Takes precedence over
  /// solver_name; leave null to resolve by name.
  const Solver* solver = nullptr;

  Problem problem;
  SolverSpec spec;

  /// Seeds the job's private Rng; two jobs with equal seeds (and specs)
  /// produce identical results regardless of scheduling.
  std::uint64_t seed = 0;

  /// Explicit RNG stream state; overrides `seed` when set. Lets callers
  /// hand a mid-stream generator to the job (e.g. the harness continues the
  /// stream that generated the trial's data, exactly like the sequential
  /// path).
  std::optional<Rng> rng;

  /// Wall-clock budget in seconds, measured from Submit(). 0 = none. A job
  /// that misses it -- still queued, cooperatively stopped mid-fit, or
  /// finishing too late -- completes with kDeadlineExceeded. A stopped or
  /// late fit returns no FitResult (and so no ledger), but any iterations
  /// that ran did release their DP outputs; wire spec.observer to keep an
  /// authoritative spend audit for such jobs (each IterationEvent carries
  /// the running PrivacyLedger).
  double deadline_seconds = 0.0;

  /// Free-form label for dashboards and debugging; echoed in the job's
  /// error messages.
  std::string tag;

  /// Named tenant whose shared budget funds this job (see the tenant-budget
  /// contract above). Empty = no tenant accounting. Non-empty names require
  /// an Engine configured with Options::budgets and a tenant registered
  /// there; violations surface as the job's typed error Status.
  std::string tenant;

  /// Called once when the job completes, on every completion path, right
  /// after the result is published: Wait() and done() on the job's handle
  /// already see it. It runs on whichever thread finishes the job -- the
  /// Submit() caller for an inline rejection, the Cancel() caller for a
  /// queued job, a worker, or Shutdown() -- with the Engine's mutex held,
  /// so it must not block and must not call Submit, Cancel, stats or Drain
  /// on the Engine. Empty = no callback.
  std::function<void()> on_done;
};

namespace engine_internal {
struct EngineShared;
struct JobRecord;
}  // namespace engine_internal

/// Aggregate Engine counters. Snapshot via Engine::stats().
struct EngineStats {
  std::size_t submitted = 0;          // total Submit() calls
  std::size_t completed = 0;          // jobs finished (any outcome)
  std::size_t succeeded = 0;          // completed with an Ok fit
  std::size_t failed = 0;             // completed with a config/typed error
  std::size_t cancelled = 0;          // completed via Cancel()
  std::size_t deadline_exceeded = 0;  // completed past their deadline
  std::size_t budget_rejected = 0;    // rejected at Submit by tenant budget
                                      // (also counted in `failed`)
  std::size_t unavailable_rejected = 0;  // shed at Submit by the queue cap or
                                         // tenant inflight cap (also counted
                                         // in `failed`)
  std::size_t shed_expired = 0;       // deadline-expired while queued, shed
                                      // at dequeue (also counted in
                                      // `deadline_exceeded`)
  std::size_t queue_depth = 0;        // submitted, not yet picked up
  std::size_t running = 0;            // currently executing
  bool overloaded = false;            // watermark latch currently shedding
  double uptime_seconds = 0.0;        // since the Engine started
  double jobs_per_second = 0.0;       // completed / uptime

  /// Always 0: the Engine has one FIFO queue and no work stealing. Kept
  /// only because perfbench's engine.steals_per_fit still reads it
  /// (perfbench/src/engine_workload.cc and serve_workload.cc); ROADMAP
  /// item 4 drops that metric and then this field.
  std::size_t steals = 0;
};

/// Deterministic retry hint for a shed request: ~50 ms of expected service
/// time per backlogged job per worker, clamped to [25 ms, 2000 ms]. Pure so
/// the server, the client tests and the docs all agree on the number.
constexpr std::uint32_t RetryAfterHintMs(std::size_t backlog, int workers) {
  const std::size_t per_worker =
      backlog / static_cast<std::size_t>(workers > 0 ? workers : 1);
  const std::size_t ms = 50 * (per_worker + 1);
  if (ms < 25) return 25;
  if (ms > 2000) return 2000;
  return static_cast<std::uint32_t>(ms);
}

/// Caller's reference to a submitted job. Cheap to copy; all copies refer
/// to the same job. Outliving the Engine is safe: the Engine completes
/// every job (running or cancelled-on-shutdown) before it is destroyed.
class JobHandle {
 public:
  JobHandle() = default;

  bool valid() const { return record_ != nullptr; }

  /// The FitJob::tag this handle was submitted with.
  const std::string& tag() const;

  /// True once the job completed (successfully or not). Never blocks.
  bool done() const;

  /// Requests cancellation: a queued job completes with kCancelled right
  /// here (removed from the queue, counters updated, Wait() unblocked); a
  /// running job stops cooperatively at its next iteration boundary.
  /// Idempotent; has no effect on a completed job.
  void Cancel();

  /// Blocks until the job completes and returns its result: the FitResult,
  /// or the typed error Status (config error, kCancelled,
  /// kDeadlineExceeded). The reference stays valid while any handle to the
  /// job lives -- which is why Wait() is deleted on temporaries: in
  /// `engine.Submit(job).Wait()` the temporary handle can be the result's
  /// last owner, dangling the reference. Hold the JobHandle in a variable.
  const StatusOr<FitResult>& Wait() const&;
  const StatusOr<FitResult>& Wait() const&& = delete;

 private:
  friend class Engine;
  explicit JobHandle(std::shared_ptr<engine_internal::JobRecord> record)
      : record_(std::move(record)) {}

  std::shared_ptr<engine_internal::JobRecord> record_;
};

/// The concurrent fit service. Owns a fixed pool of job-worker threads and
/// one FIFO job queue under the engine mutex: jobs start in submission
/// order, whichever worker is free first takes the oldest. See
/// docs/engine.md for the scheduler design. Thread-safe:
/// Submit/Cancel/Wait/stats may be called from any thread.
class Engine {
 public:
  struct Options {
    /// Number of concurrent job workers; 0 = NumWorkerThreads().
    int workers = 0;

    /// Shared tenant-budget ledger consulted for jobs that set
    /// FitJob::tenant. Not owned; must outlive the Engine. Null disables
    /// tenant accounting (tenant-naming jobs then fail with
    /// kInvalidProblem).
    BudgetManager* budgets = nullptr;

    /// Queue high watermark: a Submit that finds this many jobs queued is
    /// shed with a typed kUnavailable (retryable; tenant reservations are
    /// refunded). 0 = unbounded (the pre-overload-protection behavior).
    std::size_t max_queue_depth = 0;

    /// Queue low watermark: once overloaded, the Engine keeps shedding until
    /// the queue drains to this depth, so admission flaps per drain cycle
    /// instead of per job. 0 (with a cap set) = max_queue_depth / 2.
    std::size_t queue_resume_depth = 0;

    /// Max queued+running jobs a single tenant may hold; further submits
    /// from that tenant are shed with kUnavailable until one completes.
    /// 0 = unlimited. Applies only to jobs that name a tenant.
    std::size_t max_inflight_per_tenant = 0;
  };

  Engine();  // default Options
  explicit Engine(Options options);

  /// Shuts down: queued jobs complete with kCancelled, running jobs finish
  /// (or stop at their deadline), workers join.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Enqueues the job and returns immediately. Never aborts on
  /// user-supplied configuration: lookup/validation failures surface as the
  /// job's typed error Status. Jobs submitted after Shutdown() complete
  /// immediately with kCancelled.
  JobHandle Submit(FitJob job);

  /// Blocks until every job submitted so far has completed.
  void Drain();

  /// Stops accepting work, cancels queued jobs, waits for running jobs and
  /// joins the workers. Idempotent; the destructor calls it.
  void Shutdown();

  EngineStats stats() const;

  /// The retry_after_ms hint a shed caller should honor, derived from the
  /// current backlog via RetryAfterHintMs. The daemon stamps this into
  /// UNAVAILABLE error frames.
  std::uint32_t SuggestedRetryAfterMs() const;

  /// The fixed worker count (stable for the Engine's whole lifetime, so
  /// safe to read concurrently with Shutdown()).
  int workers() const { return worker_count_; }

 private:
  void WorkerMain();
  void RunJob(engine_internal::JobRecord& record);

  /// Overload admission (queue watermarks + tenant inflight cap). Called
  /// with the engine mutex held; Ok() admits, kUnavailable sheds.
  Status AdmitLocked(engine_internal::JobRecord& record);

  /// Queue, counters and coordination primitives, shared with every
  /// JobRecord so a JobHandle can complete a queued job (Cancel) with
  /// accurate accounting even while the Engine's workers are busy.
  const std::shared_ptr<engine_internal::EngineShared> state_;
  std::mutex shutdown_mu_;  // serializes Shutdown() callers
  int worker_count_ = 0;
  std::vector<std::thread> workers_;
};

}  // namespace htdp

#endif  // HTDP_API_ENGINE_H_
