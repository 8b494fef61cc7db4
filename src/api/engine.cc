#include "api/engine.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "api/solver_registry.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/simd.h"

namespace htdp {
namespace engine_internal {

using Clock = std::chrono::steady_clock;

/// The Engine's job counters. Each lives in two stores with one writer,
/// Count(): EngineShared::counts (this Engine's value, read by stats()) and
/// the registry series of its kBuckets row (the process-wide total over
/// every Engine). The outcome buckets, kSucceeded through kShedExpired, are
/// counted only by FinishLocked.
enum Bucket : std::size_t {
  kSubmitted,
  kCompleted,
  kSucceeded,
  kFailed,
  kCancelled,
  kDeadlineExceeded,
  kBudgetRejected,
  kShed,
  kShedExpired,
  kBucketCount,
};

/// One row per Bucket, in enum order. `parent` is the coarser bucket an
/// outcome also counts in, and every outcome chains up to kCompleted: a shed
/// job is failed and completed, an expired one deadline-exceeded and
/// completed. kSubmitted, not an outcome, names itself.
struct BucketRow {
  const char* metric;
  const char* help;
  Bucket parent;
};
constexpr BucketRow kBuckets[kBucketCount] = {
    {"htdp_engine_jobs_submitted_total", "Jobs submitted to the Engine",
     kSubmitted},
    {"htdp_engine_jobs_completed_total", "Jobs completed (all outcomes)",
     kCompleted},
    {"htdp_engine_jobs_succeeded_total", "Jobs that produced a FitResult",
     kCompleted},
    {"htdp_engine_jobs_failed_total", "Jobs that completed with an error",
     kCompleted},
    {"htdp_engine_jobs_cancelled_total",
     "Jobs cancelled before or during a fit", kCompleted},
    {"htdp_engine_jobs_deadline_exceeded_total",
     "Jobs that missed their deadline", kCompleted},
    {"htdp_engine_jobs_budget_rejected_total",
     "Submissions rejected by tenant budget admission", kFailed},
    {"htdp_engine_jobs_shed_total", "Submissions shed by overload admission",
     kFailed},
    {"htdp_engine_jobs_shed_expired_total",
     "Queued jobs shed because their deadline expired", kDeadlineExceeded},
};

/// Per-tenant end-to-end fit latency (submit -> completion) of the jobs a
/// worker ran. The label value "none" keeps untenanted jobs out of the
/// empty-label series.
void ObserveFitLatency(const std::string& tenant, double seconds) {
  obs::MetricRegistry::Global()
      .GetHistogram("htdp_fit_latency_seconds",
                    "Job latency from submit to completion",
                    obs::MetricRegistry::LatencySecondsBuckets(),
                    {{"tenant", tenant.empty() ? "none" : tenant}})
      ->Observe(seconds);
}

/// The job queue, counters and coordination state shared by the Engine and
/// every JobRecord. Held through shared_ptrs so a JobHandle's Cancel() can
/// update the queue/counters directly -- and safely even after the Engine
/// object is gone (by then stop is set and the queue empty, so Cancel
/// degenerates to a no-op).
///
/// ### Scheduler invariants (see docs/engine.md)
///
/// - One FIFO `queue`, guarded by `mu`. Submit pushes to the back; a worker
///   pops the front and, in the same critical section, sheds the job or
///   claims it as `running`. So a job is always queued, running or
///   finished, and Drain() waits on `queue.empty() && running == 0`.
/// - Queue membership is completion ownership: whichever path removes a
///   record from `queue` (worker pop, Cancel's erase, Shutdown's sweep) is
///   the unique path that finishes it, through FinishLocked. Inline
///   rejections at Submit never enter the queue and are finished there.
///   Either way every job is finished and counted exactly once.
/// - Lock order: `mu` -> a record's mu, and `mu` -> the BudgetManager's
///   lock (FinishLocked closes reservations under `mu`). Never the reverse.
struct EngineShared {
  std::mutex mu;
  std::condition_variable work_cv;  // queue became non-empty / stopping
  std::condition_variable idle_cv;  // a job completed
  std::deque<std::shared_ptr<JobRecord>> queue;  // guarded by mu
  std::size_t running = 0;   // claimed by a worker, not finished (guarded by mu)
  bool stop = false;

  /// Tenant-budget ledger (Options::budgets). Not owned; set once at Engine
  /// construction and never mutated, so it is safe to read without `mu`.
  BudgetManager* budgets = nullptr;

  // Overload-admission knobs (set once at construction, read-only after) and
  // the watermark latch + per-tenant inflight counts (guarded by mu).
  std::size_t max_queue_depth = 0;
  std::size_t queue_resume_depth = 0;
  std::size_t max_inflight_per_tenant = 0;
  bool overloaded = false;
  std::map<std::string, std::size_t> tenant_inflight;

  /// This Engine's counters, indexed by Bucket and written only by Count(),
  /// always under `mu`, so a stats() snapshot is consistent.
  std::array<std::size_t, kBucketCount> counts{};

  const double start_seconds = obs::MonotonicSeconds();
};

/// Bumps one counter in both of its stores (see Bucket). Caller holds `mu`.
void Count(EngineShared& engine, Bucket bucket) {
  static const std::array<obs::Counter*, kBucketCount> registry = [] {
    std::array<obs::Counter*, kBucketCount> counters{};
    for (std::size_t b = 0; b < kBucketCount; ++b) {
      counters[b] = obs::MetricRegistry::Global().GetCounter(
          kBuckets[b].metric, kBuckets[b].help);
    }
    return counters;
  }();
  ++engine.counts[bucket];
  registry[bucket]->Increment();
}

/// Publishes the load gauges from the state they mirror; the one writer of
/// every engine gauge. Caller holds `mu`.
void PublishGaugesLocked(EngineShared& engine) {
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  static obs::Gauge* const queue_depth =
      registry.GetGauge("htdp_engine_queue_depth", "Jobs waiting in the queue");
  static obs::Gauge* const running = registry.GetGauge(
      "htdp_engine_jobs_running", "Jobs currently on a worker");
  static obs::Gauge* const overloaded = registry.GetGauge(
      "htdp_engine_overloaded", "1 while the shed watermark latch is on");
  queue_depth->Set(static_cast<double>(engine.queue.size()));
  running->Set(static_cast<double>(engine.running));
  overloaded->Set(engine.overloaded ? 1.0 : 0.0);
}

/// Shared state of one submitted job. The Engine and every JobHandle copy
/// hold it through a shared_ptr; its own mutex/cv make Wait() independent
/// of the Engine's lifetime (the Engine completes all jobs before dying).
struct JobRecord {
  FitJob job;
  const Solver* solver = nullptr;  // resolved at Submit; null on lookup error
  std::shared_ptr<EngineShared> engine;  // set when enqueued, else null
  std::atomic<bool> cancel{false};
  bool has_deadline = false;
  Clock::time_point deadline;

  /// obs::NowNanos() at Submit entry; start edge of the engine.queue_wait
  /// span and the origin of the per-tenant fit-latency observation.
  std::uint64_t submit_ns = 0;

  /// The tenant-budget reservation opened at Submit (BudgetManager::Reserve),
  /// open while `charged`. FinishLocked closes it exactly once.
  bool charged = false;
  BudgetManager::ReservationId reservation = 0;

  // Guarded by the ENGINE mutex.
  bool counted_inflight = false;  // holds a slot in tenant_inflight
  bool running = false;           // claimed by a worker; counted in `running`

  std::mutex mu;
  std::condition_variable cv;
  std::optional<StatusOr<FitResult>> result;  // set once, under mu = done

  bool Expired() const { return has_deadline && Clock::now() >= deadline; }

  /// Publishes the outcome, wakes the Wait()ers and runs the job's
  /// on_done. Called once, by FinishLocked.
  void Complete(StatusOr<FitResult> outcome) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      HTDP_DCHECK(!result.has_value()) << Describe() << " completed twice";
      result.emplace(std::move(outcome));
    }
    cv.notify_all();
    if (job.on_done) job.on_done();
  }

  std::string Describe() const {
    std::string what = "job";
    if (!job.tag.empty()) what += " \"" + job.tag + "\"";
    return what;
  }
};

/// The one completion path. Every job -- rejected inline at Submit,
/// cancelled while queued, shed at dequeue, run by a worker or swept by
/// Shutdown -- is finished here exactly once, by the path that owns its
/// completion. Caller holds `engine.mu` and notifies `idle_cv` after
/// unlocking. The reservation closes and the outcome is counted BEFORE the
/// result is published, so a waiter that sees its result finds the budget
/// settled and both stats() and METRICS already counting the job.
void FinishLocked(EngineShared& engine, JobRecord& record,
                  StatusOr<FitResult> result, Bucket outcome) {
  if (record.charged) {
    // A job that never reached a solver released nothing, nor did one the
    // solver rejected in its up-front validation (every solver validates
    // before its first mechanism invocation): its reservation is aborted.
    // Any other fit that ran -- even one stopped mid-fit -- released
    // mechanism output, so its spend commits.
    const StatusCode code = result.status().code();
    const bool released = record.running &&
                          code != StatusCode::kInvalidProblem &&
                          code != StatusCode::kBudgetExhausted &&
                          code != StatusCode::kShapeMismatch &&
                          code != StatusCode::kUnknownSolver;
    (void)(released ? engine.budgets->Commit(record.reservation)
                    : engine.budgets->Abort(record.reservation));
    record.charged = false;
  }
  for (Bucket b = outcome;; b = kBuckets[b].parent) {
    Count(engine, b);
    if (b == kCompleted) break;
  }
  record.Complete(std::move(result));
  if (record.running) --engine.running;
  if (record.counted_inflight) {
    const auto it = engine.tenant_inflight.find(record.job.tenant);
    if (--it->second == 0) engine.tenant_inflight.erase(it);
  }
  PublishGaugesLocked(engine);
}

}  // namespace engine_internal

using engine_internal::Bucket;
using engine_internal::EngineShared;
using engine_internal::FinishLocked;
using engine_internal::JobRecord;

const std::string& JobHandle::tag() const {
  HTDP_CHECK(record_ != nullptr) << "JobHandle is empty";
  return record_->job.tag;
}

bool JobHandle::done() const {
  HTDP_CHECK(record_ != nullptr) << "JobHandle is empty";
  const std::lock_guard<std::mutex> lock(record_->mu);
  return record_->result.has_value();
}

void JobHandle::Cancel() {
  HTDP_CHECK(record_ != nullptr) << "JobHandle is empty";
  record_->cancel.store(true, std::memory_order_release);
  const std::shared_ptr<EngineShared> engine = record_->engine;
  if (engine == nullptr) return;  // completed inline at Submit
  // A job that has not started yet completes right here, so Wait()/done()/
  // stats() all observe the cancellation immediately, not after a worker
  // drains to it. A running job only gets the flag; the should_stop hook
  // picks it up at the next iteration boundary.
  //
  // Queue membership is the arbitration: whichever path removes the record
  // from the queue (this erase, a worker pop, Shutdown's sweep) is the
  // unique completion owner. A record not in the queue is running (its
  // worker observes `cancel` at the next iteration poll) or finished.
  {
    const std::lock_guard<std::mutex> engine_lock(engine->mu);
    std::deque<std::shared_ptr<JobRecord>>& queue = engine->queue;
    const auto it = std::find(queue.begin(), queue.end(), record_);
    if (it == queue.end()) return;
    queue.erase(it);
    FinishLocked(*engine, *record_,
                 Status::Cancelled(record_->Describe() +
                                   " cancelled before it started"),
                 Bucket::kCancelled);
  }
  engine->idle_cv.notify_all();
}

const StatusOr<FitResult>& JobHandle::Wait() const& {
  HTDP_CHECK(record_ != nullptr) << "JobHandle is empty";
  std::unique_lock<std::mutex> lock(record_->mu);
  record_->cv.wait(lock, [&] { return record_->result.has_value(); });
  return *record_->result;
}

Engine::Engine() : Engine(Options{}) {}

Engine::Engine(Options options)
    : state_(std::make_shared<EngineShared>()) {
  state_->budgets = options.budgets;
  state_->max_queue_depth = options.max_queue_depth;
  if (options.max_queue_depth > 0) {
    state_->queue_resume_depth =
        options.queue_resume_depth > 0 &&
                options.queue_resume_depth < options.max_queue_depth
            ? options.queue_resume_depth
            : options.max_queue_depth / 2;
  }
  state_->max_inflight_per_tenant = options.max_inflight_per_tenant;
  const int workers =
      options.workers > 0 ? options.workers : NumWorkerThreads();
  worker_count_ = std::max(workers, 1);
  workers_.reserve(static_cast<std::size_t>(worker_count_));
  for (int i = 0; i < worker_count_; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
  // Info-style series (value pinned to 1, the payload lives in the labels):
  // tags every metrics scrape with the SIMD ISA the kernel dispatcher
  // actually selected and the engine's worker count, so archived series
  // from different hosts or HTDP_SIMD settings stay attributable. A second
  // Engine with a different worker count adds its own labeled series
  // rather than clobbering this one.
  obs::MetricRegistry::Global()
      .GetGauge("htdp_runtime_info",
                "Runtime configuration tag; value is always 1",
                {{"simd", SimdEnabled() ? SimdInfo().isa : "off"},
                 {"threads", std::to_string(worker_count_)}})
      ->Set(1.0);
}

Engine::~Engine() { Shutdown(); }

JobHandle Engine::Submit(FitJob job) {
  auto record = std::make_shared<JobRecord>();
  record->job = std::move(job);
  record->submit_ns = obs::NowNanos();
  if (record->job.deadline_seconds > 0.0) {
    record->has_deadline = true;
    record->deadline =
        engine_internal::Clock::now() +
        std::chrono::duration_cast<engine_internal::Clock::duration>(
            std::chrono::duration<double>(record->job.deadline_seconds));
  }

  // Inline rejections complete the job right here, before it can reach a
  // worker; `outcome` is their counter bucket. An unknown solver name fails
  // fast with the registry's typed Status (listing the known names).
  Status rejected = Status::Ok();
  Bucket outcome = Bucket::kFailed;
  record->solver = record->job.solver;
  if (record->solver == nullptr) {
    StatusOr<const Solver*> found =
        SolverRegistry::Global().Find(record->job.solver_name);
    if (found.ok()) {
      record->solver = *found;
    } else {
      rejected = found.status();
    }
  }

  // Tenant-budget admission: reserve the job's spec.budget from its named
  // tenant. Rejections carry the manager's typed Status (kBudgetExhausted
  // when the budget is spent, kInvalidProblem for an unknown tenant or an
  // Engine without a BudgetManager) -- no work runs, no privacy is spent.
  // Reservation takes only the manager's own lock, never the engine mutex.
  if (rejected.ok() && !record->job.tenant.empty()) {
    StatusOr<BudgetManager::ReservationId> reservation =
        state_->budgets != nullptr
            ? state_->budgets->Reserve(record->job.tenant,
                                       record->job.spec.budget)
            : StatusOr<BudgetManager::ReservationId>(Status::InvalidProblem(
                  record->Describe() + " names tenant \"" +
                  record->job.tenant +
                  "\" but the Engine has no BudgetManager "
                  "(set Engine::Options::budgets)"));
    if (reservation.ok()) {
      record->charged = true;
      record->reservation = reservation.value();
    } else {
      rejected = reservation.status();
      if (rejected.code() == StatusCode::kBudgetExhausted) {
        outcome = Bucket::kBudgetRejected;
      }
    }
  }

  bool admitted = false;
  {
    const std::lock_guard<std::mutex> lock(state_->mu);
    engine_internal::Count(*state_, Bucket::kSubmitted);
    if (rejected.ok() && state_->stop) {
      rejected = Status::Cancelled(record->Describe() +
                                   " submitted after Engine shutdown");
      outcome = Bucket::kCancelled;
    } else if (rejected.ok()) {
      // Overload shedding: the queue watermark latch or the tenant inflight
      // cap may refuse the job with kUnavailable, retryable by contract.
      rejected = AdmitLocked(*record);
      outcome = Bucket::kShed;
    }
    admitted = rejected.ok();
    if (!admitted) {
      FinishLocked(*state_, *record, std::move(rejected), outcome);
    } else {
      record->engine = state_;
      state_->queue.push_back(record);
      if (!record->job.tenant.empty() &&
          state_->max_inflight_per_tenant > 0) {
        ++state_->tenant_inflight[record->job.tenant];
        record->counted_inflight = true;
      }
      engine_internal::PublishGaugesLocked(*state_);
    }
  }
  if (admitted) {
    state_->work_cv.notify_one();
  } else {
    state_->idle_cv.notify_all();
  }
  return JobHandle(std::move(record));
}

Status Engine::AdmitLocked(engine_internal::JobRecord& record) {
  // High/low watermark hysteresis: the latch flips on at max_queue_depth and
  // off once a drain cycle brings the queue back to queue_resume_depth, so
  // admission does not flap once per popped job at the boundary.
  if (state_->max_queue_depth > 0) {
    const std::size_t depth = state_->queue.size();
    if (state_->overloaded && depth <= state_->queue_resume_depth) {
      state_->overloaded = false;
    }
    if (!state_->overloaded && depth >= state_->max_queue_depth) {
      state_->overloaded = true;
    }
    if (state_->overloaded) {
      return Status::Unavailable(
          record.Describe() + " shed: queue depth " + std::to_string(depth) +
          " at cap " + std::to_string(state_->max_queue_depth) +
          "; retry after ~" +
          std::to_string(RetryAfterHintMs(depth + state_->running,
                                          worker_count_)) +
          " ms");
    }
  }
  if (state_->max_inflight_per_tenant > 0 && !record.job.tenant.empty()) {
    const auto it = state_->tenant_inflight.find(record.job.tenant);
    if (it != state_->tenant_inflight.end() &&
        it->second >= state_->max_inflight_per_tenant) {
      return Status::Unavailable(
          record.Describe() + " shed: tenant \"" + record.job.tenant +
          "\" already has " + std::to_string(it->second) +
          " jobs inflight (cap " +
          std::to_string(state_->max_inflight_per_tenant) + ")");
    }
  }
  return Status::Ok();
}

void Engine::WorkerMain() {
  for (;;) {
    std::shared_ptr<JobRecord> record;
    bool claimed = false;
    {
      std::unique_lock<std::mutex> lock(state_->mu);
      state_->work_cv.wait(
          lock, [&] { return state_->stop || !state_->queue.empty(); });
      if (state_->queue.empty()) return;  // stopping; Shutdown swept it
      // Popping the front makes this worker the record's unique completion
      // owner (queue membership, see EngineShared). A job cancelled, or
      // whose deadline expired, while it sat queued is shed right here --
      // the worker moves on to the next job instead of spinning up a fit
      // that could only report kCancelled or kDeadlineExceeded. Otherwise
      // the worker claims it.
      record = std::move(state_->queue.front());
      state_->queue.pop_front();
      if (record->cancel.load(std::memory_order_acquire)) {
        FinishLocked(*state_, *record,
                     Status::Cancelled(record->Describe() +
                                       " cancelled before it started"),
                     Bucket::kCancelled);
      } else if (record->Expired()) {
        FinishLocked(*state_, *record,
                     Status::DeadlineExceeded(
                         record->Describe() +
                         " deadline expired while queued; shed"),
                     Bucket::kShedExpired);
      } else {
        record->running = true;
        ++state_->running;
        engine_internal::PublishGaugesLocked(*state_);
        claimed = true;
      }
    }
    if (claimed) RunJob(*record);
    state_->idle_cv.notify_all();
  }
}

void Engine::RunJob(JobRecord& record) {
  // Queue wait is recorded retroactively from the submit stamp: the span
  // covers the full time the job sat before a worker picked it up.
  obs::RecordSpan("engine.queue_wait", record.submit_ns, obs::NowNanos());
  HTDP_TRACE_SPAN("engine.job");

  // Wire cancellation + deadline into the solver's cooperative-stop hook,
  // composing with any caller-installed hook. The hook never touches the
  // RNG, so an unstopped fit is bit-identical to a sequential TryFit.
  SolverSpec spec = record.job.spec;
  const std::function<bool()> caller_stop = std::move(spec.should_stop);
  JobRecord* rec = &record;
  spec.should_stop = [rec, caller_stop] {
    return rec->cancel.load(std::memory_order_relaxed) || rec->Expired() ||
           (caller_stop && caller_stop());
  };

  Rng rng = record.job.rng.has_value() ? *record.job.rng
                                       : Rng(record.job.seed);
  StatusOr<FitResult> result =
      record.solver->TryFit(record.job.problem, spec, rng);

  Bucket outcome = Bucket::kSucceeded;
  const StatusCode code = result.status().code();
  if (result.ok()) {
    // Hold the documented deadline contract even when the fit never hit a
    // should_stop poll after the deadline passed (e.g. single-poll alg4):
    // a result delivered late is a deadline miss, not a success.
    if (record.Expired()) {
      result = Status::DeadlineExceeded(record.Describe() +
                                        " finished after its deadline");
      outcome = Bucket::kDeadlineExceeded;
    }
  } else if (code == StatusCode::kCancelled &&
             !record.cancel.load(std::memory_order_acquire) &&
             record.Expired()) {
    // Attribute the stop: an explicit Cancel() wins; otherwise a deadline
    // overrun mid-fit reports kDeadlineExceeded.
    result = Status::DeadlineExceeded(record.Describe() +
                                      " missed its deadline mid-fit");
    outcome = Bucket::kDeadlineExceeded;
  } else {
    outcome = code == StatusCode::kCancelled ? Bucket::kCancelled
                                             : Bucket::kFailed;
    // Solver-produced errors get the job tag prefixed (Engine-generated
    // statuses already carry it via Describe()), so a sweep's aggregated
    // error log attributes every failure to its cell.
    if (!record.job.tag.empty()) {
      result = Status::WithCode(
          code, record.Describe() + ": " + result.status().message());
    }
  }
  engine_internal::ObserveFitLatency(
      record.job.tenant,
      static_cast<double>(obs::NowNanos() - record.submit_ns) * 1e-9);
  const std::lock_guard<std::mutex> lock(state_->mu);
  FinishLocked(*state_, record, std::move(result), outcome);
}

void Engine::Drain() {
  // A worker pops and claims a job in one critical section, so every
  // unfinished job is either queued or counted in `running`.
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->idle_cv.wait(lock, [&] {
    return state_->queue.empty() && state_->running == 0;
  });
}

void Engine::Shutdown() {
  // Serializes concurrent Shutdown() callers (incl. the destructor) so the
  // join below runs exactly once.
  const std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  std::deque<std::shared_ptr<JobRecord>> orphans;
  {
    const std::lock_guard<std::mutex> lock(state_->mu);
    if (state_->stop && workers_.empty()) return;  // already shut down
    state_->stop = true;
    // Swapping the queue out makes this path each orphan's unique
    // completion owner; they finish before `mu` is released, so no Drain()
    // or worker sees them half done. Jobs a worker already claimed are not
    // orphans -- the join below waits for them to finish.
    orphans.swap(state_->queue);
    for (const std::shared_ptr<JobRecord>& record : orphans) {
      FinishLocked(*state_, *record,
                   Status::Cancelled(record->Describe() +
                                     " cancelled by Engine shutdown"),
                   Bucket::kCancelled);
    }
  }
  state_->work_cv.notify_all();
  state_->idle_cv.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

EngineStats Engine::stats() const {
  EngineStats stats;
  const std::lock_guard<std::mutex> lock(state_->mu);
  const auto count = [&](Bucket bucket) { return state_->counts[bucket]; };
  stats.submitted = count(Bucket::kSubmitted);
  stats.completed = count(Bucket::kCompleted);
  stats.succeeded = count(Bucket::kSucceeded);
  stats.failed = count(Bucket::kFailed);
  stats.cancelled = count(Bucket::kCancelled);
  stats.deadline_exceeded = count(Bucket::kDeadlineExceeded);
  stats.budget_rejected = count(Bucket::kBudgetRejected);
  stats.unavailable_rejected = count(Bucket::kShed);
  stats.shed_expired = count(Bucket::kShedExpired);
  stats.queue_depth = state_->queue.size();
  stats.running = state_->running;
  stats.overloaded = state_->overloaded;
  stats.uptime_seconds = obs::MonotonicSeconds() - state_->start_seconds;
  stats.jobs_per_second = stats.uptime_seconds > 0.0
                              ? static_cast<double>(stats.completed) /
                                    stats.uptime_seconds
                              : 0.0;
  return stats;
}

std::uint32_t Engine::SuggestedRetryAfterMs() const {
  const std::lock_guard<std::mutex> lock(state_->mu);
  return RetryAfterHintMs(state_->queue.size() + state_->running,
                          worker_count_);
}

}  // namespace htdp
