#include "api/engine.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "api/solver_registry.h"
#include "api/work_steal_deque.h"
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
  kStolen,
  kStealFailures,
  kBucketCount,
};

/// One row per Bucket, in enum order. `parent` is the coarser bucket an
/// outcome also counts in, and every outcome chains up to kCompleted: a shed
/// job is failed and completed, an expired one deadline-exceeded and
/// completed. Buckets that are not outcomes name themselves.
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
    {"htdp_engine_jobs_stolen_total", "Jobs taken from another worker's deque",
     kStolen},
    {"htdp_engine_steal_failures_total",
     "Steal sweeps that found the backlog already claimed", kStealFailures},
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

/// Scheduler shards, counters and coordination state shared by the Engine
/// and every JobRecord. Held through shared_ptrs so a JobHandle's Cancel()
/// can update the shards/counters directly -- and safely even after the
/// Engine object is gone (by then stop is set and the shards empty, so
/// Cancel degenerates to a no-op).
///
/// ### Work-stealing scheduler invariants (see docs/engine.md)
///
/// - One WorkStealDeque per worker ("shard"). Submit pushes to one shard
///   under `mu`; workers pop their own shard LIFO and steal from the others
///   FIFO WITHOUT taking `mu` -- the deques carry their own locks, so the
///   pop path contends per shard, not globally.
/// - Ring membership is completion ownership: whichever path removes a
///   record from its shard (worker pop, Cancel's Remove, Shutdown's
///   DrainAll) is the unique path that finishes it, through FinishLocked.
///   Inline rejections at Submit never enter a ring and are finished there.
///   Either way every job is finished and counted exactly once.
/// - `queue_depth` is the global backlog estimate: incremented under `mu`
///   just before the push (so work_cv waiters never miss work -- the
///   predicate state changes inside the critical section), decremented
///   atomically at every removal. Increment-before-push means the counter
///   can transiently exceed the ring contents but never underflows.
/// - `inflight` (guarded by `mu`) counts jobs from enqueue to completion --
///   including the pop-to-claim handoff where a job is in no ring and not
///   yet `running` -- so Drain() has an exact predicate.
/// - Lock order: `mu` -> a shard's internal lock -> a record's mu, and `mu`
///   -> the BudgetManager's lock (FinishLocked closes reservations under
///   `mu`). Workers may take a shard lock without `mu`, but never the
///   reverse nesting.
struct EngineShared {
  std::mutex mu;
  std::condition_variable work_cv;  // backlog became non-empty / stopping
  std::condition_variable idle_cv;  // a job completed / left the backlog
  std::vector<std::unique_ptr<WorkStealDeque<std::shared_ptr<JobRecord>>>>
      shards;                        // one per worker, fixed at construction
  std::vector<obs::Gauge*> depth_gauges;  // per-shard depth, worker label
  std::atomic<std::size_t> queue_depth{0};
  std::atomic<std::size_t> rr_next{0};  // round-robin cursor, untenanted jobs
  std::size_t inflight = 0;  // enqueued jobs not yet completed (guarded by mu)
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

  /// This Engine's counters, indexed by Bucket and written only by Count().
  /// Submissions and outcomes are counted under `mu`, so a stats() snapshot
  /// is consistent; the steal buckets are counted lock-free by DequeueWork.
  std::array<std::atomic<std::size_t>, kBucketCount> counts{};

  const double start_seconds = obs::MonotonicSeconds();
};

/// Bumps one counter in both of its stores (see Bucket).
void Count(EngineShared& engine, Bucket bucket) {
  static const std::array<obs::Counter*, kBucketCount> registry = [] {
    std::array<obs::Counter*, kBucketCount> counters{};
    for (std::size_t b = 0; b < kBucketCount; ++b) {
      counters[b] = obs::MetricRegistry::Global().GetCounter(
          kBuckets[b].metric, kBuckets[b].help);
    }
    return counters;
  }();
  engine.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  registry[bucket]->Increment();
}

/// Publishes the load gauges from the state they mirror; the one writer of
/// every engine gauge. Caller holds `mu`. A `shard` >= 0 also refreshes
/// that worker's deque-depth gauge, the only shard the caller changed.
void PublishGaugesLocked(EngineShared& engine, int shard) {
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  static obs::Gauge* const queue_depth =
      registry.GetGauge("htdp_engine_queue_depth", "Jobs waiting in the queue");
  static obs::Gauge* const running = registry.GetGauge(
      "htdp_engine_jobs_running", "Jobs currently on a worker");
  static obs::Gauge* const overloaded = registry.GetGauge(
      "htdp_engine_overloaded", "1 while the shed watermark latch is on");
  queue_depth->Set(static_cast<double>(
      engine.queue_depth.load(std::memory_order_relaxed)));
  running->Set(static_cast<double>(engine.running));
  overloaded->Set(engine.overloaded ? 1.0 : 0.0);
  if (shard >= 0) {
    const auto s = static_cast<std::size_t>(shard);
    engine.depth_gauges[s]->Set(static_cast<double>(engine.shards[s]->size()));
  }
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

  /// Shard the job was enqueued on; -1 until enqueued (inline-completed
  /// jobs never get one). Written once in Submit before the record is
  /// published to the shard.
  int shard_index = -1;

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
  if (record.shard_index >= 0) --engine.inflight;
  if (record.running) --engine.running;
  if (record.counted_inflight) {
    const auto it = engine.tenant_inflight.find(record.job.tenant);
    if (--it->second == 0) engine.tenant_inflight.erase(it);
  }
  PublishGaugesLocked(engine, record.shard_index);
}

std::size_t ShardForTenant(const std::string& tenant,
                           std::size_t shard_count) {
  // FNV-1a 64-bit: deterministic across platforms and standard-library
  // versions (std::hash is not), so tests and capacity planning can predict
  // tenant placement.
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : tenant) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h % (shard_count > 0 ? shard_count : 1));
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
  // Ring membership is the arbitration: workers pop shards WITHOUT the
  // engine mutex, so whichever path removes the record from its shard (this
  // Remove, a worker pop, Shutdown's sweep) is the unique completion owner.
  // Remove failing means a worker already claimed the job (it observes
  // `cancel` at dequeue or at its next iteration poll) or it completed.
  {
    const std::lock_guard<std::mutex> engine_lock(engine->mu);
    if (!engine->shards[static_cast<std::size_t>(record_->shard_index)]
             ->Remove(record_)) {
      return;
    }
    engine->queue_depth.fetch_sub(1, std::memory_order_relaxed);
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
  // One deque per worker. The hard ring bound is the global queue cap:
  // admission sheds at max_queue_depth total, so no single shard can ever
  // be asked to hold more (PushBack failing is an invariant violation, see
  // work_steal_deque.h). Per-shard depth gauges carry the worker index as
  // a label so dashboards can see placement skew (a flooding tenant's
  // shard) at a glance.
  state_->shards.reserve(static_cast<std::size_t>(worker_count_));
  state_->depth_gauges.reserve(static_cast<std::size_t>(worker_count_));
  for (int i = 0; i < worker_count_; ++i) {
    state_->shards.push_back(
        std::make_unique<WorkStealDeque<std::shared_ptr<JobRecord>>>(
            /*initial_capacity=*/8,
            /*max_capacity=*/options.max_queue_depth));
    state_->depth_gauges.push_back(obs::MetricRegistry::Global().GetGauge(
        "htdp_engine_worker_queue_depth", "Jobs queued on one worker's deque",
        {{"worker", std::to_string(i)}}));
  }
  workers_.reserve(static_cast<std::size_t>(worker_count_));
  for (int i = 0; i < worker_count_; ++i) {
    workers_.emplace_back([this, i] { WorkerMain(i); });
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
      // Shard choice: tenant-named jobs hash to a stable shard (tenant
      // isolation -- one tenant's burst queues on one deque and only
      // reaches other workers by stealing); untenanted jobs round-robin
      // for even placement.
      const std::size_t shard =
          record->job.tenant.empty()
              ? state_->rr_next.fetch_add(1, std::memory_order_relaxed) %
                    state_->shards.size()
              : engine_internal::ShardForTenant(record->job.tenant,
                                                state_->shards.size());
      record->shard_index = static_cast<int>(shard);
      ++state_->inflight;
      // Increment-before-push: a worker's pop (which runs without this
      // mutex) must never decrement queue_depth before the matching
      // increment, or the unsigned counter would transiently wrap. The
      // whole enqueue happens under `mu`, so work_cv waiters still cannot
      // observe the backlog without the predicate being true.
      state_->queue_depth.fetch_add(1, std::memory_order_relaxed);
      HTDP_CHECK(state_->shards[shard]->PushBack(record))
          << "shard " << shard << " over the admission-guaranteed bound";
      if (!record->job.tenant.empty() &&
          state_->max_inflight_per_tenant > 0) {
        ++state_->tenant_inflight[record->job.tenant];
        record->counted_inflight = true;
      }
      engine_internal::PublishGaugesLocked(*state_, record->shard_index);
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
    const std::size_t depth =
        state_->queue_depth.load(std::memory_order_relaxed);
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

std::shared_ptr<JobRecord> Engine::DequeueWork(int worker_index) {
  auto& shards = state_->shards;
  std::shared_ptr<JobRecord> record;
  // Own shard first, LIFO: the most recently queued job's problem/spec are
  // still warm, and a worker keeps servicing its own submissions without
  // touching anyone else's lock.
  if (shards[static_cast<std::size_t>(worker_index)]->PopBack(&record)) {
    state_->queue_depth.fetch_sub(1, std::memory_order_relaxed);
    return record;
  }
  if (state_->queue_depth.load(std::memory_order_relaxed) == 0) {
    return nullptr;  // genuinely idle, not a failed steal
  }
  // Backlog exists elsewhere: sweep the other shards FIFO (oldest job
  // first, preserving rough submission order for stolen work). A sweep that
  // comes up empty -- every observed job was claimed by its owner or
  // another thief first -- counts as one steal failure; it is contention
  // telemetry, not an error.
  for (int k = 1; k < worker_count_; ++k) {
    const int victim = (worker_index + k) % worker_count_;
    if (shards[static_cast<std::size_t>(victim)]->PopFront(&record)) {
      state_->queue_depth.fetch_sub(1, std::memory_order_relaxed);
      engine_internal::Count(*state_, Bucket::kStolen);
      return record;
    }
  }
  engine_internal::Count(*state_, Bucket::kStealFailures);
  return nullptr;
}

void Engine::WorkerMain(int worker_index) {
  for (;;) {
    std::shared_ptr<JobRecord> record = DequeueWork(worker_index);
    if (record == nullptr) {
      std::unique_lock<std::mutex> lock(state_->mu);
      state_->work_cv.wait(lock, [&] {
        return state_->stop ||
               state_->queue_depth.load(std::memory_order_relaxed) > 0;
      });
      if (state_->stop &&
          state_->queue_depth.load(std::memory_order_relaxed) == 0) {
        return;  // Shutdown swept the shards; nothing left to run
      }
      continue;
    }
    // The pop made this worker the record's unique completion owner (ring
    // membership, see EngineShared). A job cancelled, or whose deadline
    // expired, while it sat queued is shed right here -- the worker moves on
    // to the next job instead of spinning up a fit that could only report
    // kCancelled or kDeadlineExceeded. Otherwise the worker claims it.
    bool claimed = false;
    {
      const std::lock_guard<std::mutex> lock(state_->mu);
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
        engine_internal::PublishGaugesLocked(*state_, record->shard_index);
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
  // `inflight` counts every enqueued job until its completion is published
  // -- including the window where a worker has popped a job but not yet
  // claimed it as running, which no (queue empty && running == 0) predicate
  // could cover under lock-free pops.
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->idle_cv.wait(lock, [&] { return state_->inflight == 0; });
}

void Engine::Shutdown() {
  // Serializes concurrent Shutdown() callers (incl. the destructor) so the
  // join below runs exactly once.
  const std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  {
    const std::lock_guard<std::mutex> lock(state_->mu);
    if (state_->stop && workers_.empty()) return;  // already shut down
    state_->stop = true;
    // Sweep every shard and finish the orphans while still holding the
    // engine mutex: draining a ring makes this path each orphan's unique
    // completion owner, and the results are published before `inflight`
    // drains out of Drain()'s predicate. Jobs already popped by a worker
    // are not orphans -- the join below waits for them to finish.
    for (const auto& shard : state_->shards) {
      for (const std::shared_ptr<JobRecord>& record : shard->DrainAll()) {
        // fetch_sub, not store: a worker's concurrent pop may be
        // decrementing the same counter for a job this sweep never saw.
        state_->queue_depth.fetch_sub(1, std::memory_order_relaxed);
        FinishLocked(*state_, *record,
                     Status::Cancelled(record->Describe() +
                                       " cancelled by Engine shutdown"),
                     Bucket::kCancelled);
      }
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
  const auto count = [&](Bucket bucket) {
    return state_->counts[bucket].load(std::memory_order_relaxed);
  };
  stats.submitted = count(Bucket::kSubmitted);
  stats.completed = count(Bucket::kCompleted);
  stats.succeeded = count(Bucket::kSucceeded);
  stats.failed = count(Bucket::kFailed);
  stats.cancelled = count(Bucket::kCancelled);
  stats.deadline_exceeded = count(Bucket::kDeadlineExceeded);
  stats.budget_rejected = count(Bucket::kBudgetRejected);
  stats.unavailable_rejected = count(Bucket::kShed);
  stats.shed_expired = count(Bucket::kShedExpired);
  stats.queue_depth = state_->queue_depth.load(std::memory_order_relaxed);
  stats.running = state_->running;
  stats.steals = count(Bucket::kStolen);
  stats.steal_failures = count(Bucket::kStealFailures);
  stats.overloaded = state_->overloaded;
  stats.worker_queue_depths.reserve(state_->shards.size());
  for (const auto& shard : state_->shards) {
    stats.worker_queue_depths.push_back(shard->size());
  }
  stats.uptime_seconds = obs::MonotonicSeconds() - state_->start_seconds;
  stats.jobs_per_second = stats.uptime_seconds > 0.0
                              ? static_cast<double>(stats.completed) /
                                    stats.uptime_seconds
                              : 0.0;
  return stats;
}

std::uint32_t Engine::SuggestedRetryAfterMs() const {
  const std::lock_guard<std::mutex> lock(state_->mu);
  return RetryAfterHintMs(
      state_->queue_depth.load(std::memory_order_relaxed) + state_->running,
      worker_count_);
}

}  // namespace htdp
