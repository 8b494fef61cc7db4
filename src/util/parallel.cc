#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "util/check.h"

namespace htdp {
namespace {

int DetectWorkerThreads() {
  if (const char* env = std::getenv("HTDP_NUM_THREADS")) {
    int parsed = std::atoi(env);
    if (parsed >= 1) return parsed;
  }
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return static_cast<int>(std::min<unsigned>(hw, 16));
}

// True while the current thread is executing a pool task; nested ParallelFor
// calls then run serially instead of deadlocking on the pool.
thread_local bool t_inside_pool_task = false;

/// Persistent worker pool. Helper threads start lazily on the first dispatch
/// and live for the process lifetime. A dispatch publishes the job under the
/// mutex and hands out task indices through a single atomic whose high bits
/// carry the dispatch generation: a helper that wakes late (after the job
/// already finished, possibly after a new one started) fails the generation
/// check on its first claim attempt and goes back to sleep without ever
/// touching the stale job's context. No allocation happens per dispatch, so
/// solver hot loops can dispatch every iteration.
class WorkerPool {
 public:
  static WorkerPool& Instance() {
    static WorkerPool pool(NumWorkerThreads() - 1);
    return pool;
  }

  /// Runs task(ctx, t) for every t in [0, tasks) on the helpers plus the
  /// calling thread; blocks until all tasks completed. The pool serves one
  /// Run() at a time: a caller that finds it busy runs its tasks inline
  /// rather than waiting behind the current dispatch.
  void Run(std::size_t tasks, void (*task)(void*, std::size_t), void* ctx) {
    if (tasks == 0) return;
    std::unique_lock<std::mutex> run_lock(run_mu_, std::defer_lock);
    if (helpers_wanted_ == 0 || tasks == 1 || t_inside_pool_task ||
        !run_lock.try_lock()) {
      for (std::size_t t = 0; t < tasks; ++t) task(ctx, t);
      return;
    }
    HTDP_CHECK_LT(tasks, std::size_t{1} << 32);
    EnsureStarted();

    std::uint64_t generation;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      task_ = task;
      ctx_ = ctx;
      tasks_ = tasks;
      generation = ++generation_;
      claim_.store(generation << 32, std::memory_order_release);
      completed_.store(0, std::memory_order_release);
    }
    wake_cv_.notify_all();

    // The caller participates in the same claim loop as the helpers. Mark
    // it as inside a pool task so a nested ParallelFor from the body runs
    // serially instead of re-entering run_mu_. If the body throws on the
    // caller thread, Work() has already counted the failed task as
    // completed, so waiting for full completion below stays safe -- the
    // helpers drain the remaining claims against this still-live stack
    // frame before the exception leaves Run(). (A body throwing on a helper
    // thread terminates the process, as the per-call std::thread
    // implementation did.)
    t_inside_pool_task = true;
    try {
      Work(generation, task, ctx, tasks);
    } catch (...) {
      t_inside_pool_task = false;
      AwaitCompletion();
      throw;
    }
    t_inside_pool_task = false;
    AwaitCompletion();
  }

  ~WorkerPool() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_cv_.notify_all();
    for (std::thread& helper : helpers_) helper.join();
  }

 private:
  explicit WorkerPool(int helpers_wanted)
      : helpers_wanted_(std::max(helpers_wanted, 0)) {}

  void EnsureStarted() {
    if (started_) return;
    helpers_.reserve(static_cast<std::size_t>(helpers_wanted_));
    for (int i = 0; i < helpers_wanted_; ++i) {
      helpers_.emplace_back([this] { HelperMain(); });
    }
    started_ = true;
  }

  /// Claims and executes tasks of dispatch `generation` until none remain
  /// or a newer dispatch superseded it.
  void Work(std::uint64_t generation, void (*task)(void*, std::size_t),
            void* ctx, std::size_t tasks) {
    const std::uint64_t tag = generation << 32;
    std::uint64_t claim = claim_.load(std::memory_order_acquire);
    for (;;) {
      // Stop on a stale generation (the job is gone) or exhausted indices.
      if ((claim >> 32) != (generation & 0xffffffffu)) return;
      const std::size_t index = static_cast<std::size_t>(claim & 0xffffffffu);
      if (index >= tasks) return;
      if (!claim_.compare_exchange_weak(claim, tag | (index + 1),
                                        std::memory_order_acq_rel)) {
        continue;  // lost the race; `claim` was reloaded
      }
      try {
        task(ctx, index);
      } catch (...) {
        FinishTask(tasks);  // keep the completion count exact
        throw;
      }
      FinishTask(tasks);
      claim = claim_.load(std::memory_order_acquire);
    }
  }

  void FinishTask(std::size_t tasks) {
    if (completed_.fetch_add(1, std::memory_order_acq_rel) + 1 == tasks) {
      // Last task done: wake the caller. Taking the lock orders the
      // notification against the caller's predicate wait.
      { const std::lock_guard<std::mutex> lock(mu_); }
      done_cv_.notify_all();
    }
  }

  void AwaitCompletion() {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
      return completed_.load(std::memory_order_acquire) == tasks_;
    });
  }

  void HelperMain() {
    t_inside_pool_task = true;  // nested ParallelFor in a task runs serially
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      wake_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      void (*task)(void*, std::size_t) = task_;
      void* ctx = ctx_;
      const std::size_t tasks = tasks_;
      lock.unlock();
      Work(seen, task, ctx, tasks);
      lock.lock();
    }
  }

  const int helpers_wanted_;
  bool started_ = false;
  std::vector<std::thread> helpers_;

  std::mutex run_mu_;  // held by the one Run() that owns the helpers

  std::mutex mu_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  void (*task_)(void*, std::size_t) = nullptr;
  void* ctx_ = nullptr;
  std::size_t tasks_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;

  /// generation << 32 | next-unclaimed-index. The tag makes a claim by a
  /// stale helper impossible: its CAS expects its own generation in the high
  /// bits and fails once a newer dispatch overwrote them.
  std::atomic<std::uint64_t> claim_{0};
  std::atomic<std::size_t> completed_{0};
};

}  // namespace

int NumWorkerThreads() {
  static const int kWorkers = DetectWorkerThreads();
  return kWorkers;
}

IndexRange ParallelChunkBounds(std::size_t count, std::size_t chunks,
                               std::size_t chunk) {
  HTDP_CHECK_GE(chunks, 1u);
  HTDP_CHECK_LT(chunk, chunks);
  const std::size_t base = count / chunks;
  const std::size_t remainder = count % chunks;
  const std::size_t begin = chunk * base + std::min(chunk, remainder);
  const std::size_t end = begin + base + (chunk < remainder ? 1 : 0);
  return IndexRange{begin, end};
}

namespace parallel_internal {

void PoolRun(std::size_t tasks, void (*task)(void*, std::size_t), void* ctx) {
  WorkerPool::Instance().Run(tasks, task, ctx);
}

}  // namespace parallel_internal

}  // namespace htdp
