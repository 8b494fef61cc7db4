#ifndef HTDP_UTIL_PARALLEL_H_
#define HTDP_UTIL_PARALLEL_H_

#include <cstddef>

namespace htdp {

/// The default Engine size: the CPUs in the process's affinity mask
/// (hardware_concurrency where there is none), capped at 16. Read once. It
/// sizes an Engine built with Options::workers == 0 and, through
/// ParallelFor, the process-wide Engine that serves dispatches from threads
/// that are not Engine workers; `taskset -c 0 prog` makes direct fits
/// serial.
int NumWorkerThreads();

/// The largest worker count htdpd --workers accepts.
inline constexpr int kMaxWorkerThreads = 256;

/// Below this many items a cheap-per-item loop is not worth dispatching;
/// ParallelFor's default threshold. Callers whose items are
/// individually expensive (a chunk of samples, a matrix row block) should
/// pass an explicit lower threshold.
inline constexpr std::size_t kParallelForSerialThreshold = 4096;

/// Half-open index range [begin, end).
struct IndexRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// The boundaries of chunk `chunk` when [0, count) is split into `chunks`
/// contiguous parts. Sizes differ by at most one (floor division with the
/// remainder spread over the leading chunks), so no chunk is ever empty when
/// chunks <= count. Requires chunk < chunks and chunks >= 1.
IndexRange ParallelChunkBounds(std::size_t count, std::size_t chunks,
                               std::size_t chunk);

namespace parallel_internal {

/// The number of threads a ParallelFor called on the current thread may
/// use: 1 inside a chunk, the worker count of its Engine on an Engine
/// worker, and NumWorkerThreads() on any other thread (the caller plus the
/// process-wide Engine's workers). Defined in api/engine.cc.
int DispatchThreads();

/// Runs task(ctx, t) for every t in [0, tasks) on the calling thread and
/// on idle Engine workers; blocks until all tasks completed. Requires
/// tasks >= 2 and a caller outside any chunk, as ParallelFor ensures.
/// Performs no heap allocation once the process-wide Engine exists.
/// Defined in api/engine.cc, which owns the threads.
void RunChunks(std::size_t tasks, void (*task)(void* ctx, std::size_t t),
               void* ctx);

}  // namespace parallel_internal

/// Runs `body(begin, end)` over [0, count), statically chunked across
/// threads. `body` receives a half-open index range and must be safe to run
/// concurrently on disjoint ranges. Falls back to a serial call when count <
/// min_parallel or DispatchThreads() is 1. The chunks run on the Engine's
/// job workers, the only threads htdp keeps: a call made on an Engine
/// worker is split into min(count, that Engine's workers) chunks and
/// published on that Engine, and a call from any other thread into
/// min(count, NumWorkerThreads()) chunks on one process-wide Engine of
/// NumWorkerThreads() - 1 workers, created on the first such call. The
/// caller runs chunks itself and idle workers of that Engine claim the
/// rest; a worker starts a queued job before it claims chunks. No heap
/// allocation per dispatch, so hot loops can call this every iteration.
/// The call blocks until all chunks complete. Chunk boundaries are a
/// deterministic function of (count, DispatchThreads()) only -- never of
/// scheduling or of which thread runs a chunk -- and cover [0, count)
/// exactly once with no empty chunk. A call never waits for another call
/// to finish: the caller waits only for chunks that other workers already
/// started. Nested calls from inside a chunk run serially.
template <typename Body>
void ParallelFor(std::size_t count, const Body& body,
                 std::size_t min_parallel = kParallelForSerialThreshold) {
  if (count == 0) return;
  const int workers = parallel_internal::DispatchThreads();
  if (workers <= 1 || count < min_parallel || count < 2) {
    body(std::size_t{0}, count);
    return;
  }
  // chunks <= count, so ParallelChunkBounds never yields an empty chunk.
  const std::size_t chunks =
      count < static_cast<std::size_t>(workers)
          ? count
          : static_cast<std::size_t>(workers);
  struct Context {
    const Body* body;
    std::size_t count;
    std::size_t chunks;
  } context{&body, count, chunks};
  parallel_internal::RunChunks(
      chunks,
      [](void* ctx, std::size_t c) {
        const Context& context = *static_cast<const Context*>(ctx);
        const IndexRange range =
            ParallelChunkBounds(context.count, context.chunks, c);
        (*context.body)(range.begin, range.end);
      },
      &context);
}

}  // namespace htdp

#endif  // HTDP_UTIL_PARALLEL_H_
