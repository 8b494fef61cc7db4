#ifndef HTDP_OBS_TRACE_H_
#define HTDP_OBS_TRACE_H_

/// ## obs::trace -- thread-local ring-buffer span tracing
///
/// Design contract (ROADMAP open item 4):
///   - Record path does zero heap allocation: each thread owns a
///     fixed-capacity ring of POD Span records, drop-oldest on overflow
///     (the ring keeps the most recent window; `dropped` counts the rest).
///   - One coarse clock read per span edge (obs/clock.h NowNanos()).
///   - `HTDP_TRACE_SPAN("name")` is always compiled in; runtime-disabled,
///     it costs one relaxed atomic load -- the <1% BM_RobustGradient budget
///     holds with margin.
///   - Span names MUST be string literals (or otherwise immortal): the ring
///     stores the `const char*`, never a copy.
///
/// Collection is cross-thread: every thread buffer self-registers in a
/// process-wide registry; CollectTrace() snapshots them all under each
/// buffer's own mutex. Record contends on that same per-buffer mutex, but
/// only with a collector -- never with other recording threads -- so the
/// enabled hot path is an uncontended lock plus two stores.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/clock.h"

namespace htdp {
namespace obs {

/// One closed span. POD; lives in the per-thread ring.
struct Span {
  const char* name;        ///< static string literal, not owned
  std::uint64_t start_ns;  ///< obs::NowNanos() at open
  std::uint64_t end_ns;    ///< obs::NowNanos() at close
  std::uint32_t depth;     ///< nesting depth at open (0 = top level)
};

/// Everything one thread recorded, in oldest -> newest order.
struct ThreadTrace {
  std::uint32_t tid = 0;        ///< process-local sequential thread id
  std::uint64_t dropped = 0;    ///< spans evicted by ring wraparound
  std::vector<Span> spans;
};

/// Runtime toggle. Off by default in-process; htdpd turns it on at boot
/// (unless --trace=off). Relaxed load on the record path.
bool TraceEnabled();
void SetTraceEnabled(bool enabled);

/// Ring capacity (spans per thread) for buffers created AFTER the call.
/// Existing thread rings keep their size. Default 4096.
void SetTraceCapacity(std::size_t capacity);
std::size_t TraceCapacity();

/// Records a span retroactively from timestamps taken elsewhere (e.g. the
/// engine's queue-wait span: submit stamps start, dequeue stamps end).
/// No-op when tracing is disabled. `name` must be immortal.
void RecordSpan(const char* name, std::uint64_t start_ns,
                std::uint64_t end_ns);

/// Snapshot of every registered thread ring (exited threads included --
/// the registry keeps rings alive). Does not clear anything.
std::vector<ThreadTrace> CollectTrace();

/// Empties every ring and zeroes drop counters. Buffers stay registered.
void ClearTrace();

/// Current thread's nesting depth (open HTDP_TRACE_SPAN guards). Tests use
/// this; instrumented code should not.
std::uint32_t CurrentSpanDepth();

/// RAII guard behind HTDP_TRACE_SPAN. Stamps start_ns at construction,
/// records the closed span at destruction. If tracing is disabled at
/// construction the guard is inert (destruction records nothing, even if
/// tracing was enabled meanwhile -- a half-stamped span would be garbage).
class SpanGuard {
 public:
  explicit SpanGuard(const char* name);
  ~SpanGuard();

  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  const char* name_;  ///< nullptr = inert
  std::uint64_t start_ns_;
  std::uint32_t depth_;
};

#define HTDP_OBS_CONCAT_INNER(a, b) a##b
#define HTDP_OBS_CONCAT(a, b) HTDP_OBS_CONCAT_INNER(a, b)

/// Opens a span covering the rest of the enclosing scope. `name` must be a
/// string literal. Usable multiple times per scope (line-numbered symbol).
#define HTDP_TRACE_SPAN(name) \
  ::htdp::obs::SpanGuard HTDP_OBS_CONCAT(htdp_obs_span_, __LINE__)(name)

}  // namespace obs
}  // namespace htdp

#endif  // HTDP_OBS_TRACE_H_
