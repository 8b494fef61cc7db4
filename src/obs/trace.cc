#include "obs/trace.h"

#include <atomic>
#include <memory>
#include <mutex>

namespace htdp {
namespace obs {
namespace {

std::atomic<bool> g_trace_enabled{false};
std::atomic<std::size_t> g_trace_capacity{4096};

/// One thread's fixed ring. Created lazily on that thread's first record,
/// registered globally, kept alive by the registry past thread exit so a
/// late CollectTrace() still sees short-lived worker threads' spans.
///
/// The mutex is per-buffer: the owning thread (records) only ever contends
/// with a collector (snapshot/clear), so the record path's lock is
/// uncontended in steady state.
struct ThreadBuffer {
  explicit ThreadBuffer(std::uint32_t id, std::size_t capacity)
      : tid(id), ring(capacity > 0 ? capacity : 1) {}

  void Record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
              std::uint32_t depth) {
    std::lock_guard<std::mutex> lock(mu);
    Span& slot = ring[next];
    if (count == ring.size()) {
      ++dropped;  // overwrote the oldest span
    } else {
      ++count;
    }
    slot.name = name;
    slot.start_ns = start_ns;
    slot.end_ns = end_ns;
    slot.depth = depth;
    next = (next + 1) % ring.size();
  }

  ThreadTrace Snapshot() {
    std::lock_guard<std::mutex> lock(mu);
    ThreadTrace out;
    out.tid = tid;
    out.dropped = dropped;
    out.spans.reserve(count);
    // Oldest span sits at `next` once the ring has wrapped, at 0 before.
    std::size_t start = (count == ring.size()) ? next : 0;
    for (std::size_t i = 0; i < count; ++i) {
      out.spans.push_back(ring[(start + i) % ring.size()]);
    }
    return out;
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu);
    count = 0;
    next = 0;
    dropped = 0;
  }

  std::mutex mu;
  const std::uint32_t tid;
  std::vector<Span> ring;  // sized once at construction, never resized
  std::size_t count = 0;   // valid spans currently held
  std::size_t next = 0;    // slot the next record writes
  std::uint64_t dropped = 0;
};

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::uint32_t next_tid = 1;
};

Registry& GlobalRegistry() {
  static Registry* registry = new Registry();  // immortal: threads may
  return *registry;                            // record during exit
}

thread_local std::shared_ptr<ThreadBuffer> t_buffer;
thread_local std::uint32_t t_depth = 0;

ThreadBuffer& LocalBuffer() {
  if (!t_buffer) {
    Registry& registry = GlobalRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    t_buffer = std::make_shared<ThreadBuffer>(
        registry.next_tid++, g_trace_capacity.load(std::memory_order_relaxed));
    registry.buffers.push_back(t_buffer);
  }
  return *t_buffer;
}

}  // namespace

bool TraceEnabled() {
  return g_trace_enabled.load(std::memory_order_relaxed);
}

void SetTraceEnabled(bool enabled) {
  g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

void SetTraceCapacity(std::size_t capacity) {
  g_trace_capacity.store(capacity > 0 ? capacity : 1,
                         std::memory_order_relaxed);
}

std::size_t TraceCapacity() {
  return g_trace_capacity.load(std::memory_order_relaxed);
}

void RecordSpan(const char* name, std::uint64_t start_ns,
                std::uint64_t end_ns) {
  if (!TraceEnabled()) return;
  LocalBuffer().Record(name, start_ns, end_ns, t_depth);
}

std::vector<ThreadTrace> CollectTrace() {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    Registry& registry = GlobalRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    buffers = registry.buffers;
  }
  std::vector<ThreadTrace> out;
  out.reserve(buffers.size());
  for (const auto& buffer : buffers) {
    ThreadTrace trace = buffer->Snapshot();
    if (!trace.spans.empty() || trace.dropped > 0) {
      out.push_back(std::move(trace));
    }
  }
  return out;
}

void ClearTrace() {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    Registry& registry = GlobalRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    buffers = registry.buffers;
  }
  for (const auto& buffer : buffers) buffer->Clear();
}

std::uint32_t CurrentSpanDepth() { return t_depth; }

SpanGuard::SpanGuard(const char* name) {
  if (!TraceEnabled()) {
    name_ = nullptr;
    return;
  }
  name_ = name;
  depth_ = t_depth++;
  start_ns_ = NowNanos();
}

SpanGuard::~SpanGuard() {
  if (name_ == nullptr) return;
  std::uint64_t end_ns = NowNanos();
  --t_depth;
  LocalBuffer().Record(name_, start_ns_, end_ns, depth_);
}

}  // namespace obs
}  // namespace htdp
