#ifndef HTDP_OBS_CHROME_TRACE_H_
#define HTDP_OBS_CHROME_TRACE_H_

#include <string>
#include <vector>

#include "obs/trace.h"

namespace htdp {
namespace obs {

/// Serializes collected thread traces as Chrome trace-event JSON -- the
/// object form `{"traceEvents": [...]}` that chrome://tracing and Perfetto
/// load directly. Every span becomes a complete ("ph":"X") event with
/// microsecond `ts`/`dur` (fractional, so nanosecond precision survives);
/// each thread gets a thread_name metadata event, and dropped-span counts
/// are surfaced as a counter event so truncation is visible in the UI.
/// The top-level `otherData` object tags the capture with the runtime SIMD
/// ISA actually dispatched and `worker_threads` (htdpd's Engine workers),
/// so archived traces from different machines or settings stay apart.
std::string SerializeChromeTrace(const std::vector<ThreadTrace>& threads,
                                 int worker_threads);

/// CollectTrace() + SerializeChromeTrace() in one call -- what the daemon's
/// METRICS(trace) handler and tests use.
std::string DumpChromeTrace(int worker_threads);

}  // namespace obs
}  // namespace htdp

#endif  // HTDP_OBS_CHROME_TRACE_H_
