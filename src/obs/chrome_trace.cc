#include "obs/chrome_trace.h"

#include <cinttypes>
#include <cstdio>

#include "util/simd.h"

namespace htdp {
namespace obs {
namespace {

/// Span names are compile-time literals under our control, but the escape
/// keeps the serializer safe if someone ever routes a dynamic immortal
/// string through RecordSpan.
void AppendJsonEscaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    char c = *s;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// ts/dur are microseconds; emit ns precision as fixed 3-decimal values
/// so the JSON stays locale-independent and byte-stable.
void AppendMicros(std::string& out, std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  out += buf;
}

}  // namespace

std::string SerializeChromeTrace(const std::vector<ThreadTrace>& threads,
                                 int worker_threads) {
  std::string out;
  out.reserve(256 + threads.size() * 4096);
  out += "{\"traceEvents\":[";
  bool first = true;
  auto comma = [&] {
    if (!first) out += ',';
    first = false;
  };
  for (const ThreadTrace& thread : threads) {
    char buf[128];
    comma();
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%u,\"args\":{\"name\":\"htdp-thread-%u\"}}",
                  thread.tid, thread.tid);
    out += buf;
    if (thread.dropped > 0) {
      comma();
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"spans_dropped\",\"ph\":\"C\",\"pid\":1,"
                    "\"tid\":%u,\"ts\":0,\"args\":{\"dropped\":%" PRIu64 "}}",
                    thread.tid, thread.dropped);
      out += buf;
    }
    for (const Span& span : thread.spans) {
      comma();
      out += "{\"name\":\"";
      AppendJsonEscaped(out, span.name);
      out += "\",\"cat\":\"htdp\",\"ph\":\"X\",\"pid\":1,\"tid\":";
      std::snprintf(buf, sizeof(buf), "%u", thread.tid);
      out += buf;
      out += ",\"ts\":";
      AppendMicros(out, span.start_ns);
      out += ",\"dur\":";
      std::uint64_t dur_ns =
          span.end_ns >= span.start_ns ? span.end_ns - span.start_ns : 0;
      AppendMicros(out, dur_ns);
      out += '}';
    }
  }
  // otherData rides at the top level of the object form (ignored by the
  // trace UIs, kept by archive tooling): the ISA the kernel dispatcher
  // actually selected on this host and the fit-thread count, so two
  // captures of the same workload are attributable to their runtime config.
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "],\"otherData\":{\"simd\":\"%s\",\"threads\":%d},"
                "\"displayTimeUnit\":\"ms\"}",
                SimdEnabled() ? SimdInfo().isa : "off", worker_threads);
  out += buf;
  return out;
}

std::string DumpChromeTrace(int worker_threads) {
  return SerializeChromeTrace(CollectTrace(), worker_threads);
}

}  // namespace obs
}  // namespace htdp
