// htdp_perfbench: one workload of the repo benchmark per invocation.
//
//   htdp_perfbench --workload figure_sweep|heavy_tail_pinned|serve_loopback
//                  --seed N --seconds S --trace 0|1
//                  [--git-rev REV] [--trace-out FILE]
//
// Prints a run header, human-readable report lines, and as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits non-zero when any output check fails.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench_common.h"
#include "util/parallel.h"
#include "util/simd.h"
#include "workloads.h"

namespace {

using namespace htdp;
using namespace htdp::perfbench;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload figure_sweep|heavy_tail_pinned|"
               "serve_loopback --seed N --seconds S --trace 0|1 "
               "[--git-rev REV] [--trace-out FILE]\n",
               argv0);
  return 2;
}

// Chrome trace-event JSON of the replay spans (chrome://tracing, Perfetto).
void WriteTrace(const std::string& path, const RunOutput& out) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  const std::uint64_t origin =
      out.spans.empty() ? 0 : out.spans.front().second.start_ns;
  std::fprintf(file, "{\"traceEvents\": [");
  for (std::size_t i = 0; i < out.spans.size(); ++i) {
    const auto& [solver, span] = out.spans[i];
    std::fprintf(file,
                 "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f}",
                 i == 0 ? "" : ",", LayerMetric(span.layer), solver.c_str(),
                 1e-3 * static_cast<double>(span.start_ns - origin),
                 1e-3 * static_cast<double>(span.end_ns - span.start_ns));
  }
  std::fprintf(file, "\n]}\n");
  std::fclose(file);
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string git_rev = "unknown";
  std::string trace_out;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = value == "1" ? 1 : value == "0" ? 0 : -1;
    } else if (flag == "--git-rev") {
      git_rev = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || trace < 0 || !(config.seconds > 0.0) ||
      (config.workload != "figure_sweep" &&
       config.workload != "heavy_tail_pinned" &&
       config.workload != "serve_loopback")) {
    return Usage(argv[0]);
  }
  config.trace = trace == 1;

  const int threads = NumWorkerThreads();
  std::printf(
      "# header {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"git_rev\": \"%s\", \"hw_cores\": %u, \"simd\": "
      "\"%s\", \"simd_lanes\": %d, \"simd_compiled\": \"%s\", "
      "\"parallel_for_threads\": %d, \"engine_workers\": %d, "
      "\"rate_ladder\": \"%s\"}\n",
      config.workload.c_str(), static_cast<unsigned long long>(config.seed),
      config.seconds, trace, git_rev.c_str(),
      std::thread::hardware_concurrency(), bench::SimdTag(),
      SimdInfo().lanes, SimdInfo().compiled_isa, threads, threads,
      config.workload == "serve_loopback" ? ServeRateLadder().c_str() : "");
  std::fflush(stdout);

  RunOutput out;
  if (config.workload == "serve_loopback") {
    RunServeWorkload(config, out);
  } else {
    RunEngineWorkload(config, config.workload == "heavy_tail_pinned", out);
  }
  if (!trace_out.empty() && config.trace) WriteTrace(trace_out, out);

  const Outcomes& o = out.outcomes;
  for (const std::string& note : out.notes) std::printf("# %s\n", note.c_str());
  for (const std::string& error : o.first_errors) {
    std::printf("# FAILED %s\n", error.c_str());
  }
  std::printf("# failed_frac %.6f (%zu of %zu fits failed, refused or wrong)\n",
              o.attempted == 0 ? 1.0
                               : static_cast<double>(o.failed) /
                                     static_cast<double>(o.attempted),
              o.failed, o.attempted);
  out.metrics.Print("#");
  const bool correct =
      o.attempted > 0 && o.failed == 0 && out.metrics.AllFinite();
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", o.attempted, o.failed,
              out.metrics.ToJson().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
