// htdpd -- the htdp fit daemon.
//
// Binds a TCP socket, prints "htdpd listening on HOST:PORT" (how scripts
// discover a --port=0 ephemeral port), and serves the htdpd protocol
// (docs/protocol.md) until SIGINT/SIGTERM. The first signal drains
// gracefully -- stop accepting, finish in-flight fits, flush result frames,
// exit 0; a second signal hard-exits with status 130 for operators who want
// out NOW.
//
// Usage:
//   htdpd [--host=H] [--port=P] [--workers=N] [--idle-timeout=SECONDS]
//         [--max-frame-mb=M] [--tenant NAME=EPS[,DELTA]]...
//         [--queue-cap=K] [--queue-resume=K] [--max-inflight-per-tenant=K]
//         [--max-connections=K] [--write-buffer-mb=M] [--read-deadline=SECS]
//         [--trace=on|off] [--trace-capacity=SPANS]
//         [--state-dir=DIR] [--fsync=always|batch|off]
//
// Numeric flags parse strictly (daemon/server.h ParseFlag): a malformed,
// negative or out-of-range value -- --port=70000, --max-frame-mb=-1 --
// exits 1 with a message naming the flag instead of wrapping silently.
// --workers takes at most kMaxWorkerThreads (util/parallel.h); 0 keeps the
// default, NumWorkerThreads(). The workers also run the ParallelFor chunks
// of the fits, and a fit's loops split into up to N chunks, so
// --workers=N means N fit threads in all.
//
// --state-dir makes the privacy-budget ledger durable: every reservation,
// commit, and refund is journaled write-ahead under DIR, and a restart on
// the same DIR recovers the exact committed spend (docs/durability.md).
// --fsync trades journal latency against power-loss durability; it only
// matters with --state-dir.
//
// Tracing defaults ON in the daemon (the runtime-enabled record path is a
// bounded per-thread ring, <1% overhead); --trace=off flips the runtime
// toggle, leaving the METRICS request serving empty traces.
//
// Chaos: set HTDP_FAULT_PLAN (e.g. "seed=7,drop=0.03,truncate=0.03") to
// inject deterministic wire faults into every connection's writes.

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "daemon/server.h"
#include "obs/trace.h"
#include "util/parallel.h"

namespace {

std::atomic<htdp::daemon::Server*> g_server{nullptr};

void HandleSignal(int) {
  htdp::daemon::Server* server = g_server.load(std::memory_order_acquire);
  if (server == nullptr) std::_Exit(130);
  if (server->OnSignal() == htdp::daemon::SignalAction::kHardExit) {
    // Only async-signal-safe calls on this path.
    std::_Exit(130);
  }
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: htdpd [--host=H] [--port=P] [--workers=N]\n"
      "             [--idle-timeout=SECONDS] [--max-frame-mb=M]\n"
      "             [--tenant NAME=EPS[,DELTA]]...\n"
      "             [--queue-cap=K] [--queue-resume=K]\n"
      "             [--max-inflight-per-tenant=K] [--max-connections=K]\n"
      "             [--write-buffer-mb=M] [--read-deadline=SECONDS]\n"
      "             [--trace=on|off] [--trace-capacity=SPANS]\n"
      "             [--state-dir=DIR] [--fsync=always|batch|off]\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using htdp::daemon::FlagValue;
  using htdp::daemon::ParseFlag;
  using htdp::daemon::ParseMegabytesFlag;
  using htdp::daemon::ParseUintFlag;
  htdp::daemon::ServerOptions options;
  bool trace = true;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    htdp::Status parsed = htdp::Status::Ok();
    if (FlagValue(argv[i], "--host", &value)) {
      options.host = value;
    } else if (FlagValue(argv[i], "--port", &value)) {
      parsed = ParseFlag("--port", value, &options.port);
    } else if (FlagValue(argv[i], "--workers", &value)) {
      std::uint64_t workers = 0;
      parsed = ParseUintFlag("--workers", value, htdp::kMaxWorkerThreads,
                             &workers);
      if (parsed.ok()) options.engine_workers = static_cast<int>(workers);
    } else if (FlagValue(argv[i], "--idle-timeout", &value)) {
      parsed =
          ParseFlag("--idle-timeout", value, &options.idle_timeout_seconds);
    } else if (FlagValue(argv[i], "--max-frame-mb", &value)) {
      parsed = ParseMegabytesFlag("--max-frame-mb", value,
                                  &options.max_payload_bytes);
    } else if (FlagValue(argv[i], "--queue-cap", &value)) {
      parsed = ParseFlag("--queue-cap", value, &options.max_queue_depth);
    } else if (FlagValue(argv[i], "--queue-resume", &value)) {
      parsed = ParseFlag("--queue-resume", value, &options.queue_resume_depth);
    } else if (FlagValue(argv[i], "--max-inflight-per-tenant", &value)) {
      parsed = ParseFlag("--max-inflight-per-tenant", value,
                         &options.max_inflight_per_tenant);
    } else if (FlagValue(argv[i], "--max-connections", &value)) {
      parsed = ParseFlag("--max-connections", value, &options.max_connections);
    } else if (FlagValue(argv[i], "--write-buffer-mb", &value)) {
      parsed = ParseMegabytesFlag("--write-buffer-mb", value,
                                  &options.max_write_buffer_bytes);
    } else if (FlagValue(argv[i], "--read-deadline", &value)) {
      parsed =
          ParseFlag("--read-deadline", value, &options.read_deadline_seconds);
    } else if (FlagValue(argv[i], "--state-dir", &value)) {
      options.state_dir = value;
    } else if (FlagValue(argv[i], "--fsync", &value)) {
      htdp::StatusOr<htdp::dp::FsyncPolicy> policy =
          htdp::dp::ParseFsyncPolicy(value);
      parsed = policy.status();
      if (policy.ok()) options.fsync = policy.value();
    } else if (FlagValue(argv[i], "--trace", &value)) {
      if (value == "on") {
        trace = true;
      } else if (value == "off") {
        trace = false;
      } else {
        parsed = htdp::Status::InvalidProblem(
            "--trace wants on|off, got \"" + value + "\"");
      }
    } else if (FlagValue(argv[i], "--trace-capacity", &value)) {
      std::size_t capacity = 0;
      parsed = ParseFlag("--trace-capacity", value, &capacity);
      if (parsed.ok()) htdp::obs::SetTraceCapacity(capacity);
    } else if (FlagValue(argv[i], "--tenant", &value) ||
               (std::strcmp(argv[i], "--tenant") == 0 && i + 1 < argc &&
                (value = argv[++i], true))) {
      htdp::StatusOr<htdp::daemon::TenantConfig> tenant =
          htdp::daemon::ParseTenantFlag(value);
      parsed = tenant.status();
      if (tenant.ok()) options.tenants.push_back(std::move(tenant).value());
    } else {
      std::fprintf(stderr, "htdpd: unknown argument \"%s\"\n", argv[i]);
      return Usage();
    }
    if (!parsed.ok()) {
      std::fprintf(stderr, "htdpd: %s\n", parsed.message().c_str());
      return 1;
    }
  }

  htdp::StatusOr<std::optional<htdp::net::FaultPlan>> fault =
      htdp::net::FaultPlan::FromEnv();
  if (!fault.ok()) {
    std::fprintf(stderr, "htdpd: HTDP_FAULT_PLAN: %s\n",
                 fault.status().message().c_str());
    return 1;
  }
  options.fault = fault.value();
  if (options.fault.has_value()) {
    std::fprintf(stderr, "htdpd: CHAOS MODE -- injecting wire faults (%s)\n",
                 options.fault->ToSpec().c_str());
  }

  htdp::obs::SetTraceEnabled(trace);

  const std::string host =
      options.host.empty() || options.host == "localhost" ? "127.0.0.1"
                                                          : options.host;
  htdp::StatusOr<std::unique_ptr<htdp::daemon::Server>> server =
      htdp::daemon::Server::Create(std::move(options));
  if (!server.ok()) {
    std::fprintf(stderr, "htdpd: %s\n", server.status().message().c_str());
    return 1;
  }
  g_server.store(server.value().get(), std::memory_order_release);

  struct sigaction action{};
  action.sa_handler = HandleSignal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);

  std::printf("htdpd listening on %s:%u\n", host.c_str(),
              static_cast<unsigned>(server.value()->port()));
  std::fflush(stdout);

  htdp::Status run = server.value()->Run();
  g_server.store(nullptr, std::memory_order_release);
  if (!run.ok()) {
    std::fprintf(stderr, "htdpd: %s\n", run.message().c_str());
    return 1;
  }
  return 0;
}
