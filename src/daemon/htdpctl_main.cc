// htdpctl -- control CLI for htdpd.
//
// Subcommands mirror the protocol one to one:
//
//   htdpctl [--host=H] [--port=P] [--json] list-solvers
//   htdpctl ... stats
//   htdpctl ... budget                     # per-tenant ledger + durability
//   htdpctl ... submit --solver=NAME [--tenant=T] [--seed=S] [--n=N] [--d=D]
//                      [--data-seed=S] [--epsilon=E] [--delta=D]
//                      [--iterations=T] [--deadline=SECS] [--tag=TAG]
//                      [--wait] [--stream]
//                      [--retry] [--retry-attempts=K] [--retry-deadline=SECS]
//   htdpctl ... poll --job=ID [--wait]
//   htdpctl ... cancel --job=ID
//   htdpctl ... metrics [--prom]           # observability registry dump
//   htdpctl ... trace [--out=FILE]         # Chrome-trace JSON (Perfetto)
//   htdpctl ... selfcheck [submit flags]   # remote fit == local fit, bit-exact
//
// The demo problem is generated CLIENT-side (Section 6.1 synthetic linear
// data, unit l1-ball constraint) from --n/--d/--data-seed, so a submit is
// fully reproducible from its command line.
//
// Exit codes: 0 success, 1 usage/connection error (a malformed or
// out-of-range numeric flag is a usage error), 3 selfcheck mismatch,
// 10 + wire_code for a typed remote rejection -- so an over-budget tenant's
// submit exits 12 (BUDGET_EXHAUSTED = 2), a cancelled wait exits 15, and a
// shed submit (queue/connection cap) exits 17 (UNAVAILABLE = 7) unless
// --retry is given, in which case the client backs off per the server's
// retry_after_ms hints and resubmits (safe: fits are deterministic at a
// fixed seed).

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "api/solver_registry.h"
#include "daemon/server.h"
#include "data/synthetic.h"
#include "net/client.h"
#include "net/wire_status.h"
#include "rng/rng.h"

namespace {

using htdp::PrivacyBudget;
using htdp::Rng;
using htdp::Status;
using htdp::StatusOr;
using htdp::Vector;

struct Cli {
  std::string host = "127.0.0.1";
  std::uint16_t port = 7411;
  bool json = false;

  std::string command;
  std::string solver = "alg1_dp_fw";
  std::string tenant;
  std::string tag;
  std::uint64_t seed = 17;
  std::uint64_t data_seed = 4242;
  std::size_t n = 400;
  std::size_t d = 10;
  double epsilon = 1.0;
  double delta = 0.01;
  int iterations = 0;
  double deadline = 0.0;
  bool risk_trace = false;
  bool wait = false;
  bool stream = false;
  std::uint64_t job = 0;
  bool retry = false;
  int retry_attempts = 8;
  double retry_deadline = 0.0;
  bool prom = false;      // metrics: Prometheus text instead of JSON
  std::string out_file;   // trace: write here instead of stdout
};

int Usage() {
  std::fprintf(stderr,
               "usage: htdpctl [--host=H] [--port=P] [--json] COMMAND ...\n"
               "commands: list-solvers | stats | budget | submit |\n"
               "          poll --job=ID | cancel --job=ID | selfcheck |\n"
               "          metrics [--prom] | trace [--out=FILE]\n");
  return 1;
}

/// Typed remote errors map to stable exit codes scripts can branch on.
int ExitCodeFor(const Status& status) {
  return 10 + static_cast<int>(htdp::net::WireStatusFor(status.code()));
}

int Fail(const Status& status) {
  std::fprintf(stderr, "htdpctl: %s\n", status.message().c_str());
  return ExitCodeFor(status);
}

/// FNV-1a over the iterate's IEEE-754 bytes: a cheap, stable fingerprint two
/// processes can compare to assert bit-identity.
std::uint64_t ChecksumW(const Vector& w) {
  std::uint64_t hash = 1469598103934665603ull;
  for (double value : w) {
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      hash ^= (bits >> (8 * i)) & 0xffu;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

/// The reproducible demo workload: Section 6.1 synthetic linear data on the
/// unit l1 ball, derived entirely from the CLI flags.
htdp::net::WireProblem MakeProblem(const Cli& cli) {
  Rng rng(cli.data_seed);
  htdp::SyntheticConfig config;
  config.n = cli.n;
  config.d = cli.d;
  const Vector w_star = htdp::MakeL1BallTarget(cli.d, rng);

  htdp::net::WireProblem problem;
  problem.data = htdp::GenerateLinear(config, w_star, rng);
  problem.loss = htdp::net::kWireLossSquared;
  problem.constraint = htdp::net::WireConstraint::kL1Ball;
  problem.constraint_radius = 1.0;
  return problem;
}

htdp::net::SubmitRequest MakeSubmit(const Cli& cli) {
  htdp::net::SubmitRequest request;
  request.tenant = cli.tenant;
  request.solver = cli.solver;
  request.tag = cli.tag;
  request.seed = cli.seed;
  request.deadline_seconds = cli.deadline;
  request.stream = cli.stream;
  request.spec.budget = PrivacyBudget::Approx(cli.epsilon, cli.delta);
  if (cli.iterations > 0) request.spec.iterations = cli.iterations;
  request.spec.record_risk_trace = cli.risk_trace;
  request.problem = MakeProblem(cli);
  return request;
}

void PrintResult(const Cli& cli, std::uint64_t job,
                 const htdp::FitResult& result) {
  const std::uint64_t checksum = ChecksumW(result.w);
  if (cli.json) {
    std::printf("{\"job\": %" PRIu64 ", \"iterations\": %d, "
                "\"seconds\": %.6f, \"dim\": %zu, "
                "\"checksum\": \"%016" PRIx64 "\", "
                "\"ledger_entries\": %zu}\n",
                job, result.iterations, result.seconds, result.w.size(),
                checksum, result.ledger.entries().size());
    return;
  }
  std::printf("job %" PRIu64 " done: %d iterations in %.3fs, d=%zu, "
              "w checksum %016" PRIx64 ", %zu ledger entries\n",
              job, result.iterations, result.seconds, result.w.size(),
              checksum, result.ledger.entries().size());
}

int RunListSolvers(const Cli& cli, htdp::net::Client& client) {
  StatusOr<htdp::net::SolverListReply> reply = client.ListSolvers();
  if (!reply.ok()) return Fail(reply.status());
  if (cli.json) {
    std::printf("[");
    for (std::size_t i = 0; i < reply.value().solvers.size(); ++i) {
      const auto& row = reply.value().solvers[i];
      std::printf("%s{\"name\": \"%s\", \"description\": \"%s\"}",
                  i == 0 ? "" : ", ", row.name.c_str(),
                  row.description.c_str());
    }
    std::printf("]\n");
    return 0;
  }
  for (const auto& row : reply.value().solvers) {
    std::printf("%-22s %s\n", row.name.c_str(), row.description.c_str());
  }
  return 0;
}

int RunStats(const Cli& cli, htdp::net::Client& client) {
  StatusOr<htdp::net::StatsReply> reply = client.Stats();
  if (!reply.ok()) return Fail(reply.status());
  const htdp::net::StatsReply& stats = reply.value();
  if (cli.json) {
    std::printf("{\"submitted\": %zu, \"completed\": %zu, \"succeeded\": %zu, "
                "\"failed\": %zu, \"cancelled\": %zu, "
                "\"budget_rejected\": %zu, \"queue_depth\": %zu, "
                "\"running\": %zu, \"unavailable_rejected\": %zu, "
                "\"shed_expired\": %zu, \"overloaded\": %s, "
                "\"connections\": %" PRIu64 ", "
                "\"retained_jobs\": %" PRIu64 ", \"draining\": %s, "
                "\"tenants\": [",
                stats.engine.submitted, stats.engine.completed,
                stats.engine.succeeded, stats.engine.failed,
                stats.engine.cancelled, stats.engine.budget_rejected,
                stats.engine.queue_depth, stats.engine.running,
                stats.engine.unavailable_rejected, stats.engine.shed_expired,
                stats.engine.overloaded ? "true" : "false",
                stats.connections, stats.retained_jobs,
                stats.draining ? "true" : "false");
    for (std::size_t i = 0; i < stats.tenants.size(); ++i) {
      const auto& row = stats.tenants[i];
      std::printf("%s{\"name\": \"%s\", \"epsilon_total\": %g, "
                  "\"epsilon_spent\": %g, \"admitted\": %" PRIu64 ", "
                  "\"rejected\": %" PRIu64 "}",
                  i == 0 ? "" : ", ", row.name.c_str(), row.total.epsilon,
                  row.spent.epsilon, row.admitted, row.rejected);
    }
    std::printf("]}\n");
    return 0;
  }
  std::printf("engine: %zu submitted, %zu completed (%zu ok, %zu failed, "
              "%zu cancelled), %zu budget-rejected, %zu queued, %zu running\n",
              stats.engine.submitted, stats.engine.completed,
              stats.engine.succeeded, stats.engine.failed,
              stats.engine.cancelled, stats.engine.budget_rejected,
              stats.engine.queue_depth, stats.engine.running);
  std::printf("overload: %zu shed at submit, %zu expired in queue%s\n",
              stats.engine.unavailable_rejected, stats.engine.shed_expired,
              stats.engine.overloaded ? ", SHEDDING NOW" : "");
  std::printf("daemon: %" PRIu64 " connections, %" PRIu64
              " retained jobs%s\n",
              stats.connections, stats.retained_jobs,
              stats.draining ? ", draining" : "");
  for (const auto& row : stats.tenants) {
    std::printf("tenant %-12s eps %.3f/%.3f  admitted %" PRIu64
                "  rejected %" PRIu64 "  refunded %" PRIu64 "\n",
                row.name.c_str(), row.spent.epsilon, row.total.epsilon,
                row.admitted, row.rejected, row.refunded);
  }
  return 0;
}

/// BUDGET: the privacy-budget ledger -- spend per tenant with the
/// reservation lifecycle counters, plus the daemon's durability state
/// (journal/fsync/recovery; all zero when htdpd runs without --state-dir).
int RunBudget(const Cli& cli, htdp::net::Client& client) {
  StatusOr<htdp::net::BudgetReply> reply = client.Budget();
  if (!reply.ok()) return Fail(reply.status());
  const htdp::net::BudgetReply& budget = reply.value();
  if (cli.json) {
    std::printf("{\"durable\": %s, \"state_dir\": \"%s\", "
                "\"fsync\": \"%s\", \"journal_records\": %" PRIu64 ", "
                "\"journal_bytes\": %" PRIu64 ", "
                "\"journal_lag_records\": %" PRIu64 ", "
                "\"snapshots\": %" PRIu64 ", "
                "\"open_reservations\": %" PRIu64 ", "
                "\"recovered_records\": %" PRIu64 ", "
                "\"recovered_reserves\": %" PRIu64 ", "
                "\"torn_bytes_discarded\": %" PRIu64 ", "
                "\"recovery_seconds\": %.6f, \"tenants\": [",
                budget.durable ? "true" : "false", budget.state_dir.c_str(),
                budget.fsync_policy.c_str(), budget.journal_records,
                budget.journal_bytes, budget.journal_lag_records,
                budget.snapshots, budget.open_reservations,
                budget.recovered_records, budget.recovered_reserves,
                budget.torn_bytes_discarded, budget.recovery_seconds);
    for (std::size_t i = 0; i < budget.tenants.size(); ++i) {
      const auto& row = budget.tenants[i];
      std::printf("%s{\"name\": \"%s\", \"epsilon_total\": %.17g, "
                  "\"epsilon_spent\": %.17g, \"epsilon_remaining\": %.17g, "
                  "\"delta_total\": %.17g, \"delta_spent\": %.17g, "
                  "\"delta_remaining\": %.17g, "
                  "\"epsilon_recovered\": %.17g, "
                  "\"admitted\": %" PRIu64 ", \"rejected\": %" PRIu64 ", "
                  "\"refunded\": %" PRIu64 ", \"open\": %" PRIu64 ", "
                  "\"recovered_reserves\": %" PRIu64 "}",
                  i == 0 ? "" : ", ", row.name.c_str(), row.total.epsilon,
                  row.spent.epsilon, row.remaining.epsilon, row.total.delta,
                  row.spent.delta, row.remaining.delta, row.recovered.epsilon,
                  row.admitted, row.rejected, row.refunded, row.open,
                  row.recovered_reserves);
    }
    std::printf("]}\n");
    return 0;
  }
  if (budget.durable) {
    std::printf("ledger: durable at %s (fsync=%s), %" PRIu64
                " journal records (%" PRIu64 " bytes, lag %" PRIu64
                "), %" PRIu64 " snapshots\n",
                budget.state_dir.c_str(), budget.fsync_policy.c_str(),
                budget.journal_records, budget.journal_bytes,
                budget.journal_lag_records, budget.snapshots);
    std::printf("recovery: %" PRIu64 " records replayed in %.3fms, %" PRIu64
                " dangling reserves kept as spend, %" PRIu64
                " torn bytes discarded\n",
                budget.recovered_records, budget.recovery_seconds * 1e3,
                budget.recovered_reserves, budget.torn_bytes_discarded);
  } else {
    std::printf("ledger: in-memory (start htdpd with --state-dir to make it "
                "durable)\n");
  }
  std::printf("open reservations: %" PRIu64 "\n", budget.open_reservations);
  for (const auto& row : budget.tenants) {
    std::printf("tenant %-12s eps %.3f spent / %.3f total (%.3f left)  "
                "admitted %" PRIu64 "  rejected %" PRIu64 "  refunded %" PRIu64
                "  open %" PRIu64,
                row.name.c_str(), row.spent.epsilon, row.total.epsilon,
                row.remaining.epsilon, row.admitted, row.rejected,
                row.refunded, row.open);
    if (row.recovered_reserves > 0) {
      std::printf("  [recovered %" PRIu64 " reserves, eps %.3f]",
                  row.recovered_reserves, row.recovered.epsilon);
    }
    std::printf("\n");
  }
  return 0;
}

int RunSubmit(const Cli& cli, htdp::net::Client& client) {
  if (cli.retry) {
    // Retry implies waiting for the result: only a completed fit proves
    // the resubmission loop converged.
    htdp::net::RetryPolicy policy;
    policy.max_attempts = cli.retry_attempts;
    policy.deadline_seconds = cli.retry_deadline;
    policy.jitter_seed = cli.seed;
    StatusOr<htdp::FitResult> result =
        client.SubmitAndWaitWithRetry(MakeSubmit(cli), policy);
    if (!result.ok()) return Fail(result.status());
    PrintResult(cli, client.last_job_id(), result.value());
    return 0;
  }
  StatusOr<std::uint64_t> job = client.Submit(MakeSubmit(cli));
  if (!job.ok()) return Fail(job.status());
  if (!cli.wait && !cli.stream) {
    if (cli.json) {
      std::printf("{\"job\": %" PRIu64 "}\n", job.value());
    } else {
      std::printf("job %" PRIu64 " submitted\n", job.value());
    }
    return 0;
  }
  StatusOr<htdp::FitResult> result = cli.stream
                                         ? client.AwaitStreamed(job.value())
                                         : client.WaitResult(job.value());
  if (!result.ok()) return Fail(result.status());
  PrintResult(cli, job.value(), result.value());
  return 0;
}

int RunPoll(const Cli& cli, htdp::net::Client& client) {
  if (cli.job == 0) return Usage();
  if (cli.wait) {
    StatusOr<htdp::FitResult> result = client.WaitResult(cli.job);
    if (!result.ok()) return Fail(result.status());
    PrintResult(cli, cli.job, result.value());
    return 0;
  }
  StatusOr<htdp::net::JobStateMsg> state = client.Poll(cli.job, false);
  if (!state.ok()) return Fail(state.status());
  const char* name =
      state.value().state == htdp::net::WireJobState::kInFlight ? "in-flight"
      : state.value().state == htdp::net::WireJobState::kDoneOk ? "done"
                                                                : "error";
  if (cli.json) {
    std::printf("{\"job\": %" PRIu64 ", \"state\": \"%s\", \"code\": %u}\n",
                cli.job, name, state.value().wire_code);
  } else {
    std::printf("job %" PRIu64 ": %s%s%s\n", cli.job, name,
                state.value().message.empty() ? "" : " -- ",
                state.value().message.c_str());
  }
  return 0;
}

int RunCancel(const Cli& cli, htdp::net::Client& client) {
  if (cli.job == 0) return Usage();
  StatusOr<htdp::net::JobStateMsg> state = client.Cancel(cli.job);
  if (!state.ok()) return Fail(state.status());
  std::printf("job %" PRIu64 ": cancel %s\n", cli.job,
              state.value().state == htdp::net::WireJobState::kDoneOk
                  ? "too late (already done)"
                  : "requested");
  return 0;
}

/// METRICS in the registry's JSON or Prometheus text format (--prom). The
/// body is printed verbatim: it IS the exposition document.
int RunMetrics(const Cli& cli, htdp::net::Client& client) {
  const htdp::net::MetricsFormat format =
      cli.prom ? htdp::net::MetricsFormat::kPrometheus
               : htdp::net::MetricsFormat::kJson;
  StatusOr<htdp::net::MetricsReply> reply = client.Metrics(format);
  if (!reply.ok()) return Fail(reply.status());
  std::fputs(reply.value().body.c_str(), stdout);
  if (!reply.value().body.empty() && reply.value().body.back() != '\n') {
    std::fputc('\n', stdout);
  }
  return 0;
}

/// METRICS(trace): pulls the daemon's span rings as Chrome trace-event
/// JSON, written to --out=FILE (default stdout) for chrome://tracing or
/// Perfetto.
int RunTrace(const Cli& cli, htdp::net::Client& client) {
  StatusOr<htdp::net::MetricsReply> reply =
      client.Metrics(htdp::net::MetricsFormat::kTraceChrome);
  if (!reply.ok()) return Fail(reply.status());
  if (cli.out_file.empty()) {
    std::fputs(reply.value().body.c_str(), stdout);
    std::fputc('\n', stdout);
    return 0;
  }
  std::FILE* file = std::fopen(cli.out_file.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "htdpctl: cannot write %s\n", cli.out_file.c_str());
    return 1;
  }
  std::fputs(reply.value().body.c_str(), file);
  std::fclose(file);
  std::fprintf(stderr, "trace written to %s (%zu bytes)\n",
               cli.out_file.c_str(), reply.value().body.size());
  return 0;
}

/// Submits the demo problem AND fits it locally with the same seed, then
/// asserts the two iterates are bit-identical -- the end-to-end proof that
/// the codec, the serializer and the daemon preserve every bit.
int RunSelfcheck(const Cli& cli, htdp::net::Client& client) {
  StatusOr<std::uint64_t> job = client.Submit(MakeSubmit(cli));
  if (!job.ok()) return Fail(job.status());
  StatusOr<htdp::FitResult> remote = client.WaitResult(job.value());
  if (!remote.ok()) return Fail(remote.status());

  htdp::net::SubmitRequest request = MakeSubmit(cli);
  StatusOr<std::unique_ptr<htdp::net::ProblemHolder>> holder =
      htdp::net::ProblemHolder::Materialize(std::move(request.problem));
  if (!holder.ok()) return Fail(holder.status());
  StatusOr<const htdp::Solver*> solver =
      htdp::SolverRegistry::Global().Find(cli.solver);
  if (!solver.ok()) return Fail(solver.status());
  Rng rng(cli.seed);
  StatusOr<htdp::FitResult> local =
      solver.value()->TryFit(holder.value()->problem(), request.spec, rng);
  if (!local.ok()) return Fail(local.status());

  const std::uint64_t remote_sum = ChecksumW(remote.value().w);
  const std::uint64_t local_sum = ChecksumW(local.value().w);
  if (remote.value().w != local.value().w) {
    std::fprintf(stderr,
                 "selfcheck MISMATCH: remote %016" PRIx64 " != local %016"
                 PRIx64 "\n",
                 remote_sum, local_sum);
    return 3;
  }
  if (cli.json) {
    std::printf("{\"selfcheck\": \"ok\", \"checksum\": \"%016" PRIx64 "\"}\n",
                remote_sum);
  } else {
    std::printf("selfcheck ok: remote == local, checksum %016" PRIx64 "\n",
                remote_sum);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using htdp::daemon::FlagValue;
  using htdp::daemon::ParseFlag;
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    Status parsed = Status::Ok();
    if (FlagValue(argv[i], "--host", &value)) {
      cli.host = value;
    } else if (FlagValue(argv[i], "--port", &value)) {
      parsed = ParseFlag("--port", value, &cli.port);
    } else if (std::strcmp(argv[i], "--json") == 0) {
      cli.json = true;
    } else if (FlagValue(argv[i], "--solver", &value)) {
      cli.solver = value;
    } else if (FlagValue(argv[i], "--tenant", &value)) {
      cli.tenant = value;
    } else if (FlagValue(argv[i], "--tag", &value)) {
      cli.tag = value;
    } else if (FlagValue(argv[i], "--seed", &value)) {
      parsed = ParseFlag("--seed", value, &cli.seed);
    } else if (FlagValue(argv[i], "--data-seed", &value)) {
      parsed = ParseFlag("--data-seed", value, &cli.data_seed);
    } else if (FlagValue(argv[i], "--n", &value)) {
      parsed = ParseFlag("--n", value, &cli.n);
    } else if (FlagValue(argv[i], "--d", &value)) {
      parsed = ParseFlag("--d", value, &cli.d);
    } else if (FlagValue(argv[i], "--epsilon", &value)) {
      parsed = ParseFlag("--epsilon", value, &cli.epsilon);
    } else if (FlagValue(argv[i], "--delta", &value)) {
      parsed = ParseFlag("--delta", value, &cli.delta);
    } else if (FlagValue(argv[i], "--iterations", &value)) {
      parsed = ParseFlag("--iterations", value, &cli.iterations);
    } else if (FlagValue(argv[i], "--deadline", &value)) {
      parsed = ParseFlag("--deadline", value, &cli.deadline);
    } else if (FlagValue(argv[i], "--job", &value)) {
      parsed = ParseFlag("--job", value, &cli.job);
    } else if (std::strcmp(argv[i], "--risk-trace") == 0) {
      cli.risk_trace = true;
    } else if (std::strcmp(argv[i], "--wait") == 0) {
      cli.wait = true;
    } else if (std::strcmp(argv[i], "--stream") == 0) {
      cli.stream = true;
    } else if (std::strcmp(argv[i], "--retry") == 0) {
      cli.retry = true;
    } else if (FlagValue(argv[i], "--retry-attempts", &value)) {
      parsed = ParseFlag("--retry-attempts", value, &cli.retry_attempts);
    } else if (FlagValue(argv[i], "--retry-deadline", &value)) {
      parsed = ParseFlag("--retry-deadline", value, &cli.retry_deadline);
    } else if (std::strcmp(argv[i], "--prom") == 0) {
      cli.prom = true;
    } else if (FlagValue(argv[i], "--out", &value)) {
      cli.out_file = value;
    } else if (argv[i][0] != '-' && cli.command.empty()) {
      cli.command = argv[i];
    } else {
      std::fprintf(stderr, "htdpctl: unknown argument \"%s\"\n", argv[i]);
      return Usage();
    }
    if (!parsed.ok()) {
      std::fprintf(stderr, "htdpctl: %s\n", parsed.message().c_str());
      return 1;
    }
  }
  if (cli.command.empty()) return Usage();

  htdp::StatusOr<std::unique_ptr<htdp::net::Client>> client =
      htdp::net::Client::Connect(cli.host, cli.port);
  if (!client.ok()) {
    std::fprintf(stderr, "htdpctl: cannot reach htdpd at %s:%u: %s\n",
                 cli.host.c_str(), static_cast<unsigned>(cli.port),
                 client.status().message().c_str());
    return 1;
  }

  if (cli.command == "list-solvers") return RunListSolvers(cli, *client.value());
  if (cli.command == "stats") return RunStats(cli, *client.value());
  if (cli.command == "budget") return RunBudget(cli, *client.value());
  if (cli.command == "submit") return RunSubmit(cli, *client.value());
  if (cli.command == "poll") return RunPoll(cli, *client.value());
  if (cli.command == "cancel") return RunCancel(cli, *client.value());
  if (cli.command == "selfcheck") return RunSelfcheck(cli, *client.value());
  if (cli.command == "metrics") return RunMetrics(cli, *client.value());
  if (cli.command == "trace") return RunTrace(cli, *client.value());
  std::fprintf(stderr, "htdpctl: unknown command \"%s\"\n",
               cli.command.c_str());
  return Usage();
}
