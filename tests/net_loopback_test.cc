// End-to-end loopback tests of the htdpd daemon: an in-process Server on an
// ephemeral port, driven through net::Client -- the same class htdpctl uses.
//
// The acceptance contract of the net subsystem lives here:
//   * >= 4 concurrent clients receive fits BIT-IDENTICAL to a sequential
//     in-process TryFit at the same seed;
//   * an over-budget tenant's SUBMIT is rejected AT THE SOCKET with the
//     BUDGET_EXHAUSTED wire code while in-budget tenants on the same
//     connection pool proceed;
//   * malformed bytes produce a typed ERROR and a closed connection, never
//     a daemon crash;
//   * the drain state machine (signal bookkeeping included) empties the
//     daemon and returns from Run();
//   * queued jobs add no threads: completions reach the loop through
//     FitJob::on_done, not a thread per job;
//   * the numeric flags of htdpd and htdpctl parse strictly.
//
// CI also runs this suite under TSan: the loop thread, completion callbacks
// fired from Engine workers and concurrent clients must be race-free.

#include "daemon/server.h"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <array>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/solver_registry.h"
#include "data/synthetic.h"
#include "net/client.h"
#include "net/codec.h"
#include "net/transport.h"
#include "net/wire_status.h"
#include "obs/metrics.h"
#include "rng/rng.h"
#include "util/parallel.h"

namespace htdp {
namespace {

net::WireProblem TestProblem(std::size_t n = 500, std::size_t d = 10) {
  Rng rng(17);
  SyntheticConfig config;
  config.n = n;
  config.d = d;
  const Vector w_star = MakeL1BallTarget(d, rng);
  net::WireProblem problem;
  problem.data = GenerateLinear(config, w_star, rng);
  problem.loss = net::kWireLossSquared;
  problem.constraint = net::WireConstraint::kL1Ball;
  problem.constraint_radius = 1.0;
  return problem;
}

net::SubmitRequest TestSubmit(std::uint64_t seed,
                              const std::string& tenant = std::string(),
                              double epsilon = 1.0) {
  net::SubmitRequest request;
  request.solver = kSolverAlg1DpFw;
  request.tenant = tenant;
  request.seed = seed;
  request.spec.budget = PrivacyBudget::Pure(epsilon);
  request.spec.tau = 4.0;
  request.spec.step = 0.02;
  request.problem = TestProblem();
  return request;
}

/// The sequential in-process reference the daemon must match bit for bit.
FitResult LocalFit(const net::SubmitRequest& request) {
  auto holder = net::ProblemHolder::Materialize(request.problem);
  EXPECT_TRUE(holder.ok()) << holder.status().message();
  auto solver = SolverRegistry::Global().Find(request.solver);
  EXPECT_TRUE(solver.ok());
  Rng rng(request.seed);
  auto result =
      solver.value()->TryFit(holder.value()->problem(), request.spec, rng);
  EXPECT_TRUE(result.ok()) << result.status().message();
  return result.value();
}

/// An in-process daemon on an ephemeral loopback port, Run() on its own
/// thread, drained and joined at scope exit.
class TestServer {
 public:
  explicit TestServer(daemon::ServerOptions options = {}) {
    options.port = 0;
    auto created = daemon::Server::Create(std::move(options));
    EXPECT_TRUE(created.ok()) << created.status().message();
    server_ = std::move(created).value();
    thread_ = std::thread([this] { run_status_ = server_->Run(); });
  }

  ~TestServer() { StopAndJoin(); }

  daemon::Server& server() { return *server_; }
  std::uint16_t port() const { return server_->port(); }

  std::unique_ptr<net::Client> Connect() {
    auto client = net::Client::Connect("127.0.0.1", port());
    EXPECT_TRUE(client.ok()) << client.status().message();
    return std::move(client).value();
  }

  Status StopAndJoin() {
    if (thread_.joinable()) {
      server_->RequestDrain();
      thread_.join();
    }
    return run_status_;
  }

 private:
  std::unique_ptr<daemon::Server> server_;
  std::thread thread_;
  Status run_status_ = Status::Ok();
};

// ---------------------------------------------------------------------------
// Bit-identity: remote == local, under concurrency

TEST(NetLoopback, SubmitWaitMatchesLocalTryFitBitForBit) {
  TestServer server;
  auto client = server.Connect();

  const net::SubmitRequest request = TestSubmit(41);
  auto job = client->Submit(request);
  ASSERT_TRUE(job.ok()) << job.status().message();
  auto remote = client->WaitResult(job.value());
  ASSERT_TRUE(remote.ok()) << remote.status().message();

  const FitResult local = LocalFit(request);
  EXPECT_EQ(remote.value().w, local.w);  // exact: doubles travel as bits
  EXPECT_EQ(remote.value().iterations, local.iterations);
  EXPECT_EQ(remote.value().scale_used, local.scale_used);
  ASSERT_EQ(remote.value().ledger.entries().size(),
            local.ledger.entries().size());
  for (std::size_t i = 0; i < local.ledger.entries().size(); ++i) {
    EXPECT_EQ(remote.value().ledger.entries()[i].epsilon,
              local.ledger.entries()[i].epsilon);
    EXPECT_EQ(remote.value().ledger.entries()[i].mechanism,
              local.ledger.entries()[i].mechanism);
  }
}

TEST(NetLoopback, FourConcurrentClientsAllBitIdentical) {
  TestServer server;
  constexpr int kClients = 5;
  std::vector<Vector> remote_w(kClients);
  std::vector<Status> failures(kClients, Status::Ok());

  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      auto client = net::Client::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        failures[i] = client.status();
        return;
      }
      const net::SubmitRequest request = TestSubmit(100 + i);
      auto job = client.value()->Submit(request);
      if (!job.ok()) {
        failures[i] = job.status();
        return;
      }
      auto result = client.value()->WaitResult(job.value());
      if (!result.ok()) {
        failures[i] = result.status();
        return;
      }
      remote_w[i] = std::move(result.value().w);
    });
  }
  for (std::thread& t : threads) t.join();

  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(failures[i].ok()) << "client " << i << ": "
                                  << failures[i].message();
    const FitResult local = LocalFit(TestSubmit(100 + i));
    EXPECT_EQ(remote_w[i], local.w) << "client " << i;
  }
}

TEST(NetLoopback, StreamedDeliveryMatchesLocalFit) {
  TestServer server;
  auto client = server.Connect();
  net::SubmitRequest request = TestSubmit(77);
  request.stream = true;
  auto job = client->Submit(request);
  ASSERT_TRUE(job.ok()) << job.status().message();
  auto remote = client->AwaitStreamed(job.value());
  ASSERT_TRUE(remote.ok()) << remote.status().message();
  EXPECT_EQ(remote.value().w, LocalFit(request).w);
}

TEST(NetLoopback, RetainedResultServesLatePolls) {
  TestServer server;
  auto client = server.Connect();
  auto job = client->Submit(TestSubmit(55));
  ASSERT_TRUE(job.ok());
  auto first = client->WaitResult(job.value());
  ASSERT_TRUE(first.ok());
  // The job is long gone from the Engine; the daemon's retention map must
  // serve the identical result again, to a DIFFERENT connection.
  auto late_client = server.Connect();
  auto second = late_client->WaitResult(job.value());
  ASSERT_TRUE(second.ok()) << second.status().message();
  EXPECT_EQ(second.value().w, first.value().w);
}

// ---------------------------------------------------------------------------
// Tenant budgets at the socket

TEST(NetLoopback, OverBudgetTenantRejectedAtSocketWhileOthersProceed) {
  daemon::ServerOptions options;
  options.tenants.push_back({"alpha", PrivacyBudget::Approx(2.0, 0.1)});
  options.tenants.push_back({"beta", PrivacyBudget::Approx(2.0, 0.1)});
  TestServer server(std::move(options));
  auto client = server.Connect();

  // First alpha job fits (1.5 of 2.0).
  auto first = client->Submit(TestSubmit(1, "alpha", 1.5));
  ASSERT_TRUE(first.ok()) << first.status().message();
  auto first_result = client->WaitResult(first.value());
  ASSERT_TRUE(first_result.ok());

  // Second alpha job (1.0 > remaining 0.5) must be rejected AT SUBMIT with
  // the typed budget code -- reconstructed from the BUDGET_EXHAUSTED wire
  // code of the ERROR frame.
  auto second = client->Submit(TestSubmit(2, "alpha", 1.0));
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kBudgetExhausted);

  // An in-budget tenant on the SAME connection still proceeds...
  auto beta = client->Submit(TestSubmit(3, "beta", 1.0));
  ASSERT_TRUE(beta.ok()) << beta.status().message();
  EXPECT_TRUE(client->WaitResult(beta.value()).ok());

  // ...and so does a second connection in the pool.
  auto other = server.Connect();
  auto beta2 = other->Submit(TestSubmit(4, "beta", 0.5));
  ASSERT_TRUE(beta2.ok()) << beta2.status().message();
  EXPECT_TRUE(other->WaitResult(beta2.value()).ok());

  // The rejection is visible in the tenant accounting.
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  bool saw_alpha = false;
  for (const auto& row : stats.value().tenants) {
    if (row.name != "alpha") continue;
    saw_alpha = true;
    EXPECT_EQ(row.rejected, 1u);
    EXPECT_EQ(row.admitted, 1u);
  }
  EXPECT_TRUE(saw_alpha);
  EXPECT_EQ(stats.value().engine.budget_rejected, 1u);
}

TEST(NetLoopback, StatsListsTenantsKnownOnlyFromRecovery) {
  std::string tmpl = ::testing::TempDir() + "htdp_stats_tenants_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
  const std::string state_dir = tmpl;

  // First life: alpha and beta configured, one fit charged to beta.
  {
    daemon::ServerOptions options;
    options.state_dir = state_dir;
    options.fsync = dp::FsyncPolicy::kOff;
    options.tenants.push_back({"alpha", PrivacyBudget::Approx(2.0, 0.1)});
    options.tenants.push_back({"beta", PrivacyBudget::Approx(2.0, 0.1)});
    TestServer server(std::move(options));
    auto client = server.Connect();
    auto job = client->Submit(TestSubmit(5, "beta", 1.0));
    ASSERT_TRUE(job.ok()) << job.status().message();
    ASSERT_TRUE(client->WaitResult(job.value()).ok());
  }

  // Second life on the same ledger with only alpha configured: beta is
  // known only from recovery, and STATS must list it just as BUDGET does.
  daemon::ServerOptions options;
  options.state_dir = state_dir;
  options.fsync = dp::FsyncPolicy::kOff;
  options.tenants.push_back({"alpha", PrivacyBudget::Approx(2.0, 0.1)});
  TestServer server(std::move(options));
  auto client = server.Connect();
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  bool saw_beta = false;
  for (const auto& row : stats.value().tenants) {
    if (row.name != "beta") continue;
    saw_beta = true;
    EXPECT_DOUBLE_EQ(row.spent.epsilon, 1.0);
  }
  EXPECT_TRUE(saw_beta);
  server.StopAndJoin();
  std::filesystem::remove_all(state_dir);
}

TEST(NetLoopback, UnknownSolverAndUnknownJobAreTypedErrors) {
  TestServer server;
  auto client = server.Connect();

  net::SubmitRequest request = TestSubmit(9);
  request.solver = "alg9_imaginary";
  auto job = client->Submit(request);
  ASSERT_FALSE(job.ok());
  EXPECT_EQ(job.status().code(), StatusCode::kUnknownSolver);

  auto poll = client->Poll(424242, false);
  ASSERT_FALSE(poll.ok());
  EXPECT_EQ(poll.status().code(), StatusCode::kInvalidProblem);
}

TEST(NetLoopback, OversizedSubmitIsRefusedBeforeSendingAndTheClientStaysUp) {
  TestServer server;
  // 200 x 8 doubles plus labels is ~14 KB, over this client's 4 KB frames.
  auto client = net::Client::Connect("127.0.0.1", server.port(),
                                     /*max_payload=*/4096);
  ASSERT_TRUE(client.ok()) << client.status().message();
  net::SubmitRequest request = TestSubmit(3);
  request.problem = TestProblem(200, 8);
  const std::size_t bytes = net::EncodedSubmitBytes(request);
  ASSERT_GT(bytes, 4096u);

  auto job = client.value()->Submit(request);
  ASSERT_FALSE(job.ok());
  EXPECT_EQ(job.status().code(), StatusCode::kInvalidProblem);
  EXPECT_NE(job.status().message().find(std::to_string(bytes)),
            std::string::npos);
  EXPECT_NE(job.status().message().find("4096"), std::string::npos);
  EXPECT_FALSE(client.value()->connection_broken());

  // Nothing reached the daemon, and the connection still serves.
  auto solvers = client.value()->ListSolvers();
  ASSERT_TRUE(solvers.ok()) << solvers.status().message();
  EXPECT_GE(solvers.value().solvers.size(), 6u);
  auto stats = client.value()->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_EQ(stats.value().engine.submitted, 0u);
}

// ---------------------------------------------------------------------------
// Cancellation

TEST(NetLoopback, QueuedJobCancelsWithTypedStatus) {
  daemon::ServerOptions options;
  options.engine_workers = 1;  // force the second job to queue
  TestServer server(std::move(options));
  auto client = server.Connect();

  // A heavy job occupies the single worker (record_risk_trace re-scores the
  // full dataset every iteration, stretching the fit to ~100ms so the
  // cancel below reliably lands while the victim is still queued)...
  net::SubmitRequest heavy = TestSubmit(11);
  heavy.problem = TestProblem(8000, 30);
  heavy.spec.iterations = 1000;
  heavy.spec.record_risk_trace = true;
  auto running = client->Submit(heavy);
  ASSERT_TRUE(running.ok());

  // ...so this one is still queued when the cancel lands.
  auto queued = client->Submit(TestSubmit(12));
  ASSERT_TRUE(queued.ok());
  auto cancel = client->Cancel(queued.value());
  ASSERT_TRUE(cancel.ok()) << cancel.status().message();

  auto outcome = client->WaitResult(queued.value());
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kCancelled);

  // The heavy job is unaffected.
  EXPECT_TRUE(client->WaitResult(running.value()).ok());
}

/// Threads in this process, counted from /proc/self/task.
std::size_t ThreadCount() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

TEST(NetLoopback, QueuedJobsAddNoThreads) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "/proc/self/task is not available";
  }
  // A heavy job holds the only worker while 16 more jobs queue behind it.
  // Its risk trace dispatches EmpiricalRisk over 8000 rows, which must run
  // on that worker alone: the daemon adds exactly its loop thread and one
  // worker. The 8000 rows are filled on this thread alone, since
  // GenerateLinear would dispatch them from here and start threads of its
  // own.
  net::SubmitRequest heavy = TestSubmit(11);
  Rng rng(19);
  heavy.problem.data.x = Matrix(8000, 30);
  heavy.problem.data.y.assign(8000, 0.0);
  for (std::size_t i = 0; i < 8000; ++i) {
    double* row = heavy.problem.data.x.Row(i);
    for (std::size_t j = 0; j < 30; ++j) row[j] = rng.Uniform(-1.0, 1.0);
    heavy.problem.data.y[i] = row[0] - row[1] + rng.Uniform(-0.1, 0.1);
  }
  heavy.spec.iterations = 1000;
  heavy.spec.record_risk_trace = true;
  std::vector<net::SubmitRequest> requests{heavy};
  for (std::uint64_t seed = 200; seed < 216; ++seed) {
    requests.push_back(TestSubmit(seed));
  }

  const std::size_t baseline = ThreadCount();
  daemon::ServerOptions options;
  options.engine_workers = 1;
  TestServer server(std::move(options));
  auto client = server.Connect();
  std::vector<std::uint64_t> ids;
  for (const net::SubmitRequest& request : requests) {
    auto job = client->Submit(request);
    ASSERT_TRUE(job.ok()) << job.status().message();
    ids.push_back(job.value());
  }
  EXPECT_EQ(ThreadCount(), baseline + 2);

  std::vector<FitResult> remote;
  for (const std::uint64_t id : ids) {
    auto result = client->WaitResult(id);
    ASSERT_TRUE(result.ok()) << result.status().message();
    remote.push_back(std::move(result).value());
    EXPECT_EQ(ThreadCount(), baseline + 2) << "job " << remote.size() - 1;
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(remote[i].w, LocalFit(requests[i]).w) << "job " << i;
  }
}

// ---------------------------------------------------------------------------
// Hostile input at the socket

TEST(NetLoopback, MalformedBytesGetTypedErrorAndClose) {
  TestServer server;

  auto raw = net::DialTcp("127.0.0.1", server.port());
  ASSERT_TRUE(raw.ok());
  const char garbage[] = "GET / HTTP/1.1\r\nHost: nope\r\n\r\n";
  const net::ByteSpan garbage_bytes(
      reinterpret_cast<const std::uint8_t*>(garbage), sizeof(garbage) - 1);
  ASSERT_TRUE(
      net::SendAll(raw.value().get(), std::array{garbage_bytes}).ok());

  // The daemon answers with one typed ERROR frame, then hangs up.
  net::FrameDecoder decoder;
  std::uint8_t buffer[4096];
  bool saw_error = false;
  bool closed = false;
  while (!closed) {
    auto got = net::RecvSome(raw.value().get(), buffer, sizeof(buffer));
    ASSERT_TRUE(got.ok());
    if (got.value() == 0) {
      closed = true;
      break;
    }
    decoder.Feed(buffer, got.value());
    std::optional<net::Frame> frame;
    ASSERT_TRUE(decoder.Next(&frame).ok());
    if (frame.has_value()) {
      ASSERT_EQ(frame->type, net::FrameType::kError);
      net::WireReader reader(frame->payload);
      net::WireError error;
      ASSERT_TRUE(DecodeError(reader, &error).ok());
      EXPECT_EQ(error.wire_code,
                net::WireStatusFor(StatusCode::kInvalidProblem));
      saw_error = true;
    }
  }
  EXPECT_TRUE(saw_error);
  EXPECT_TRUE(closed);

  // The daemon survived: a fresh, well-behaved client still gets service.
  auto client = server.Connect();
  auto solvers = client->ListSolvers();
  ASSERT_TRUE(solvers.ok());
  EXPECT_GE(solvers.value().solvers.size(), 6u);
}

TEST(NetLoopback, IdleConnectionsAreReaped) {
  daemon::ServerOptions options;
  options.idle_timeout_seconds = 0.15;
  TestServer server(std::move(options));

  auto raw = net::DialTcp("127.0.0.1", server.port());
  ASSERT_TRUE(raw.ok());
  // Say nothing; the sweep must close us. RecvSome returning 0 is the
  // orderly shutdown from the daemon side.
  std::uint8_t buffer[64];
  auto got = net::RecvSome(raw.value().get(), buffer, sizeof(buffer));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), 0u);
}

// ---------------------------------------------------------------------------
// Shutdown machinery

TEST(NetLoopback, SignalStateMachineDrainsThenHardExits) {
  daemon::ServerOptions options;
  options.port = 0;
  auto server = daemon::Server::Create(std::move(options));
  ASSERT_TRUE(server.ok());
  // First signal: drain. Every signal after that: get out NOW. This is the
  // exact decision htdpd's SIGINT/SIGTERM handler acts on (the smoke script
  // covers the real-signal path with exit codes 0 and 130).
  EXPECT_EQ(server.value()->OnSignal(), daemon::SignalAction::kDrain);
  EXPECT_EQ(server.value()->OnSignal(), daemon::SignalAction::kHardExit);
  EXPECT_EQ(server.value()->OnSignal(), daemon::SignalAction::kHardExit);
}

TEST(NetLoopback, DrainFinishesInflightWorkAndStopsRun) {
  TestServer server;
  auto client = server.Connect();
  net::SubmitRequest request = TestSubmit(31);
  request.stream = true;
  auto job = client->Submit(request);
  ASSERT_TRUE(job.ok());

  // Drain with the fit still in flight: the daemon must finish the job,
  // flush its streamed frames, close, and return from Run() with Ok.
  server.server().RequestDrain();
  auto result = client->AwaitStreamed(job.value());
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result.value().w, LocalFit(request).w);

  EXPECT_TRUE(server.StopAndJoin().ok());
}

TEST(NetLoopback, DrainingServerRejectsNewSubmits) {
  TestServer server;
  auto client = server.Connect();
  // Park a streamed job heavy enough (~100ms via record_risk_trace) that
  // the drain cannot finish -- and close our connection -- before the
  // rejection probe below reaches the daemon.
  net::SubmitRequest heavy = TestSubmit(13);
  heavy.problem = TestProblem(8000, 30);
  heavy.spec.iterations = 1000;
  heavy.spec.record_risk_trace = true;
  heavy.stream = true;
  auto job = client->Submit(heavy);
  ASSERT_TRUE(job.ok());

  server.server().RequestDrain();
  auto rejected = client->Submit(TestSubmit(14));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kCancelled);

  EXPECT_TRUE(client->AwaitStreamed(job.value()).ok());
}

// ---------------------------------------------------------------------------
// METRICS: the observability export over the wire, all three formats.

TEST(NetLoopback, MetricsRoundTripInAllFormats) {
  obs::MetricRegistry::Global().ResetForTest();
  TestServer server;
  auto client = server.Connect();

  // Run one real job first so the scrape has engine series to show.
  auto fit = client->Submit(TestSubmit(21));
  ASSERT_TRUE(fit.ok()) << fit.status().message();
  ASSERT_TRUE(client->WaitResult(fit.value()).ok());

  auto prom = client->Metrics(net::MetricsFormat::kPrometheus);
  ASSERT_TRUE(prom.ok()) << prom.status().message();
  EXPECT_EQ(prom->format, net::MetricsFormat::kPrometheus);
  EXPECT_NE(prom->body.find("# TYPE htdp_engine_jobs_submitted_total counter"),
            std::string::npos)
      << prom->body;
  EXPECT_NE(prom->body.find("htdp_engine_jobs_succeeded_total 1"),
            std::string::npos)
      << prom->body;
  EXPECT_NE(prom->body.find("htdp_fit_latency_seconds_bucket"),
            std::string::npos);
  EXPECT_NE(prom->body.find(
                "htdp_daemon_frames_received_total{type=\"submit\"} 1"),
            std::string::npos)
      << prom->body;

  auto json = client->Metrics(net::MetricsFormat::kJson);
  ASSERT_TRUE(json.ok()) << json.status().message();
  EXPECT_EQ(json->format, net::MetricsFormat::kJson);
  EXPECT_EQ(json->body.rfind("{", 0), 0u);
  EXPECT_NE(json->body.find("\"counters\""), std::string::npos);
  EXPECT_NE(json->body.find("htdp_engine_jobs_submitted_total"),
            std::string::npos);

  auto trace = client->Metrics(net::MetricsFormat::kTraceChrome);
  ASSERT_TRUE(trace.ok()) << trace.status().message();
  EXPECT_EQ(trace->format, net::MetricsFormat::kTraceChrome);
  EXPECT_EQ(trace->body.rfind("{\"traceEvents\":[", 0), 0u) << trace->body;
}

TEST(NetLoopback, TraceExportCarriesTheEngineWorkerCount) {
  if (NumWorkerThreads() == 1) {
    GTEST_SKIP() << "one CPU: the Engine size and the CPU count agree";
  }
  // The trace's thread count is the daemon's fit threads (--workers), not
  // the host's CPU count, matching htdp_runtime_info.
  daemon::ServerOptions options;
  options.engine_workers = 1;
  TestServer server(std::move(options));
  auto client = server.Connect();
  auto trace = client->Metrics(net::MetricsFormat::kTraceChrome);
  ASSERT_TRUE(trace.ok()) << trace.status().message();
  const std::string& body = trace->body;
  EXPECT_NE(body.find("\"threads\":1}"), std::string::npos)
      << body.substr(body.size() - std::min<std::size_t>(body.size(), 120));
}

TEST(NetLoopback, MetricsRequestWithUnknownFormatIsATypedError) {
  TestServer server;
  auto client = server.Connect();

  // Daemon-side decode must reject an out-of-range format byte with a
  // typed error, not crash. Drive the raw payload through a second
  // connection using the codec directly.
  net::WireWriter writer;
  writer.U8(99);  // not a MetricsFormat
  net::MetricsRequest decoded;
  net::WireReader reader(writer.bytes().data(), writer.bytes().size());
  const Status status = net::DecodeMetrics(reader, &decoded);
  EXPECT_EQ(status.code(), StatusCode::kInvalidProblem);
}

// ---------------------------------------------------------------------------
// Command-line flags of htdpd and htdpctl

TEST(DaemonFlags, FlagValueMatchesTheWholeName) {
  std::string value;
  EXPECT_TRUE(daemon::FlagValue("--port=80", "--port", &value));
  EXPECT_EQ(value, "80");
  EXPECT_TRUE(daemon::FlagValue("--port=", "--port", &value));
  EXPECT_EQ(value, "");
  EXPECT_FALSE(daemon::FlagValue("--ports=80", "--port", &value));
  EXPECT_FALSE(daemon::FlagValue("--port", "--port", &value));
}

TEST(DaemonFlags, IntegersMustParseWhollyAndFitTheType) {
  std::uint16_t port = 0;
  EXPECT_TRUE(daemon::ParseFlag("--port", "65535", &port).ok());
  EXPECT_EQ(port, 65535);
  for (const char* bad : {"70000", "65536", "-1", "abc", "", " 80", "80x",
                          "+80", "8.0"}) {
    const Status status = daemon::ParseFlag("--port", bad, &port);
    EXPECT_EQ(status.code(), StatusCode::kInvalidProblem) << bad;
    EXPECT_NE(status.message().find("--port"), std::string::npos) << bad;
  }
  EXPECT_EQ(port, 65535);  // untouched by every rejection

  int workers = 0;
  EXPECT_TRUE(daemon::ParseFlag("--workers", "4", &workers).ok());
  EXPECT_EQ(workers, 4);
  EXPECT_FALSE(daemon::ParseFlag("--workers", "-3", &workers).ok());
  EXPECT_FALSE(daemon::ParseFlag("--workers", "2147483648", &workers).ok());

  std::size_t cap = 0;
  EXPECT_FALSE(daemon::ParseFlag("--queue-cap", "-5", &cap).ok());
  EXPECT_TRUE(
      daemon::ParseFlag("--queue-cap", "18446744073709551615", &cap).ok());
  EXPECT_EQ(cap, std::numeric_limits<std::size_t>::max());
  EXPECT_FALSE(
      daemon::ParseFlag("--queue-cap", "18446744073709551616", &cap).ok());
}

// htdpd parses --workers this way, bounded by kMaxWorkerThreads. Only
// strings are parsed here: no Engine starts.
TEST(DaemonFlags, WorkersAreBoundedLikeTheThreadCount) {
  std::uint64_t workers = 7;
  EXPECT_TRUE(daemon::ParseUintFlag("--workers", "0", kMaxWorkerThreads,
                                    &workers)
                  .ok());
  EXPECT_EQ(workers, 0u);  // the default, NumWorkerThreads()
  EXPECT_TRUE(daemon::ParseUintFlag("--workers", "256", kMaxWorkerThreads,
                                    &workers)
                  .ok());
  EXPECT_EQ(workers, 256u);
  for (const char* bad : {"257", "100000", "4x", "-1"}) {
    const Status status =
        daemon::ParseUintFlag("--workers", bad, kMaxWorkerThreads, &workers);
    EXPECT_EQ(status.code(), StatusCode::kInvalidProblem) << bad;
    EXPECT_NE(status.message().find("--workers"), std::string::npos) << bad;
    EXPECT_NE(status.message().find("256"), std::string::npos) << bad;
  }
  EXPECT_EQ(workers, 256u);  // untouched by every rejection
}

TEST(DaemonFlags, DoublesMustParseWhollyAndBeFinite) {
  double seconds = 0.0;
  EXPECT_TRUE(daemon::ParseFlag("--idle-timeout", "2.5", &seconds).ok());
  EXPECT_EQ(seconds, 2.5);
  // Negative values are legal: "<= 0 disables" for the timeouts.
  EXPECT_TRUE(daemon::ParseFlag("--idle-timeout", "-1", &seconds).ok());
  EXPECT_EQ(seconds, -1.0);
  for (const char* bad : {"abc", "", "1.5s", "nan", "inf", " 1"}) {
    const Status status = daemon::ParseFlag("--idle-timeout", bad, &seconds);
    EXPECT_EQ(status.code(), StatusCode::kInvalidProblem) << bad;
    EXPECT_NE(status.message().find("--idle-timeout"), std::string::npos);
  }
  EXPECT_EQ(seconds, -1.0);
}

TEST(DaemonFlags, MegabytesRejectNegativesAndOverflow) {
  std::size_t bytes = 0;
  EXPECT_TRUE(daemon::ParseMegabytesFlag("--max-frame-mb", "64", &bytes).ok());
  EXPECT_EQ(bytes, std::size_t{64} << 20);
  EXPECT_FALSE(daemon::ParseMegabytesFlag("--max-frame-mb", "-1", &bytes).ok());
  const std::size_t max_mb = std::numeric_limits<std::size_t>::max() >> 20;
  EXPECT_TRUE(daemon::ParseMegabytesFlag("--max-frame-mb",
                                         std::to_string(max_mb), &bytes)
                  .ok());
  EXPECT_EQ(bytes, max_mb << 20);
  EXPECT_FALSE(daemon::ParseMegabytesFlag("--max-frame-mb",
                                          std::to_string(max_mb + 1), &bytes)
                   .ok());
}

TEST(DaemonFlags, ParseTenantFlag) {
  auto pure = daemon::ParseTenantFlag("acme=2.0");
  ASSERT_TRUE(pure.ok()) << pure.status().message();
  EXPECT_EQ(pure->name, "acme");
  EXPECT_EQ(pure->budget.epsilon, 2.0);
  EXPECT_EQ(pure->budget.delta, 0.0);

  auto approx = daemon::ParseTenantFlag("beta=1.5,0.001");
  ASSERT_TRUE(approx.ok()) << approx.status().message();
  EXPECT_EQ(approx->name, "beta");
  EXPECT_EQ(approx->budget.epsilon, 1.5);
  EXPECT_EQ(approx->budget.delta, 0.001);

  for (const char* bad : {"acme", "=1.0", "acme=", "acme=x", "acme=1.0x",
                          "acme=1.0,", "acme=1.0,abc", "acme=1,2,3"}) {
    const auto parsed = daemon::ParseTenantFlag(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidProblem) << bad;
  }
}

}  // namespace
}  // namespace htdp
