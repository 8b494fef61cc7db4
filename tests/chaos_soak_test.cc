// Chaos soak: seeded wire-fault sweeps against a LIVE loopback daemon.
//
// The acceptance contract of the overload/resilience work lives here:
//   * >= 32 seeded FaultPlans perturb client traffic -- dropped
//     connections, mid-frame truncations, partial writes, injected stalls
//     -- and every fit that completes is BIT-IDENTICAL to a local TryFit
//     at the same seed, with the exact same privacy-ledger composition;
//   * the daemon never crashes and Run() still drains cleanly after every
//     sweep (the TestServer destructor asserts the drain);
//   * a server-side FaultPlan (the HTDP_FAULT_PLAN knob, here via
//     ServerOptions::fault) is survived the same way;
//   * a flood past the engine queue cap is shed with typed UNAVAILABLE
//     carrying a retry_after_ms hint, memory stays bounded (the shed
//     replies arrive immediately), and a backoff client eventually
//     completes against the loaded daemon.
//
// CI runs this suite under ASan and TSan: injected faults must never turn
// into leaks, use-after-frees or races.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/solver_registry.h"
#include "daemon/server.h"
#include "data/synthetic.h"
#include "net/client.h"
#include "net/codec.h"
#include "net/fault.h"
#include "net/transport.h"
#include "rng/rng.h"

#if defined(__SANITIZE_THREAD__)
#define HTDP_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HTDP_TSAN_BUILD 1
#endif
#endif

namespace htdp {
namespace {

/// Small enough that a 32-plan sweep with retries stays fast; large enough
/// that result frames span multiple reads under partial faults.
net::WireProblem SoakProblem(std::size_t n = 160, std::size_t d = 8) {
  Rng rng(23);
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

net::SubmitRequest SoakSubmit(std::uint64_t seed) {
  net::SubmitRequest request;
  request.solver = kSolverAlg1DpFw;
  request.seed = seed;
  request.spec.budget = PrivacyBudget::Pure(1.0);
  request.spec.tau = 4.0;
  request.spec.step = 0.02;
  request.problem = SoakProblem();
  return request;
}

/// The sequential in-process reference every surviving remote fit must
/// match bit for bit -- faults or no faults.
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

void ExpectBitIdentical(const FitResult& remote, const FitResult& local) {
  EXPECT_EQ(remote.w, local.w);  // exact: doubles travel as bits
  EXPECT_EQ(remote.iterations, local.iterations);
  EXPECT_EQ(remote.scale_used, local.scale_used);
  // Exact ledger composition: same mechanisms, same per-entry spend. A
  // retried fit re-runs the identical mechanism sequence, so the ledger is
  // reproduced entry for entry.
  ASSERT_EQ(remote.ledger.entries().size(), local.ledger.entries().size());
  for (std::size_t i = 0; i < local.ledger.entries().size(); ++i) {
    EXPECT_EQ(remote.ledger.entries()[i].epsilon,
              local.ledger.entries()[i].epsilon);
    EXPECT_EQ(remote.ledger.entries()[i].delta,
              local.ledger.entries()[i].delta);
    EXPECT_EQ(remote.ledger.entries()[i].mechanism,
              local.ledger.entries()[i].mechanism);
  }
}

/// An in-process daemon on an ephemeral loopback port, Run() on its own
/// thread, drained and joined at scope exit (a crashed or wedged daemon
/// fails the join).
class TestServer {
 public:
  explicit TestServer(daemon::ServerOptions options = {}) {
    options.port = 0;
    auto created = daemon::Server::Create(std::move(options));
    EXPECT_TRUE(created.ok()) << created.status().message();
    server_ = std::move(created).value();
    thread_ = std::thread([this] { run_status_ = server_->Run(); });
  }

  ~TestServer() {
    if (thread_.joinable()) {
      server_->RequestDrain();
      thread_.join();
    }
    EXPECT_TRUE(run_status_.ok()) << run_status_.message();
  }

  std::uint16_t port() const { return server_->port(); }

 private:
  std::unique_ptr<daemon::Server> server_;
  std::thread thread_;
  Status run_status_ = Status::Ok();
};

/// A Client whose every (re)connection runs through a FaultInjectingStream.
/// Each reconnect gets a fresh, derived fault seed, so the sweep is fully
/// deterministic yet every connection sees a different fault pattern.
StatusOr<std::unique_ptr<net::Client>> ConnectChaosClient(
    std::uint16_t port, const net::FaultPlan& plan) {
  auto next_seed = std::make_shared<std::uint64_t>(plan.seed);
  return net::Client::ConnectWith(
      [port, plan, next_seed]() -> StatusOr<std::unique_ptr<net::ByteStream>> {
        auto inner = net::DialStream("127.0.0.1", port);
        if (!inner.ok()) return inner.status();
        net::FaultPlan connection_plan = plan;
        connection_plan.seed = (*next_seed)++;
        std::unique_ptr<net::ByteStream> stream =
            std::make_unique<net::FaultInjectingStream>(
                std::move(inner).value(), connection_plan);
        return stream;
      });
}

net::RetryPolicy SoakPolicy(std::uint64_t jitter_seed) {
  net::RetryPolicy policy;
  policy.max_attempts = 0;  // unlimited; the deadline bounds the soak
  policy.deadline_seconds = 60.0;
  policy.initial_backoff_ms = 1.0;  // loopback: no reason to dawdle
  policy.max_backoff_ms = 20.0;
  policy.jitter_seed = jitter_seed;
  return policy;
}

// ---------------------------------------------------------------------------
// Client-side fault sweep: 32 seeded plans, every completed fit bit-exact.

TEST(ChaosSoak, ThirtyTwoSeededPlansClientSideBitIdentity) {
  TestServer server;
  const net::SubmitRequest request = SoakSubmit(91);
  const FitResult local = LocalFit(request);

  std::size_t total_retries = 0;
  for (std::uint64_t plan_seed = 1; plan_seed <= 32; ++plan_seed) {
    SCOPED_TRACE("fault plan seed " + std::to_string(plan_seed));
    const net::FaultPlan plan = net::FaultPlan::Chaos(plan_seed);
    auto client = ConnectChaosClient(server.port(), plan);
    ASSERT_TRUE(client.ok()) << client.status().message();

    auto result = client.value()->SubmitAndWaitWithRetry(
        request, SoakPolicy(plan_seed));
    ASSERT_TRUE(result.ok()) << result.status().message();
    ExpectBitIdentical(result.value(), local);
    total_retries += client.value()->retries_used();
  }
  // The sweep must actually have hurt: with the Chaos mix, some of the 32
  // deterministic plans sever a connection mid-request and force retries.
  // (Were this 0, the harness would be testing a faultless wire.)
  EXPECT_GT(total_retries, 0u);
}

TEST(ChaosSoak, StreamedDeliverySurvivesFaultsBitExactly) {
  TestServer server;
  net::SubmitRequest request = SoakSubmit(92);
  request.stream = true;
  const FitResult local = LocalFit(request);

  for (std::uint64_t plan_seed = 101; plan_seed <= 108; ++plan_seed) {
    SCOPED_TRACE("fault plan seed " + std::to_string(plan_seed));
    auto client =
        ConnectChaosClient(server.port(), net::FaultPlan::Chaos(plan_seed));
    ASSERT_TRUE(client.ok());
    auto result = client.value()->SubmitAndWaitWithRetry(
        request, SoakPolicy(plan_seed));
    ASSERT_TRUE(result.ok()) << result.status().message();
    ExpectBitIdentical(result.value(), local);
  }
}

// ---------------------------------------------------------------------------
// Server-side fault injection (what HTDP_FAULT_PLAN wires into htdpd).

TEST(ChaosSoak, ServerSideFaultPlanSurvivedByRetryingClients) {
  daemon::ServerOptions options;
  options.fault = net::FaultPlan::Chaos(424242);
  // Reap connections a server-side truncate left half-open quickly, so the
  // soak does not serialize behind 10-second deadlines.
  options.read_deadline_seconds = 0.5;
  TestServer server(std::move(options));

  const net::SubmitRequest request = SoakSubmit(93);
  const FitResult local = LocalFit(request);
  for (std::uint64_t i = 1; i <= 8; ++i) {
    SCOPED_TRACE("client " + std::to_string(i));
    auto client = net::Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status().message();
    auto result =
        client.value()->SubmitAndWaitWithRetry(request, SoakPolicy(5000 + i));
    ASSERT_TRUE(result.ok()) << result.status().message();
    ExpectBitIdentical(result.value(), local);
  }
}

// ---------------------------------------------------------------------------
// Overload: flood past the queue cap -> typed UNAVAILABLE with a
// retry_after_ms hint; a backoff client still completes.

TEST(OverloadLoopback, FloodIsShedTypedAndBackoffClientCompletes) {
  daemon::ServerOptions options;
  options.engine_workers = 1;
  options.max_queue_depth = 2;  // tiny cap so the flood trips it
  TestServer server(std::move(options));

  auto client = net::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // Each job is heavy enough (~tens of ms via record_risk_trace) that the
  // flood outruns the single worker and the queue cap engages.
  net::SubmitRequest heavy = SoakSubmit(11);
  heavy.problem = SoakProblem(4000, 20);
  heavy.spec.iterations = 500;
  heavy.spec.record_risk_trace = true;

  std::vector<std::uint64_t> admitted;
  std::size_t shed = 0;
  for (int i = 0; i < 10; ++i) {
    heavy.seed = 300 + static_cast<std::uint64_t>(i);
    auto job = client.value()->Submit(heavy);
    if (job.ok()) {
      admitted.push_back(job.value());
      continue;
    }
    ASSERT_EQ(job.status().code(), StatusCode::kUnavailable)
        << job.status().message();
    // The shed reply carried a backoff hint derived from the backlog.
    EXPECT_GT(client.value()->last_retry_after_ms(), 0u);
    ++shed;
  }
  ASSERT_GT(shed, 0u) << "flood never tripped the queue cap";
  ASSERT_GT(admitted.size(), 0u);

  // The shedding is visible in the engine counters over the wire.
  auto stats = client.value()->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats.value().engine.unavailable_rejected, shed);

  // A retrying client backs off per the hints and eventually lands its
  // submit once the backlog drains -- and the result is still bit-exact.
  const net::SubmitRequest request = SoakSubmit(94);
  auto retried = client.value()->SubmitAndWaitWithRetry(request,
                                                        SoakPolicy(777));
  ASSERT_TRUE(retried.ok()) << retried.status().message();
  ExpectBitIdentical(retried.value(), LocalFit(request));
  EXPECT_GE(client.value()->retries_used(), 0u);

  for (std::uint64_t job : admitted) {
    EXPECT_TRUE(client.value()->WaitResult(job).ok());
  }
}

// ---------------------------------------------------------------------------
// Server self-protection: connection cap and mid-frame read deadline.

TEST(OverloadLoopback, ConnectionCapRejectsTypedAndRecovers) {
  daemon::ServerOptions options;
  options.max_connections = 2;
  TestServer server(std::move(options));

  auto first = net::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(first.ok());
  auto second = net::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(second.ok());

  // The third connection is told UNAVAILABLE and hung up on: its first
  // request fails with the typed code.
  auto third = net::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(third.ok());  // TCP accept succeeds; the rejection is framed
  auto rejected = third.value()->ListSolvers();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);

  // Capped connections still serve; freeing one slot restores admission.
  EXPECT_TRUE(first.value()->ListSolvers().ok());
  first.value().reset();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto fourth = net::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(fourth.ok());
  EXPECT_TRUE(fourth.value()->ListSolvers().ok());
}

TEST(OverloadLoopback, MidFrameStallIsReapedByReadDeadline) {
  daemon::ServerOptions options;
  options.read_deadline_seconds = 0.15;
  options.idle_timeout_seconds = 3600.0;  // the idle sweep must NOT be why
  TestServer server(std::move(options));

  auto raw = net::DialTcp("127.0.0.1", server.port());
  ASSERT_TRUE(raw.ok());
  // A valid frame header promising 256 payload bytes we never send: the
  // connection is mid-frame, which the idle heuristic cannot distinguish
  // from a slow sender -- the read deadline must reap it.
  const std::uint8_t partial[] = {
      'h', 't', 'd', 'p',       // magic
      net::kWireVersion,        // version
      0x01,                     // type = SUBMIT
      0x00, 0x00,               // flags
      0x00, 0x01, 0x00, 0x00,   // length = 256, little-endian
  };
  ASSERT_TRUE(
      net::SendAll(raw.value().get(), std::array{net::ByteSpan(partial)})
          .ok());
  std::uint8_t buffer[64];
  auto got = net::RecvSome(raw.value().get(), buffer, sizeof(buffer));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), 0u);  // daemon closed us

  // The daemon is unharmed.
  auto client = net::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client.value()->ListSolvers().ok());
}

TEST(OverloadLoopback, MidDatasetStallIsReapedByReadDeadline) {
  daemon::ServerOptions options;
  options.read_deadline_seconds = 0.15;
  options.idle_timeout_seconds = 3600.0;  // the idle sweep must NOT be why
  TestServer server(std::move(options));

  // A valid SUBMIT whose head declares 64 x 8 doubles, cut 100 bytes into
  // the x block: the head has parsed, and the daemon is writing the dataset
  // into the job's storage when the peer goes quiet.
  net::SubmitRequest request = SoakSubmit(7);
  request.problem = SoakProblem(64, 8);
  net::WireWriter payload;
  net::EncodeSubmit(payload, request);
  const std::vector<std::uint8_t> frame =
      net::EncodeFrame(net::FrameType::kSubmit, payload.bytes());
  const std::size_t dataset_bytes = 8 * (64 * 8 + 64);
  const std::size_t cut = frame.size() - dataset_bytes + 100;

  auto raw = net::DialTcp("127.0.0.1", server.port());
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(net::SendAll(raw.value().get(),
                           std::array{net::ByteSpan(frame.data(), cut)})
                  .ok());
  std::uint8_t buffer[64];
  auto got = net::RecvSome(raw.value().get(), buffer, sizeof(buffer));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), 0u);  // daemon closed us, with no reply

  // The daemon is unharmed.
  auto client = net::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client.value()->ListSolvers().ok());
}

// ---------------------------------------------------------------------------
// Crash chaos: SIGKILL a durable daemon mid-flood at a seeded journal fault
// point, restart on the same --state-dir, and verify recovery is
// conservative -- every spend a client saw committed is still charged, and
// no tenant's remaining budget grew across the crash.

TEST(ChaosSoak, CrashRestartNeverGrowsATenantsRemainingBudget) {
#ifdef HTDP_TSAN_BUILD
  GTEST_SKIP() << "fork-based crash injection is incompatible with TSan";
#else
  ::unsetenv("HTDP_BUDGET_CRASH");
  std::string state_dir;
  {
    std::string tmpl = ::testing::TempDir() + "htdp_crashchaos_XXXXXX";
    std::vector<char> buffer(tmpl.begin(), tmpl.end());
    buffer.push_back('\0');
    ASSERT_NE(::mkdtemp(buffer.data()), nullptr);
    state_dir = buffer.data();
  }
  constexpr double kTenantEpsilon = 1000.0;
  constexpr double kJobEpsilon = 1.0;  // SoakSubmit charges Pure(1.0)

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // The victim daemon: durable ledger, seeded to SIGKILL itself on the
    // 9th journal append -- mid-commit of the 4th tenant job (append 1 is
    // the tenant registration, then reserve+commit per job).
    ::close(fds[0]);
    ::setenv("HTDP_BUDGET_CRASH", "post-write:9", 1);
    daemon::ServerOptions options;
    options.port = 0;
    options.state_dir = state_dir;
    options.fsync = dp::FsyncPolicy::kOff;  // SIGKILL keeps the page cache
    options.engine_workers = 1;
    options.tenants.push_back(
        {"acme", PrivacyBudget::Approx(kTenantEpsilon, 1e-2)});
    auto server = daemon::Server::Create(std::move(options));
    if (!server.ok()) ::_exit(44);
    const std::uint16_t port = server.value()->port();
    if (::write(fds[1], &port, sizeof(port)) !=
        static_cast<ssize_t>(sizeof(port))) {
      ::_exit(44);
    }
    ::close(fds[1]);
    (void)server.value()->Run();
    ::_exit(0);  // only reached if the crash plan never fired
  }
  ::close(fds[1]);
  std::uint16_t port = 0;
  ASSERT_EQ(::read(fds[0], &port, sizeof(port)),
            static_cast<ssize_t>(sizeof(port)));
  ::close(fds[0]);

  // Flood tenant-accounted fits until the injected SIGKILL severs the
  // connection. A job counts as committed only once its result frame
  // arrived -- by then the daemon journaled the COMMIT (commit-before-
  // publish), so that spend must survive the crash.
  net::SubmitRequest request = SoakSubmit(95);
  request.tenant = "acme";
  std::size_t committed = 0;
  {
    auto client = net::Client::Connect("127.0.0.1", port);
    ASSERT_TRUE(client.ok()) << client.status().message();
    for (int i = 0; i < 64; ++i) {
      request.seed = 400 + static_cast<std::uint64_t>(i);
      auto job = client.value()->Submit(request);
      if (!job.ok()) break;  // the daemon died mid-conversation
      if (!client.value()->WaitResult(job.value()).ok()) break;
      ++committed;
    }
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus))
      << "daemon exited "
      << (WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1)
      << " instead of crashing as planned";
  ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);
  ASSERT_GT(committed, 0u) << "the crash fired before any job completed";

  // Restart on the same state dir (no crash plan this time) and read the
  // recovered ledger over the wire.
  daemon::ServerOptions options;
  options.state_dir = state_dir;
  options.fsync = dp::FsyncPolicy::kOff;
  options.tenants.push_back(
      {"acme", PrivacyBudget::Approx(kTenantEpsilon, 1e-2)});
  TestServer server(std::move(options));
  auto client = net::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto budget = client.value()->Budget();
  ASSERT_TRUE(budget.ok()) << budget.status().message();
  EXPECT_TRUE(budget.value().durable);
  EXPECT_EQ(budget.value().state_dir, state_dir);
  EXPECT_GT(budget.value().recovered_records, 0u);

  ASSERT_EQ(budget.value().tenants.size(), 1u);
  const net::BudgetReply::TenantRow& acme = budget.value().tenants[0];
  EXPECT_EQ(acme.name, "acme");
  // Conservative recovery, the invariant the crash must not break: every
  // committed job is still charged, so the remaining budget never grew.
  EXPECT_GE(acme.spent.epsilon,
            static_cast<double>(committed) * kJobEpsilon);
  EXPECT_LE(acme.remaining.epsilon,
            kTenantEpsilon - static_cast<double>(committed) * kJobEpsilon);
  // ...and recovery never over-charges past what was ever admitted: the
  // committed jobs plus at most the one reservation in flight at the kill.
  EXPECT_LE(acme.spent.epsilon,
            static_cast<double>(committed + 1) * kJobEpsilon);
  EXPECT_EQ(acme.open, 0u);

  // The restarted daemon still serves fits on the recovered ledger.
  request.seed = 999;
  auto job = client.value()->Submit(request);
  ASSERT_TRUE(job.ok()) << job.status().message();
  ASSERT_TRUE(client.value()->WaitResult(job.value()).ok());
#endif
}

}  // namespace
}  // namespace htdp
