#ifndef HTDP_PERFBENCH_WORKLOADS_H_
#define HTDP_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "daemon/server.h"
#include "harness/scenario.h"
#include "net/client.h"
#include "net/serialize.h"
#include "replay.h"

namespace htdp::perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct RunOutput {
  MetricSet metrics;
  Outcomes outcomes;
  std::vector<std::string> notes;  // run-header and property lines
  /// The traced replay's spans, tagged by solver; written out at exit.
  std::vector<std::pair<std::string, SpanRecord>> spans;
};

/// Deterministic 64-bit mix of (seed, salt): every input stream of a run
/// derives from the --seed argument through this.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t salt);

/// One solver at one workload shape: the generated data (owned by the
/// ScenarioWorkload) and the spec every fit of it runs with.
struct FitCase {
  Scenario scenario;
  std::unique_ptr<ScenarioWorkload> workload;

  const std::string& solver() const { return scenario.solver; }
  const Problem& problem() const { return workload->problem; }
  const SolverSpec& spec() const { return workload->spec; }
};

/// A streamed submit of `c` (dataset copied by value); the caller sets the
/// seed.
net::SubmitRequest MakeRequest(const FitCase& c);

/// A daemon::Server at its default options with its poll loop on a thread,
/// plus `clients` connected to it over loopback. Stops (drain, join) when
/// destroyed.
struct Daemon {
  std::unique_ptr<daemon::Server> server;
  std::thread loop;
  std::vector<std::unique_ptr<net::Client>> clients;

  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Stop(); }

  void Stop();
};

/// Starts `d`'s server and opens `connections` clients to it.
Status StartDaemon(Daemon& d, std::size_t connections);

/// Submits `request` on `client` and waits for its streamed result.
StatusOr<FitResult> RoundTrip(net::Client& client,
                              const net::SubmitRequest& request);

/// Counts one finished fit of `c` in `outcomes`: an error, or a ledger that
/// composes past the declared budget, is a failure. Returns the result when
/// the fit succeeded.
const FitResult* CheckFit(const StatusOr<FitResult>& fit, const FitCase& c,
                          const char* path, Outcomes& outcomes);

/// Per-workload timing and output statistics of the traced replay, shared
/// by the Engine workloads and the serving workload.
struct ReplayStats {
  std::vector<std::string> solvers;
  std::vector<double> direct_ms;     // fastest direct TryFit per solver
  std::vector<ReplayResult> layers;  // fastest traced replay per solver
  // Per solver, |median over reps of (traced replay - direct fit) / direct
  // fit|, each rep's pair run back to back.
  std::vector<double> sum_gap_pct;
  bool all_exact = true;
  double traced_ms = 0.0;    // sum over solvers of the fastest traced replay
  double untraced_ms = 0.0;  // sum over solvers of the fastest untraced one
  CatoniCensus census;
  std::vector<CatoniCensus> census_per_solver;
  std::vector<std::pair<std::string, SpanRecord>> spans;
};

/// Runs interleaved direct fits and traced/untraced replays of `c` at
/// `fit_seed` and appends the solver's row to `stats`. Checks the replay's
/// iterate against the direct fit bit for bit, and the direct fit's ledger.
void ReplayCase(const FitCase& c, std::uint64_t fit_seed, ReplayStats& stats,
                Outcomes& outcomes);

/// Writes every per-layer metric computed from `stats` into `metrics`, and
/// one property line per solver into `notes`.
void EmitReplayMetrics(const ReplayStats& stats, MetricSet& metrics,
                       std::vector<std::string>& notes);

/// figure_sweep (heavy == false) and heavy_tail_pinned (heavy == true).
void RunEngineWorkload(const RunConfig& config, bool heavy, RunOutput& out);

/// The serve_loopback offered-rate ladder, for the run header.
std::string ServeRateLadder();

/// serve_loopback.
void RunServeWorkload(const RunConfig& config, RunOutput& out);

}  // namespace htdp::perfbench

#endif  // HTDP_PERFBENCH_WORKLOADS_H_
