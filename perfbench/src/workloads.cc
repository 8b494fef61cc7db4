#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>

namespace htdp::perfbench {

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

net::WireProblem ToWireProblem(const FitCase& c) {
  net::WireProblem wp;
  wp.data = c.workload->data;
  if (c.scenario.model == Scenario::Model::kLogistic) {
    wp.loss = net::kWireLossLogistic;
    wp.loss_param = c.scenario.ridge;
  } else {
    wp.loss = net::kWireLossSquared;
  }
  if (c.problem().constraint != nullptr) {
    wp.constraint = net::WireConstraint::kL1Ball;
    wp.constraint_radius = 1.0;
  }
  wp.target_sparsity = c.problem().target_sparsity;
  return wp;
}

}  // namespace

net::SubmitRequest MakeRequest(const FitCase& c) {
  net::SubmitRequest request;
  request.solver = c.solver();
  request.spec = c.spec();
  request.problem = ToWireProblem(c);
  request.stream = true;
  return request;
}

void Daemon::Stop() {
  clients.clear();
  if (server != nullptr) server->RequestDrain();
  if (loop.joinable()) loop.join();
  server.reset();
}

Status StartDaemon(Daemon& d, std::size_t connections) {
  StatusOr<std::unique_ptr<daemon::Server>> server =
      daemon::Server::Create(daemon::ServerOptions{});
  if (!server.ok()) return server.status();
  d.server = std::move(server).value();
  d.loop = std::thread([&d] { d.server->Run(); });
  for (std::size_t i = 0; i < connections; ++i) {
    StatusOr<std::unique_ptr<net::Client>> client =
        net::Client::Connect("127.0.0.1", d.server->port());
    if (!client.ok()) return client.status();
    d.clients.push_back(std::move(client).value());
  }
  return Status::Ok();
}

StatusOr<FitResult> RoundTrip(net::Client& client,
                              const net::SubmitRequest& request) {
  StatusOr<std::uint64_t> id = client.Submit(request);
  if (!id.ok()) return id.status();
  return client.AwaitStreamed(*id);
}

const FitResult* CheckFit(const StatusOr<FitResult>& fit, const FitCase& c,
                          const char* path, Outcomes& outcomes) {
  ++outcomes.attempted;
  if (!fit.ok()) {
    outcomes.Fail(c.solver() + " " + path + ": " + fit.status().ToString());
    return nullptr;
  }
  if (!LedgerWithinBudget(*fit, c.spec().budget)) {
    outcomes.Fail(c.solver() + " " + path + ": ledger exceeds the budget");
  }
  return &*fit;
}

void ReplayCase(const FitCase& c, std::uint64_t fit_seed, ReplayStats& stats,
                Outcomes& outcomes) {
  // Every rep runs the identical computation, so the fastest rep of each
  // kind is its cost with the least interference from the rest of the host;
  // layer times come from the fastest traced rep. Short fits get more reps,
  // so a burst of load elsewhere on the host cannot cover all of them. The
  // sum gap pairs each rep's direct fit with its traced replay, run back to
  // back in alternating order so neither side carries an order bias; the
  // median signed gap over reps cancels noise that hits one side of a pair.
  constexpr int kMinReps = 5;
  constexpr int kMaxReps = 40;
  constexpr double kMinSeconds = 4.0;
  const Clock::time_point begin = Clock::now();
  const Solver& solver = *c.workload->solver;
  double direct = std::numeric_limits<double>::infinity();
  double untraced = std::numeric_limits<double>::infinity();
  std::vector<double> gap_pct;
  ReplayResult fastest;
  fastest.wall_ms = std::numeric_limits<double>::infinity();
  CatoniCensus census;
  bool exact = true;
  for (int rep = 0; rep < kMinReps || (rep < kMaxReps &&
                                        Seconds(begin, Clock::now()) < kMinSeconds);
       ++rep) {
    std::optional<StatusOr<FitResult>> fit;
    double direct_ms = 0.0;
    const auto run_direct = [&] {
      Rng rng(fit_seed);
      const Clock::time_point start = Clock::now();
      fit.emplace(solver.TryFit(c.problem(), c.spec(), rng));
      direct_ms = MsSince(start);
    };
    std::string error;
    Tracer traced(true);
    ReplayResult replay;
    const auto run_traced = [&] {
      return ReplayFit(solver, c.problem(), c.spec(), Rng(fit_seed), traced,
                       /*census=*/rep == 0, &replay, &error);
    };
    bool replayed = false;
    if (rep % 2 == 0) {
      run_direct();
      replayed = run_traced();
    } else {
      replayed = run_traced();
      run_direct();
    }
    direct = std::min(direct, direct_ms);
    if (CheckFit(*fit, c, "direct", outcomes) == nullptr) return;
    if (!replayed) {
      outcomes.Fail(c.solver() + " replay: " + error);
      return;
    }
    exact = exact && BitEqual(replay.w, (*fit)->w);
    // The layer spans plus rest_ms make up the replay's wall time.
    gap_pct.push_back(100.0 * (replay.wall_ms - direct_ms) / direct_ms);
    if (replay.wall_ms < fastest.wall_ms) fastest = replay;
    if (rep == 0) {
      census = replay.census;
      for (const SpanRecord& span : traced.spans()) {
        stats.spans.emplace_back(c.solver(), span);
      }
    }

    Tracer plain(false);
    ReplayResult untimed;
    if (!ReplayFit(solver, c.problem(), c.spec(), Rng(fit_seed), plain,
                   /*census=*/false, &untimed, &error)) {
      outcomes.Fail(c.solver() + " replay: " + error);
      return;
    }
    untraced = std::min(untraced, untimed.wall_ms);
    exact = exact && BitEqual(untimed.w, (*fit)->w);
  }
  if (!exact) outcomes.Fail(c.solver() + ": replay iterate differs from fit");
  fastest.census = census;

  stats.solvers.push_back(c.solver());
  stats.direct_ms.push_back(direct);
  stats.layers.push_back(fastest);
  stats.sum_gap_pct.push_back(std::abs(Median(gap_pct)));
  stats.all_exact = stats.all_exact && exact;
  stats.traced_ms += fastest.wall_ms;
  stats.untraced_ms += untraced;
  stats.census.Add(census);
  stats.census_per_solver.push_back(census);
}

void EmitReplayMetrics(const ReplayStats& stats, MetricSet& metrics,
                       std::vector<std::string>& notes) {
  double robust_ms = 0.0;
  for (int l = 0; l < kLayerCount; ++l) {
    double total = 0.0;
    for (const ReplayResult& r : stats.layers) total += r.layer_ms[l];
    if (l == kRobust) robust_ms = total;
    metrics.Set(LayerMetric(static_cast<Layer>(l)), total, "ms");
  }
  double rest = 0.0;
  for (const ReplayResult& r : stats.layers) rest += r.rest_ms;
  metrics.Set("solver.rest_ms", rest, "ms");

  const auto share = [](std::uint64_t part, std::uint64_t whole) {
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
  };
  for (std::size_t i = 0; i < stats.solvers.size(); ++i) {
    const CatoniCensus& cc = stats.census_per_solver[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "solver %-20s direct %9.3f ms  layers+rest %9.3f ms  gap "
                  "%5.2f%%  cold %.6f  split %.6f  spill %.6f  rows/call %.1f",
                  stats.solvers[i].c_str(), stats.direct_ms[i],
                  stats.layers[i].wall_ms, stats.sum_gap_pct[i],
                  share(cc.cold_elements, cc.elements),
                  share(cc.split_elements, cc.elements),
                  share(cc.spill_groups, cc.groups),
                  share(cc.estimate_rows, cc.estimate_calls));
    notes.push_back(line);
  }
  const CatoniCensus& census = stats.census;
  metrics.Set("robust.ns_per_elem",
              census.estimate_elements == 0
                  ? 0.0
                  : 1e6 * robust_ms /
                        static_cast<double>(census.estimate_elements),
              "ns");
  metrics.Set("robust.rows_per_call",
              share(census.estimate_rows, census.estimate_calls), "rows");
  metrics.Set("robust.cold_elem_share",
              share(census.cold_elements, census.elements), "ratio");
  metrics.Set("robust.split_elem_share",
              share(census.split_elements, census.elements), "ratio");
  metrics.Set("robust.spill_group_share",
              share(census.spill_groups, census.groups), "ratio");
  metrics.Set("solver.sum_gap_pct",
              stats.sum_gap_pct.empty()
                  ? 0.0
                  : *std::max_element(stats.sum_gap_pct.begin(),
                                      stats.sum_gap_pct.end()),
              "%");
  metrics.Set("solver.replay_exact", stats.all_exact ? 1.0 : 0.0, "bool");
  metrics.Set("bench.trace_overhead_pct",
              stats.untraced_ms > 0.0
                  ? 100.0 * (stats.traced_ms - stats.untraced_ms) /
                        stats.untraced_ms
                  : 0.0,
              "%");
}

}  // namespace htdp::perfbench
