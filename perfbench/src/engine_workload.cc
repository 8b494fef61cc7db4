// figure_sweep and heavy_tail_pinned: figure-scale fits through the Engine,
// one in flight (solo) and as a closed batch, plus the traced replay.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>

#include "api/solver_common.h"
#include "bench_common.h"
#include "workloads.h"

namespace htdp::perfbench {
namespace {

using bench::LinearWorkload;
using bench::PaperDelta;

// The Section 6 figure configs, built with the figure benches' own
// scenario builders (bench/bench_common.h) so the two cannot drift.
std::vector<Scenario> FigureScenarios() {
  const LinearWorkload linear;
  const ScalarDistribution sparse_noise = ScalarDistribution::Lognormal(0.0, 0.5);
  return {
      bench::PolytopeLinearScenario(kSolverAlg1DpFw, PrivacyBudget::Pure(1.0),
                                    10000, 400, linear, true),
      bench::PolytopeLinearScenario(
          kSolverAlg2PrivateLasso,
          PrivacyBudget::Approx(1.0, PaperDelta(10000)), 10000, 400, linear,
          false),
      bench::SparseLinRegScenario(
          kSolverAlg3SparseLinReg,
          PrivacyBudget::Approx(1.0, PaperDelta(20000)), 20000, 400, 20,
          sparse_noise),
      bench::SparseLinRegScenario(
          kSolverAlg4Peeling, PrivacyBudget::Approx(1.0, PaperDelta(20000)),
          20000, 800, 20, sparse_noise),
      bench::SparseLogisticScenario(
          kSolverAlg5SparseOpt, PrivacyBudget::Approx(1.0, PaperDelta(8000)),
          8000, 400, 20, ScalarDistribution::Normal(0.0, 5.0),
          ScalarDistribution::Logistic(0.0, 0.5), 25.0),
      bench::PolytopeLinearScenario(
          kSolverBaselineRobustGd,
          PrivacyBudget::Approx(1.0, PaperDelta(10000)), 10000, 400, linear,
          true),
  };
}

// The robust-gradient solvers on Lognormal(0, 2) features with the
// truncation scale pinned to 1, the way serving callers pin schedules.
std::vector<Scenario> HeavyTailScenarios() {
  const ScalarDistribution features = ScalarDistribution::Lognormal(0.0, 2.0);
  const LinearWorkload heavy{features, ScalarDistribution::Normal(0.0, 0.1)};
  std::vector<Scenario> scenarios = {
      bench::PolytopeLinearScenario(kSolverAlg1DpFw, PrivacyBudget::Pure(1.0),
                                    10000, 400, heavy, true),
      bench::SparseLogisticScenario(
          kSolverAlg5SparseOpt, PrivacyBudget::Approx(1.0, PaperDelta(8000)),
          8000, 400, 20, features, ScalarDistribution::Logistic(0.0, 0.5),
          25.0),
      bench::PolytopeLinearScenario(
          kSolverBaselineRobustGd,
          PrivacyBudget::Approx(1.0, PaperDelta(10000)), 10000, 400, heavy,
          true),
  };
  for (Scenario& s : scenarios) s.spec.scale = 1.0;
  return scenarios;
}

// Engine-side timestamps of one job, stamped by the spec's hooks (which
// never touch the optimisation path): first should_stop poll = the job
// left the queue, the final observer call = the fit finished its loop.
struct JobTimes {
  std::atomic<std::uint64_t> start_ns{0};
  std::atomic<std::uint64_t> end_ns{0};
};

FitJob MakeJob(const FitCase& c, std::uint64_t fit_seed,
               const std::shared_ptr<JobTimes>& times) {
  FitJob job;
  job.solver = c.workload->solver;
  job.solver_name = c.solver();
  job.problem = c.problem();
  job.spec = c.spec();
  job.seed = fit_seed;
  job.tag = c.solver();
  if (times != nullptr) {
    job.spec.should_stop = [times] {
      std::uint64_t unset = 0;
      times->start_ns.compare_exchange_strong(unset, Tracer::Now());
      return false;
    };
    job.spec.observer = [times](const IterationEvent& event) {
      if (event.iteration == event.total_iterations) {
        times->end_ns.store(Tracer::Now());
      }
    };
  }
  return job;
}

// Every solver's scenario on `datasets` independently generated datasets.
struct Fleet {
  std::size_t solvers = 0;
  std::size_t datasets = 0;
  std::vector<FitCase> cases;  // dataset-major
  std::unique_ptr<Engine> engine;

  const FitCase& Case(std::size_t solver, std::size_t dataset) const {
    return cases[(dataset % datasets) * solvers + solver];
  }
};

// Generates every case's data from the workload seed and starts the Engine
// at its shipped defaults; warms each solver with one short fit.
Fleet SetUp(const std::vector<Scenario>& scenarios, std::size_t datasets,
            std::uint64_t seed, double* generate_s, Outcomes& outcomes) {
  Fleet fleet;
  fleet.solvers = scenarios.size();
  fleet.datasets = datasets;
  const Clock::time_point start = Clock::now();
  for (std::size_t j = 0; j < datasets; ++j) {
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      FitCase c;
      c.scenario = scenarios[i];
      c.workload = MakeScenarioWorkload(c.scenario, DeriveSeed(seed, 100 * j + i));
      fleet.cases.push_back(std::move(c));
    }
  }
  *generate_s = Seconds(start, Clock::now());
  fleet.engine = std::make_unique<Engine>();
  for (std::size_t i = 0; i < fleet.solvers; ++i) {
    const FitCase& c = fleet.Case(i, 0);
    // A tenth of the rows warms every code path and the pool without making
    // set-up time depend on how slow the full fit happens to be.
    FitJob job = MakeJob(c, 7, nullptr);
    job.problem.prefix = c.problem().size() / 10;
    JobHandle handle = fleet.engine->Submit(std::move(job));
    CheckFit(handle.Wait(), c, "warm-up", outcomes);
  }
  return fleet;
}

struct SoloSample {
  std::vector<std::vector<double>> latency_ms;  // per solver
  std::vector<std::vector<double>> hop_ms;  // latency - FitResult.seconds
};

// One fit in flight: each solver in turn (rotated per pass) on the pass's
// dataset, submit + wait.
void SoloPass(Fleet& fleet, std::uint64_t seed, int pass, SoloSample& solo,
              std::vector<FitResult>* keep, Outcomes& outcomes) {
  const std::size_t n = fleet.solvers;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = (k + static_cast<std::size_t>(pass)) % n;
    const FitCase& c = fleet.Case(i, static_cast<std::size_t>(pass));
    const std::uint64_t fit_seed =
        DeriveSeed(seed, 1000 + 100 * static_cast<std::uint64_t>(pass) + i);
    const Clock::time_point start = Clock::now();
    JobHandle handle = fleet.engine->Submit(MakeJob(c, fit_seed, nullptr));
    const StatusOr<FitResult>& fit = handle.Wait();
    const double latency = MsSince(start);
    solo.latency_ms[i].push_back(latency);
    if (const FitResult* ok = CheckFit(fit, c, "solo", outcomes)) {
      solo.hop_ms[i].push_back(latency - 1e3 * ok->seconds);
      if (keep != nullptr) (*keep)[i] = *ok;
    }
  }
}

struct BatchSample {
  std::vector<double> latency_ms;     // batch start -> fit done
  std::vector<double> queue_wait_ms;  // submit -> first should_stop poll
  std::vector<double> submit_lag_ms;  // batch start -> Submit returned
  std::vector<std::vector<double>> service_ms;  // per solver
  double jobs = 0.0;
  double makespan_s = 0.0;
  double saturated_jobs = 0.0;  // finished while the backlog was non-empty
  double saturated_s = 0.0;
  std::size_t steals = 0;
};

// A closed batch: `per_solver` fit seeds of every solver, spread over the
// datasets, submitted together.
void BatchRound(Fleet& fleet, std::uint64_t seed, int round, int per_solver,
                BatchSample& batch, std::vector<FitResult>* keep,
                Outcomes& outcomes) {
  const std::size_t n = fleet.solvers;
  struct Pending {
    std::size_t index;
    std::uint64_t submit_ns;
    std::shared_ptr<JobTimes> times;
    JobHandle handle;
  };
  std::vector<Pending> pending;
  const std::size_t steals_before = fleet.engine->stats().steals;
  const std::uint64_t t0 = Tracer::Now();
  for (int k = 0; k < per_solver; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      // Round 0's first seed per solver equals its first solo seed (both on
      // dataset 0), so the batch, solo and direct paths can be compared.
      const std::uint64_t fit_seed =
          k == 0 && round == 0
              ? DeriveSeed(seed, 1000 + i)
              : DeriveSeed(seed, 500000 + 1000 * static_cast<std::uint64_t>(round) +
                                     100 * static_cast<std::uint64_t>(k) + i);
      auto times = std::make_shared<JobTimes>();
      const std::uint64_t submit_ns = Tracer::Now();
      JobHandle handle = fleet.engine->Submit(MakeJob(
          fleet.Case(i, static_cast<std::size_t>(k)), fit_seed, times));
      batch.submit_lag_ms.push_back(1e-6 *
                                    static_cast<double>(Tracer::Now() - t0));
      pending.push_back({i, submit_ns, std::move(times), std::move(handle)});
    }
  }
  std::uint64_t last_start = t0;
  std::uint64_t last_end = t0;
  for (Pending& p : pending) {
    const StatusOr<FitResult>& fit = p.handle.Wait();
    const FitResult* ok =
        CheckFit(fit, fleet.Case(p.index, 0), "batch", outcomes);
    if (ok == nullptr) continue;
    const std::uint64_t start = p.times->start_ns.load();
    const std::uint64_t end = p.times->end_ns.load();
    last_start = std::max(last_start, start);
    last_end = std::max(last_end, end);
    batch.latency_ms.push_back(1e-6 * static_cast<double>(end - t0));
    batch.queue_wait_ms.push_back(1e-6 *
                                  static_cast<double>(start - p.submit_ns));
    batch.service_ms[p.index].push_back(1e3 * ok->seconds);
    if (keep != nullptr && &p == &pending[p.index]) (*keep)[p.index] = *ok;
  }
  double saturated = 0.0;
  for (const Pending& p : pending) {
    if (p.times->end_ns.load() <= last_start) saturated += 1.0;
  }
  batch.jobs += static_cast<double>(pending.size());
  batch.makespan_s += 1e-9 * static_cast<double>(last_end - t0);
  batch.saturated_jobs += saturated;
  batch.saturated_s += 1e-9 * static_cast<double>(last_start - t0);
  batch.steals += fleet.engine->stats().steals - steals_before;
}

double SumOfMedians(const std::vector<std::vector<double>>& per_case) {
  double total = 0.0;
  for (const auto& v : per_case) total += Median(v);
  return total;
}

// Bit-identity of one (solver, seed) across direct TryFit, the Engine (solo
// and batch) and, for `loopback` cases, the daemon over a loopback socket.
void CheckIdentity(const Fleet& fleet, std::uint64_t seed,
                   const std::vector<FitResult>& solo,
                   const std::vector<FitResult>& batch,
                   const std::vector<std::size_t>& loopback,
                   Outcomes& outcomes, std::vector<std::string>& notes) {
  std::size_t identical = 0;
  for (std::size_t i = 0; i < fleet.solvers; ++i) {
    const FitCase& c = fleet.Case(i, 0);
    Rng rng(DeriveSeed(seed, 1000 + i));
    const StatusOr<FitResult> direct =
        c.workload->solver->TryFit(c.problem(), c.spec(), rng);
    const FitResult* ok = CheckFit(direct, c, "direct", outcomes);
    if (ok == nullptr) continue;
    if (!SameFit(*ok, solo[i]) || !SameFit(*ok, batch[i])) {
      outcomes.Fail(c.solver() + ": Engine result differs from direct TryFit");
    } else {
      ++identical;
    }
  }
  if (!loopback.empty()) {
    Daemon d;
    if (Status s = StartDaemon(d, 1); !s.ok()) {
      outcomes.Fail("daemon: " + s.ToString());
      return;
    }
    for (const std::size_t i : loopback) {
      const FitCase& c = fleet.Case(i, 0);
      net::SubmitRequest request = MakeRequest(c);
      request.seed = DeriveSeed(seed, 1000 + i);
      const StatusOr<FitResult> remote = RoundTrip(*d.clients[0], request);
      const FitResult* ok = CheckFit(remote, c, "loopback", outcomes);
      if (ok != nullptr && !SameFit(*ok, solo[i])) {
        outcomes.Fail(c.solver() + ": loopback result differs from direct");
      }
    }
  }
  char line[160];
  std::snprintf(line, sizeof(line),
                "identity: %zu/%zu solvers bit-identical direct == engine "
                "solo == engine batch; %zu via loopback",
                identical, fleet.solvers, loopback.size());
  notes.push_back(line);
}

}  // namespace

void RunEngineWorkload(const RunConfig& config, bool heavy, RunOutput& out) {
  const std::vector<Scenario> scenarios =
      heavy ? HeavyTailScenarios() : FigureScenarios();
  const std::size_t n = scenarios.size();
  constexpr int kPerSolver = 4;  // fit seeds per solver in one closed batch
  // Heavy-tailed data make a fit's cost depend on the draw of the extreme
  // rows, so that workload spreads its fits over four datasets per solver;
  // one dataset per solver suffices for the figure configs.
  const std::size_t datasets = heavy ? 4 : 1;

  // Set-up runs three times; the median is reported and the last kept.
  const int setup_reps = config.trace ? 1 : 3;
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  Fleet fleet;
  for (int r = 0; r < setup_reps; ++r) {
    fleet = Fleet{};
    const Clock::time_point start = Clock::now();
    double gen = 0.0;
    fleet = SetUp(scenarios, datasets, config.seed, &gen, out.outcomes);
    setup_s.push_back(Seconds(start, Clock::now()));
    generate_s.push_back(gen);
  }

  SoloSample solo{std::vector<std::vector<double>>(n),
                  std::vector<std::vector<double>>(n)};
  BatchSample batch;
  batch.service_ms.resize(n);
  std::vector<FitResult> solo_keep(n);
  std::vector<FitResult> batch_keep(n);
  const Clock::time_point measure_start = Clock::now();
  const int min_rounds = config.trace ? 1 : 3;
  const double budget_s = config.trace ? 0.25 * config.seconds : config.seconds;
  int rounds = 0;
  while (rounds < min_rounds ||
         Seconds(measure_start, Clock::now()) < budget_s) {
    // Two solo passes per batch: one fit in flight yields a sample per fit,
    // the batch several, so this keeps the two sample counts comparable.
    SoloPass(fleet, config.seed, 2 * rounds, solo,
             rounds == 0 ? &solo_keep : nullptr, out.outcomes);
    SoloPass(fleet, config.seed, 2 * rounds + 1, solo, nullptr, out.outcomes);
    BatchRound(fleet, config.seed, rounds, kPerSolver, batch,
               rounds == 0 ? &batch_keep : nullptr, out.outcomes);
    ++rounds;
  }

  for (std::size_t i = 0; i < n; ++i) {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "solo %-20s p50 %9.3f ms  [q1 %9.3f, q3 %9.3f] over %zu fits",
                  scenarios[i].solver.c_str(), Median(solo.latency_ms[i]),
                  Quantile(solo.latency_ms[i], 0.25),
                  Quantile(solo.latency_ms[i], 0.75), solo.latency_ms[i].size());
    out.notes.push_back(line);
  }

  MetricSet& m = out.metrics;
  if (!config.trace) {
    m.Set("setup_s", Median(setup_s), "s");
    m.Set("solo_fit_ms", SumOfMedians(solo.latency_ms), "ms");
    m.Set("fits_per_s", batch.jobs / batch.makespan_s, "1/s");
    m.Set("fit_p50_ms", Quantile(batch.latency_ms, 0.5), "ms");
    m.Set("large_fit_ms", SumOfMedians(batch.service_ms), "ms");
    m.Set("max_rate_fits_per_s", batch.saturated_jobs / batch.saturated_s,
          "1/s");
    m.Set("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    ReplayStats stats;
    for (std::size_t i = 0; i < n; ++i) {
      ReplayCase(fleet.Case(i, 0), DeriveSeed(config.seed, 1000 + i), stats,
                 out.outcomes);
    }
    EmitReplayMetrics(stats, m, out.notes);
    out.spans = stats.spans;
    const FitCase& first = fleet.Case(0, 0);
    const StatusOr<SolverSpec> resolved =
        TryResolveSpec(*first.workload->solver, first.problem(), first.spec());
    m.Set("robust.ns_per_elem_ceiling",
          resolved.ok() ? EstimateCeilingNsPerElem(*first.workload->loss,
                                                   first.workload->data, 4096,
                                                   resolved->scale, 5)
                        : 0.0,
          "ns");
    m.Set("engine.hop_ms", SumOfMedians(solo.hop_ms), "ms");
    m.Set("engine.queue_wait_p50_ms", Quantile(batch.queue_wait_ms, 0.5), "ms");
    m.Set("engine.queue_wait_p99_ms", Quantile(batch.queue_wait_ms, 0.99),
          "ms");
    m.Set("engine.steals_per_fit",
          static_cast<double>(batch.steals) / batch.jobs, "count");
    m.Set("pool.large_fit_slowdown",
          SumOfMedians(batch.service_ms) / Sum(stats.direct_ms), "ratio");
    for (const char* name :
         {"net.encode_submit_ms", "net.decode_submit_ms", "net.materialize_ms",
          "net.result_codec_ms", "net.large.encode_submit_ms",
          "net.large.decode_submit_ms", "net.large.materialize_ms"}) {
      m.Set(name, 0.0, "ms");
    }
    m.Set("net.submit_mb_per_s", 0.0, "MB/s");
    m.Set("daemon.hop_ms", 0.0, "ms");
    m.Set("bench.generator_lag_p99_ms", Quantile(batch.submit_lag_ms, 0.99),
          "ms");
    m.Set("data.generate_s", Median(generate_s), "s");
  }

  CheckIdentity(fleet, config.seed, solo_keep, batch_keep,
                /*loopback=*/{0}, out.outcomes, out.notes);
  char line[200];
  // Printed, not a result metric: see "fit_p99_ms" in README.md.
  std::snprintf(line, sizeof(line), "fit_p99_ms %.6f ms over %zu batch fits",
                Quantile(batch.latency_ms, 0.99), batch.latency_ms.size());
  out.notes.push_back(line);
  std::snprintf(line, sizeof(line),
                "load: %d rounds; %zu datasets per solver; solo = one fit in "
                "flight x %zu solvers, twice per round; batch = %d seeds x "
                "%zu solvers closed; %zu batch fits",
                rounds, datasets, n, kPerSolver, n, batch.latency_ms.size());
  out.notes.push_back(line);
}

}  // namespace htdp::perfbench
