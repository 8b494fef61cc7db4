// serve_loopback: daemon::Server on loopback, driven through net::Client.
// Small alg1 fits arrive on an open-loop schedule at a ladder of offered
// rates over at most nproc - 1 connections, while one more connection sends
// a large alg1 fit, whose folds fan out over the pool, once a second.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/trace.h"
#include "workloads.h"

namespace htdp::perfbench {
namespace {

// Offered small-fit rates (fits/s) of the open-loop ladder. The middle rung
// offers about a fifth of what nproc - 1 connections carry beside the large
// stream (230-270 small fits/s on a 4-core host), so a stretch of slower
// host does not tip it into queueing, and carries over 1000 fits, so its
// p99 has at least ten samples beyond it. The top rung offers more than the
// connections can carry, so every sender always has a fit in flight; its
// completed rate is the serving capacity, max_rate_fits_per_s.
constexpr double kRates[3] = {25.0, 50.0, 600.0};
constexpr int kMidRung = 1;
// Share of the ladder's schedule each rung gets; the overloaded top rung
// also drains its backlog after its schedule ends.
constexpr double kRungShare[3] = {0.03, 0.90, 0.07};
// One large fit is due every this many seconds (open loop), so the share of
// time the small stream shares the daemon with a large frame and fit is set
// by the schedule, not by how fast the host happens to run.
constexpr double kLargeIntervalS = 1.0;

Scenario ServeScenario(std::size_t n, std::size_t d, int iterations) {
  Scenario s;
  s.solver = kSolverAlg1DpFw;
  s.n = n;
  s.d = d;
  s.spec.budget = PrivacyBudget::Pure(1.0);
  s.spec.iterations = iterations;  // pinned, as serving callers do
  s.spec.scale = 5.0;
  return s;
}

FitCase MakeCase(const Scenario& s, std::uint64_t seed) {
  FitCase c;
  c.scenario = s;
  c.workload = MakeScenarioWorkload(s, seed);
  return c;
}

// Thread-safe outcome sink shared by the client threads.
class SharedOutcomes {
 public:
  explicit SharedOutcomes(Outcomes& outcomes) : outcomes_(outcomes) {}
  const FitResult* Check(const StatusOr<FitResult>& fit, const FitCase& c,
                         const char* path) {
    std::lock_guard<std::mutex> lock(mu_);
    return CheckFit(fit, c, path, outcomes_);
  }
  void Fail(const std::string& why) {
    std::lock_guard<std::mutex> lock(mu_);
    outcomes_.Fail(why);
  }

 private:
  std::mutex mu_;
  Outcomes& outcomes_;
};

struct Rung {
  double rate = 0.0;
  Clock::time_point start;
  Clock::time_point end;
  std::vector<double> latency_ms;  // scheduled send -> result, ok fits
  std::vector<double> lag_ms;      // scheduled send -> actual send
  double completed_per_s = 0.0;
};

// Open loop: request k is due at start + k / rate; each small connection
// takes the next due request, sends it when due (or late, if still busy)
// and waits for its result.
Rung RunRung(Daemon& d, std::size_t small_conns,
             const net::SubmitRequest& base, const FitCase& c, double rate,
             double seconds, std::uint64_t seed_base, SharedOutcomes& outcomes) {
  Rung rung;
  rung.rate = rate;
  const std::size_t total =
      std::max<std::size_t>(1, static_cast<std::size_t>(rate * seconds));
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::vector<double> done_s;
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> senders;
  for (std::size_t t = 0; t < small_conns; ++t) {
    senders.emplace_back([&, t] {
      net::SubmitRequest request = base;
      for (;;) {
        const std::size_t k = next.fetch_add(1);
        if (k >= total) return;
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(k) / rate));
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        request.seed = seed_base + k;
        const StatusOr<FitResult> fit = RoundTrip(*d.clients[t], request);
        const Clock::time_point done = Clock::now();
        const bool ok = outcomes.Check(fit, c, "small") != nullptr;
        std::lock_guard<std::mutex> lock(mu);
        if (ok) {
          rung.latency_ms.push_back(1e3 * Seconds(due, done));
          done_s.push_back(Seconds(start, done));
        }
        rung.lag_ms.push_back(1e3 * Seconds(due, sent));
      }
    });
  }
  for (std::thread& s : senders) s.join();
  rung.start = start;
  rung.end = Clock::now();
  const double span = done_s.empty() ? seconds : Quantile(done_s, 1.0);
  rung.completed_per_s = static_cast<double>(done_s.size()) / span;
  return rung;
}

// Times `call` `reps` times and returns the median in ms.
template <typename F>
double MedianMs(int reps, F&& call) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point start = Clock::now();
    call();
    ms.push_back(MsSince(start));
  }
  return Median(ms);
}

struct CodecTimes {
  double encode_ms = 0.0;
  double decode_ms = 0.0;
  double materialize_ms = 0.0;
  double result_ms = 0.0;
  double bytes = 0.0;
  double Total() const {
    return encode_ms + decode_ms + materialize_ms + result_ms;
  }
};

// The wire codec on the workload's real request and result.
CodecTimes TimeCodec(const net::SubmitRequest& request, const FitResult& fit,
                     int reps, Outcomes& outcomes) {
  CodecTimes t;
  std::vector<std::uint8_t> bytes;
  t.encode_ms = MedianMs(reps, [&] {
    net::WireWriter writer;
    net::EncodeSubmit(writer, request);
    bytes = writer.Take();
  });
  t.bytes = static_cast<double>(bytes.size());
  net::SubmitRequest decoded;
  t.decode_ms = MedianMs(reps, [&] {
    net::WireReader reader(bytes);
    decoded = net::SubmitRequest{};
    if (!net::DecodeSubmit(reader, &decoded).ok()) {
      outcomes.Fail("codec: submit does not decode");
    }
  });
  std::vector<double> materialize;
  for (int r = 0; r < reps; ++r) {
    net::WireProblem copy = decoded.problem;
    const Clock::time_point start = Clock::now();
    auto holder = net::ProblemHolder::Materialize(std::move(copy));
    materialize.push_back(MsSince(start));
    if (!holder.ok()) outcomes.Fail("codec: materialize failed");
  }
  t.materialize_ms = Median(materialize);
  t.result_ms = MedianMs(reps, [&] {
    net::WireWriter writer;
    net::EncodeFitResult(writer, fit);
    const std::vector<std::uint8_t> payload = writer.Take();
    net::WireReader reader(payload);
    FitResult back;
    if (!net::DecodeFitResult(reader, &back).ok() || !SameFit(back, fit)) {
      outcomes.Fail("codec: result does not round-trip");
    }
  });
  return t;
}

}  // namespace

std::string ServeRateLadder() {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g,%g,%g", kRates[0], kRates[1], kRates[2]);
  return buf;
}

void RunServeWorkload(const RunConfig& config, RunOutput& out) {
  const std::size_t cores =
      std::max(2u, std::thread::hardware_concurrency());
  const std::size_t small_conns = cores - 1;
  const Scenario small_s = ServeScenario(2000, 64, 20);
  // 16384 x 256 doubles = 32 MB; T = 8 keeps every fold at 2048 rows, so
  // the robust gradient fans out over the ParallelFor pool.
  const Scenario large_s = ServeScenario(16384, 256, 8);

  if (config.trace) obs::SetTraceCapacity(1u << 16);
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  FitCase small_c;
  FitCase large_c;
  net::SubmitRequest small_req;
  net::SubmitRequest large_req;
  Daemon d;
  SharedOutcomes shared(out.outcomes);
  const int setup_reps = config.trace ? 1 : 3;
  for (int r = 0; r < setup_reps; ++r) {
    d.Stop();
    const Clock::time_point start = Clock::now();
    small_c = MakeCase(small_s, DeriveSeed(config.seed, 1));
    large_c = MakeCase(large_s, DeriveSeed(config.seed, 2));
    generate_s.push_back(Seconds(start, Clock::now()));
    small_req = MakeRequest(small_c);
    large_req = MakeRequest(large_c);
    if (Status s = StartDaemon(d, small_conns + 1); !s.ok()) {
      out.outcomes.Fail("daemon: " + s.ToString());
      ++out.outcomes.attempted;
      return;
    }
    for (std::size_t i = 0; i < small_conns; ++i) {
      small_req.seed = 11 + i;
      shared.Check(RoundTrip(*d.clients[i], small_req), small_c, "warm-up");
    }
    large_req.seed = 11;
    shared.Check(RoundTrip(*d.clients.back(), large_req), large_c, "warm-up");
    setup_s.push_back(Seconds(start, Clock::now()));
  }

  // Solo: one fit in flight, small then large, in two blocks on either side
  // of the ladder, so the medians span the run rather than the few seconds
  // before the ladder (the host's speed drifts over tens of seconds).
  const std::uint64_t small_seed0 = DeriveSeed(config.seed, 100);
  const std::uint64_t large_seed0 = DeriveSeed(config.seed, 200);
  constexpr int kSmallSolo = 40;
  constexpr int kLargeSolo = 16;
  // Latency and latency minus the fit's own duration (the serving hop).
  std::vector<double> small_solo, small_hop, large_solo, large_hop;
  FitResult small_first;
  FitResult large_first;
  const auto solo_fits = [&](FitCase& c, net::SubmitRequest& request,
                             net::Client& client, std::uint64_t seed0,
                             int from, int to, std::vector<double>& latency,
                             std::vector<double>& hop, FitResult& first) {
    for (int k = from; k < to; ++k) {
      request.seed = seed0 + static_cast<std::uint64_t>(k);
      const Clock::time_point start = Clock::now();
      const StatusOr<FitResult> fit = RoundTrip(client, request);
      latency.push_back(MsSince(start));
      const FitResult* ok = shared.Check(fit, c, "solo");
      if (ok == nullptr) continue;
      hop.push_back(latency.back() - 1e3 * ok->seconds);
      if (k == 0) first = *ok;
    }
  };
  const auto solo_block = [&](int half) {
    solo_fits(small_c, small_req, *d.clients[0], small_seed0,
              half * kSmallSolo / 2, (half + 1) * kSmallSolo / 2, small_solo,
              small_hop, small_first);
    solo_fits(large_c, large_req, *d.clients.back(), large_seed0,
              half * kLargeSolo / 2, (half + 1) * kLargeSolo / 2, large_solo,
              large_hop, large_first);
  };
  solo_block(0);

  // The ladder, with the large stream running throughout: a large fit is
  // due every kLargeIntervalS, timed from when it was due.
  std::atomic<bool> stop_large{false};
  std::vector<std::pair<Clock::time_point, double>> large_fits;
  std::thread large_loop([&] {
    net::SubmitRequest request = large_req;
    const auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(kLargeIntervalS));
    Clock::time_point due = Clock::now();
    for (std::uint64_t k = 0; !stop_large.load(); ++k, due += interval) {
      std::this_thread::sleep_until(due);
      if (stop_large.load()) break;
      request.seed = DeriveSeed(config.seed, 300) + k;
      const StatusOr<FitResult> fit = RoundTrip(*d.clients.back(), request);
      const double ms = MsSince(due);
      if (shared.Check(fit, large_c, "large") != nullptr) {
        large_fits.emplace_back(due, ms);
      }
    }
  });
  if (config.trace) {
    obs::ClearTrace();
    obs::SetTraceEnabled(true);
  }
  // At least 3 s (traced: 2 s), so the middle rung outlasts several large
  // fits even in a seconds-long run.
  const double ladder_s = config.trace
                              ? std::max(2.0, 0.3 * config.seconds)
                              : std::max(3.0, config.seconds - 2.0);
  std::vector<Rung> rungs;
  for (int r = 0; r < 3; ++r) {
    if (config.trace && r != kMidRung) continue;
    rungs.push_back(RunRung(d, small_conns, small_req, small_c, kRates[r],
                            kRungShare[r] * ladder_s,
                            DeriveSeed(config.seed, 400 + r), shared));
  }
  stop_large.store(true);
  large_loop.join();
  if (config.trace) obs::SetTraceEnabled(false);
  solo_block(1);
  const Rung& mid = config.trace ? rungs[0] : rungs[kMidRung];
  // Large fits due while the middle rung's small stream ran.
  std::vector<double> large_ms;
  for (const auto& [due, ms] : large_fits) {
    if (due >= mid.start && due < mid.end) large_ms.push_back(ms);
  }

  MetricSet& m = out.metrics;
  const double large_solo_ms = Median(large_solo);
  const double small_solo_ms = Median(small_solo);
  if (!config.trace) {
    m.Set("setup_s", Median(setup_s), "s");
    m.Set("solo_fit_ms", small_solo_ms + large_solo_ms, "ms");
    m.Set("fits_per_s", mid.completed_per_s, "1/s");
    m.Set("fit_p50_ms", Quantile(mid.latency_ms, 0.5), "ms");
    m.Set("large_fit_ms", Median(large_ms), "ms");
    m.Set("max_rate_fits_per_s", rungs.back().completed_per_s, "1/s");
    m.Set("peak_rss_mb", PeakRssMb(), "MB");
  }

  // Bit-identity of the first small and large (solver, seed) across direct
  // TryFit, an in-process Engine and the loopback daemon.
  Engine engine;
  std::vector<double> engine_small;
  std::vector<double> engine_large;
  std::size_t identical = 0;
  for (FitCase* c : {&small_c, &large_c}) {
    const bool small = c == &small_c;
    const std::uint64_t seed = small ? small_seed0 : large_seed0;
    Rng rng(seed);
    const StatusOr<FitResult> direct =
        c->workload->solver->TryFit(c->problem(), c->spec(), rng);
    const FitResult* d_ok = shared.Check(direct, *c, "direct");
    const int reps = config.trace ? (small ? 12 : 3) : 1;
    for (int k = 0; k < reps; ++k) {
      FitJob job;
      job.solver = c->workload->solver;
      job.problem = c->problem();
      job.spec = c->spec();
      job.seed = seed;
      const Clock::time_point start = Clock::now();
      JobHandle handle = engine.Submit(std::move(job));
      const StatusOr<FitResult>& fit = handle.Wait();
      const double latency = MsSince(start);
      const FitResult* e_ok = shared.Check(fit, *c, "engine");
      if (e_ok != nullptr) {
        (small ? engine_small : engine_large)
            .push_back(latency - 1e3 * e_ok->seconds);
      }
      if (k == 0 && d_ok != nullptr && e_ok != nullptr) {
        const FitResult& remote = small ? small_first : large_first;
        if (SameFit(*d_ok, *e_ok) && SameFit(*d_ok, remote)) {
          ++identical;
        } else {
          shared.Fail(c->solver() + ": direct, engine and loopback differ");
        }
      }
    }
  }
  char line[200];
  std::snprintf(line, sizeof(line),
                "identity: %zu/2 (small, large) bit-identical direct == "
                "engine == loopback",
                identical);
  out.notes.push_back(line);

  if (config.trace) {
    ReplayStats stats;
    ReplayCase(small_c, small_seed0, stats, out.outcomes);
    ReplayCase(large_c, large_seed0, stats, out.outcomes);
    EmitReplayMetrics(stats, m, out.notes);
    out.spans = stats.spans;
    m.Set("robust.ns_per_elem_ceiling",
          EstimateCeilingNsPerElem(*large_c.workload->loss,
                                   large_c.workload->data, 4096,
                                   large_c.spec().scale, 5),
          "ns");
    m.Set("engine.hop_ms", Median(engine_small) + Median(engine_large), "ms");

    std::vector<double> waits;
    for (const obs::ThreadTrace& thread : obs::CollectTrace()) {
      for (const obs::Span& span : thread.spans) {
        if (std::strcmp(span.name, "engine.queue_wait") == 0) {
          waits.push_back(1e-6 * static_cast<double>(span.end_ns - span.start_ns));
        }
      }
    }
    obs::ClearTrace();
    m.Set("engine.queue_wait_p50_ms", Quantile(waits, 0.5), "ms");
    m.Set("engine.queue_wait_p99_ms", Quantile(waits, 0.99), "ms");
    StatusOr<net::StatsReply> daemon_stats = d.clients[0]->Stats();
    m.Set("engine.steals_per_fit",
          daemon_stats.ok() && daemon_stats->engine.completed > 0
              ? static_cast<double>(daemon_stats->engine.steals) /
                    static_cast<double>(daemon_stats->engine.completed)
              : 0.0,
          "count");
    m.Set("pool.large_fit_slowdown", Median(large_ms) / large_solo_ms,
          "ratio");

    const CodecTimes small_codec =
        TimeCodec(small_req, small_first, 15, out.outcomes);
    const CodecTimes large_codec =
        TimeCodec(large_req, large_first, 3, out.outcomes);
    m.Set("net.encode_submit_ms", small_codec.encode_ms, "ms");
    m.Set("net.decode_submit_ms", small_codec.decode_ms, "ms");
    m.Set("net.materialize_ms", small_codec.materialize_ms, "ms");
    m.Set("net.result_codec_ms", small_codec.result_ms, "ms");
    m.Set("net.large.encode_submit_ms", large_codec.encode_ms, "ms");
    m.Set("net.large.decode_submit_ms", large_codec.decode_ms, "ms");
    m.Set("net.large.materialize_ms", large_codec.materialize_ms, "ms");
    m.Set("net.submit_mb_per_s",
          1e-3 * (small_codec.bytes + large_codec.bytes) /
              (small_codec.encode_ms + small_codec.decode_ms +
               large_codec.encode_ms + large_codec.decode_ms),
          "MB/s");
    m.Set("daemon.hop_ms",
          (Median(small_hop) - Median(engine_small) - small_codec.Total()) +
              (Median(large_hop) - Median(engine_large) -
               large_codec.Total()),
          "ms");
    m.Set("bench.generator_lag_p99_ms", Quantile(mid.lag_ms, 0.99), "ms");
    m.Set("data.generate_s", Median(generate_s), "s");
  }

  for (const Rung& rung : rungs) {
    std::snprintf(line, sizeof(line),
                  "rung %6.1f fits/s offered: %5zu fits  p50 %8.2f ms  p99 "
                  "%8.2f ms  completed %7.2f/s  lag p99 %7.2f ms",
                  rung.rate, rung.latency_ms.size(),
                  Quantile(rung.latency_ms, 0.5),
                  Quantile(rung.latency_ms, 0.99), rung.completed_per_s,
                  Quantile(rung.lag_ms, 0.99));
    out.notes.push_back(line);
  }
  // Printed, not a result metric: see "fit_p99_ms" in README.md.
  std::snprintf(line, sizeof(line), "fit_p99_ms %.6f ms over %zu middle-rung fits",
                Quantile(mid.latency_ms, 0.99), mid.latency_ms.size());
  out.notes.push_back(line);
  std::snprintf(line, sizeof(line),
                "load: %zu small connections open loop, 1 large fit due "
                "every %.1f s (%zu in the middle rung); unloaded small p50 "
                "%.2f ms, large p50 %.2f ms",
                small_conns, kLargeIntervalS, large_ms.size(), small_solo_ms,
                large_solo_ms);
  out.notes.push_back(line);
}

}  // namespace htdp::perfbench
