#!/usr/bin/env bash
# Observability smoke test: a live loopback htdpd scraped through the real
# htdpctl binary -- the CI leg that proves the METRICS wire request, the
# Prometheus exposition and the Chrome trace export work end to end on the
# shipped executables.
#
#   usage: obs_smoke.sh <path-to-htdpd> <path-to-htdpctl>
#
# Asserts, in order:
#   * `htdpctl metrics --prom` returns valid exposition text: every sample
#     line is preceded by # HELP/# TYPE for its family, counter/gauge/
#     histogram families parse, and the scrape ends with a newline;
#   * the scrape carries the acceptance series: per-tenant fit-latency
#     histogram with derived p50/p99, queue-depth gauge, and the tenant
#     budget burn-down gauges;
#   * `htdpctl --json stats` reports the same submitted / completed /
#     succeeded / budget_rejected counts as the scraped
#     htdp_engine_jobs_*_total counters (one Engine, one set of numbers);
#   * `htdpctl metrics` (JSON) is a JSON object with the three sections;
#   * `htdpctl trace --out` writes Chrome trace-event JSON (the Perfetto
#     format) containing solver-iteration, engine-job and daemon-frame
#     spans from the jobs just run;
#   * `--trace=off` suppresses span collection but leaves metrics up.

set -u

HTDPD=${1:?usage: obs_smoke.sh <htdpd> <htdpctl>}
HTDPCTL=${2:?usage: obs_smoke.sh <htdpd> <htdpctl>}

WORK=$(mktemp -d)
FAILURES=0
DAEMON_PID=""

cleanup() {
  [[ -n "$DAEMON_PID" ]] && kill -9 "$DAEMON_PID" 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  FAILURES=$((FAILURES + 1))
}

run_expect() {
  local want=$1 what=$2
  shift 2
  "$HTDPCTL" --port="$PORT" "$@" >"$WORK/out" 2>"$WORK/err"
  local got=$?
  if [[ $got -ne $want ]]; then
    fail "$what: exit $got, want $want"
    sed 's/^/    /' "$WORK/out" "$WORK/err" >&2
  else
    echo "ok: $what (exit $got)"
  fi
}

start_daemon() {
  local log=$1
  shift
  "$HTDPD" --port=0 "$@" >"$log" 2>&1 &
  DAEMON_PID=$!
  PORT=""
  for _ in $(seq 1 100); do
    PORT=$(sed -n 's/^htdpd listening on [0-9.]*:\([0-9]*\)$/\1/p' "$log")
    [[ -n "$PORT" ]] && return 0
    kill -0 "$DAEMON_PID" 2>/dev/null || break
    sleep 0.1
  done
  echo "FATAL: htdpd did not report a port:" >&2
  sed 's/^/    /' "$log" >&2
  exit 1
}

stop_daemon_expect() {
  local want=$1 what=$2
  wait "$DAEMON_PID"
  local got=$?
  DAEMON_PID=""
  if [[ $got -ne $want ]]; then
    fail "$what: daemon exit $got, want $want"
  else
    echo "ok: $what (daemon exit $got)"
  fi
}

# ---------------------------------------------------------------------------
# Daemon 1: tracing on (the default), one approx-budget tenant. The tenant
# registration carries a delta (acme=4.0,0.1) because htdpctl's default
# submit requests an approx budget -- a pure tenant would reject it.

start_daemon "$WORK/d1.log" --workers=2 --tenant=acme=4.0,0.1
echo "daemon on port $PORT"

# Generate traffic for the scrape: tenant fits, an untenanted fit, and one
# over-budget rejection so the burn-down and reject counters move.
run_expect 0 "tenant fit 1" submit --wait --tenant=acme --epsilon=1.0 --seed=31
run_expect 0 "tenant fit 2" submit --wait --tenant=acme --epsilon=1.0 --seed=32
run_expect 0 "untenanted fit" submit --wait --seed=33
run_expect 12 "over-budget submit exits 12" \
    submit --tenant=acme --epsilon=9.0 --seed=34

# --- Prometheus scrape ----------------------------------------------------

run_expect 0 "metrics --prom" metrics --prom
PROM="$WORK/prom.txt"
cp "$WORK/out" "$PROM"

# Exposition-format validation: every non-comment line must look like
# `name{labels} value` or `name value`, every family must carry # HELP and
# # TYPE with a legal type, and the payload must end with a newline.
awk '
  /^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* / { help[$3] = 1; next }
  /^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$/ {
    type[$3] = 1; next
  }
  /^#/ { print "bad comment line: " $0; bad = 1; next }
  /^$/ { next }
  /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9+.eEInf-]+$/ {
    name = $1
    sub(/\{.*/, "", name)
    base = name
    sub(/_(bucket|sum|count)$/, "", base)
    if (!(name in help) && !(base in help)) {
      print "sample without # HELP: " $0; bad = 1
    }
    if (!(name in type) && !(base in type)) {
      print "sample without # TYPE: " $0; bad = 1
    }
    samples++
    next
  }
  { print "unparseable line: " $0; bad = 1 }
  END {
    if (samples == 0) { print "no samples at all"; bad = 1 }
    exit bad
  }
' "$PROM" || fail "metrics --prom is not valid exposition format"
[[ -s "$PROM" && $(tail -c1 "$PROM" | wc -l) -eq 1 ]] \
    || fail "exposition payload does not end with a newline"

expect_series() {
  local what=$1 pattern=$2
  grep -Eq "$pattern" "$PROM" || fail "scrape lacks $what ($pattern)"
}

# The acceptance series: per-tenant latency quantiles, queue depth, budget
# burn-down, engine lifecycle counters, daemon frame counters, event-loop
# and connection gauges.
expect_series "per-tenant fit latency histogram" \
    'htdp_fit_latency_seconds_bucket\{tenant="acme",le="[^"]*"\} [0-9]+'
expect_series "per-tenant latency count" \
    'htdp_fit_latency_seconds_count\{tenant="acme"\} 2'
expect_series "per-tenant p50" 'htdp_fit_latency_seconds_p50\{tenant="acme"\}'
expect_series "per-tenant p99" 'htdp_fit_latency_seconds_p99\{tenant="acme"\}'
expect_series "queue depth gauge" 'htdp_engine_queue_depth [0-9]+'
expect_series "budget total" \
    'htdp_tenant_budget_epsilon_total\{tenant="acme"\} 4'
expect_series "budget spent" \
    'htdp_tenant_budget_epsilon_spent\{tenant="acme"\} 2'
expect_series "budget remaining (burn-down)" \
    'htdp_tenant_budget_epsilon_remaining\{tenant="acme"\} 2'
expect_series "submitted counter" 'htdp_engine_jobs_submitted_total 4'
expect_series "succeeded counter" 'htdp_engine_jobs_succeeded_total 3'
expect_series "budget-rejected counter" \
    'htdp_engine_jobs_budget_rejected_total 1'
expect_series "daemon submit frames" \
    'htdp_daemon_frames_received_total\{type="submit"\} 4'
expect_series "event-loop poll gauge" 'htdp_event_loop_poll_seconds'
expect_series "connection gauge" 'htdp_net_connections'

# --- STATS and METRICS agree -----------------------------------------------
# htdpd runs one Engine, so its EngineStats (the STATS reply) and the
# process-wide engine counters just scraped must be the same numbers.

run_expect 0 "stats --json" --json stats
for field in submitted completed succeeded budget_rejected; do
  stats_value=$(sed -n "s/.*\"$field\": \([0-9]*\).*/\1/p" "$WORK/out")
  scraped=$(sed -n "s/^htdp_engine_jobs_${field}_total \([0-9]*\)$/\1/p" \
      "$PROM")
  if [[ -z "$stats_value" || "$stats_value" != "$scraped" ]]; then
    fail "stats $field=${stats_value:-?} but scraped" \
        "htdp_engine_jobs_${field}_total=${scraped:-?}"
  else
    echo "ok: stats and metrics agree on $field ($stats_value)"
  fi
done

# --- JSON export ----------------------------------------------------------

run_expect 0 "metrics (json)" metrics
head -c1 "$WORK/out" | grep -q '{' || fail "json metrics is not an object"
for section in counters gauges histograms; do
  grep -q "\"$section\"" "$WORK/out" || fail "json metrics lacks $section"
done
grep -q '"htdp_fit_latency_seconds"' "$WORK/out" \
    || fail "json metrics lacks the latency histogram"

# --- Chrome trace export --------------------------------------------------

run_expect 0 "trace --out" trace --out="$WORK/trace.json"
TRACE="$WORK/trace.json"
[[ -s "$TRACE" ]] || fail "trace --out wrote nothing"
head -c16 "$TRACE" | grep -q '{"traceEvents":\[' \
    || fail "trace file is not Chrome trace-event JSON"
# alg1 (DP Frank-Wolfe) privatizes through the exponential mechanism, so
# its DP span is dp.select_gumbel (the Gaussian solvers emit dp.privatize).
for span in engine.job alg1.iteration robust.estimate dp.select_gumbel \
            daemon.dispatch daemon.write engine.queue_wait; do
  grep -q "\"name\":\"$span\"" "$TRACE" || fail "trace lacks $span spans"
done
grep -q '"ph":"X"' "$TRACE" || fail "trace has no complete (X) events"
grep -q '"name":"thread_name"' "$TRACE" \
    || fail "trace has no thread_name metadata"

kill -INT "$DAEMON_PID"
stop_daemon_expect 0 "daemon drains and exits 0"

# ---------------------------------------------------------------------------
# Daemon 2: --trace=off suppresses spans, metrics still scrape.

start_daemon "$WORK/d2.log" --workers=1 --trace=off
run_expect 0 "fit with tracing off" submit --wait --seed=41
run_expect 0 "metrics --prom with tracing off" metrics --prom
grep -q "htdp_engine_jobs_succeeded_total 1" "$WORK/out" \
    || fail "metrics missing with tracing off"
run_expect 0 "trace with tracing off" trace --out="$WORK/trace_off.json"
grep -q '"name":"engine.job"' "$WORK/trace_off.json" \
    && fail "--trace=off still recorded engine.job spans"

kill -INT "$DAEMON_PID"
stop_daemon_expect 0 "trace-off daemon drains and exits 0"

# ---------------------------------------------------------------------------

if [[ $FAILURES -ne 0 ]]; then
  echo "obs_smoke: $FAILURES failure(s)" >&2
  exit 1
fi
echo "obs_smoke: all checks passed"
