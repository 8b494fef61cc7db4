#!/usr/bin/env bash
# Loopback smoke test of the htdpd daemon driven through the real htdpctl
# binary -- the CI integration leg that exercises the shipped executables,
# not the in-process test server.
#
#   usage: net_smoke.sh <path-to-htdpd> <path-to-htdpctl>
#
# Asserts, in order:
#   * the daemon binds an ephemeral port and reports it on stdout;
#   * list-solvers / submit --wait / poll / stats / cancel round-trip with
#     their documented exit codes;
#   * selfcheck proves the remote fit is BIT-IDENTICAL to a local TryFit at
#     the same seed (exit 3 would mean the wire mangled a double);
#   * an over-budget tenant's submit exits 12 (10 + BUDGET_EXHAUSTED wire
#     code 2) while an in-budget tenant still proceeds; an unknown tenant
#     exits 11;
#   * cancelling a queued job yields exit 15 (10 + CANCELLED wire code 5)
#     from poll --wait;
#   * SIGINT drains gracefully: the daemon finishes in-flight work and
#     exits 0; a SECOND signal mid-drain fast-exits with 130.
#   * overload: with --queue-cap=2 a flood of heavy submits is shed with
#     exit 17 (10 + UNAVAILABLE wire code 7) carrying a retry hint, the
#     shed is visible in stats, and `submit --retry` backs off and
#     completes once the backlog drains.
#   * strict flags: an out-of-range or malformed number makes either
#     binary exit 1 with a message naming the flag, before it binds or
#     connects -- htdpd --port=70000 must not wrap to port 4464.

set -u

HTDPD=${1:?usage: net_smoke.sh <htdpd> <htdpctl>}
HTDPCTL=${2:?usage: net_smoke.sh <htdpd> <htdpctl>}

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

# run_expect <expected-exit-code> <description> <htdpctl args...>
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

# start_daemon <logfile> <extra flags...>; sets DAEMON_PID and PORT.
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
# Strict numeric flags. `timeout` bounds a binary that accepts the bad value
# and starts serving instead (it would exit 124).

# flag_rejected <description> <flag> <command...>
flag_rejected() {
  local what=$1 flag=$2
  shift 2
  timeout 10 "$@" >"$WORK/out" 2>"$WORK/err"
  local got=$?
  if [[ $got -ne 1 ]]; then
    fail "$what: exit $got, want 1"
    sed 's/^/    /' "$WORK/out" "$WORK/err" >&2
  elif ! grep -q -e "$flag" "$WORK/err"; then
    fail "$what: message does not name $flag"
    sed 's/^/    /' "$WORK/err" >&2
  else
    echo "ok: $what (exit $got)"
  fi
}

flag_rejected "htdpd rejects --port=70000" --port "$HTDPD" --port=70000
flag_rejected "htdpd rejects --max-frame-mb=-1" --max-frame-mb \
    "$HTDPD" --port=0 --max-frame-mb=-1
# --port=70000 comes second: a build that took --workers=257 still exits 1,
# on the port, before it starts any thread -- and fails the message check.
flag_rejected "htdpd rejects --workers=257" --workers \
    "$HTDPD" --workers=257 --port=70000
flag_rejected "htdpctl rejects --port=70000" --port \
    "$HTDPCTL" --port=70000 stats

# ---------------------------------------------------------------------------
# Daemon 1: the full control-plane round-trip, tenants included.

start_daemon "$WORK/d1.log" --workers=1 --tenant=acme=2.0,0.1
echo "daemon on port $PORT"

run_expect 0 "list-solvers" list-solvers
grep -q "alg1_dp_fw" "$WORK/out" || fail "list-solvers output lacks alg1_dp_fw"

run_expect 0 "submit --wait" submit --wait --seed=17
grep -q "w checksum" "$WORK/out" || fail "submit --wait printed no checksum"

# Bit-identity through the whole stack: remote fit == local fit, same seed.
run_expect 0 "selfcheck bit-identity" selfcheck --seed=99

# Queued-job cancel: a heavy job (--risk-trace makes every iteration re-score
# the full dataset, ~2s of solver time) pins the single worker; the next job
# queues; the cancel lands while it is queued; poll --wait reports
# CANCELLED (15).
run_expect 0 "submit heavy (no wait)" \
    submit --risk-trace --n=20000 --d=50 --iterations=3000 --seed=5
HEAVY_JOB=$(sed -n 's/^job \([0-9]*\) submitted$/\1/p' "$WORK/out")
run_expect 0 "submit victim (no wait)" submit --seed=6
VICTIM_JOB=$(sed -n 's/^job \([0-9]*\) submitted$/\1/p' "$WORK/out")
run_expect 0 "cancel queued job" cancel --job="$VICTIM_JOB"
run_expect 15 "poll cancelled job exits 15" poll --wait --job="$VICTIM_JOB"
run_expect 0 "heavy job unaffected by cancel" poll --wait --job="$HEAVY_JOB"

# Tenant budgets at the socket: 1.5 of 2.0 fits, then 1.0 > remaining 0.5 is
# rejected with the BUDGET_EXHAUSTED exit code; unknown tenants are typed too.
run_expect 0 "in-budget tenant submit" \
    submit --wait --tenant=acme --epsilon=1.5 --seed=7
run_expect 12 "over-budget tenant exits 12" \
    submit --tenant=acme --epsilon=1.0 --seed=8
run_expect 11 "unknown tenant exits 11" \
    submit --tenant=ghost --epsilon=0.1 --seed=9
run_expect 0 "untenanted submit still fine" submit --wait --seed=10

run_expect 0 "stats" stats
grep -q "tenant acme" "$WORK/out" || fail "stats output lacks tenant acme"
grep -q "budget-rejected" "$WORK/out" || fail "stats output lacks rejects"
run_expect 0 "stats --json" --json stats
grep -q '"budget_rejected": 1' "$WORK/out" \
    || fail "json stats budget_rejected != 1"

# Unknown jobs are typed as INVALID_PROBLEM (wire code 1 -> exit 11).
run_expect 11 "poll of unknown job exits 11" poll --job=424242

# Graceful shutdown: SIGINT with an idle daemon drains instantly, exit 0.
kill -INT "$DAEMON_PID"
stop_daemon_expect 0 "SIGINT drains and exits 0"

# ---------------------------------------------------------------------------
# Daemon 2: double-signal fast exit (130) while a heavy job holds the drain.

start_daemon "$WORK/d2.log" --workers=1
run_expect 0 "submit drain-blocking job" \
    submit --risk-trace --n=20000 --d=50 --iterations=3000 --seed=11
kill -INT "$DAEMON_PID"
sleep 0.3
kill -0 "$DAEMON_PID" 2>/dev/null \
    || fail "daemon exited before the drain finished its in-flight job"
kill -INT "$DAEMON_PID"
stop_daemon_expect 130 "second SIGINT fast-exits 130"

# ---------------------------------------------------------------------------
# Daemon 3: overload shedding and the retry/backoff client.

start_daemon "$WORK/d3.log" --workers=1 --queue-cap=2

# One heavy job occupies the single worker, two more fill the queue to its
# cap; the fourth submit must be shed with the typed UNAVAILABLE exit and a
# retry hint in the message.
run_expect 0 "overload: heavy job occupies the worker" \
    submit --risk-trace --n=10000 --d=40 --iterations=1200 --seed=21
run_expect 0 "overload: queue slot 1" \
    submit --risk-trace --n=10000 --d=40 --iterations=1200 --seed=22
run_expect 0 "overload: queue slot 2" \
    submit --risk-trace --n=10000 --d=40 --iterations=1200 --seed=23
run_expect 17 "overload: flood shed exits 17" submit --seed=24
grep -q "retry after" "$WORK/err" \
    || fail "shed rejection carried no retry hint"

# The backoff client rides out the backlog (unlimited attempts, bounded by
# the deadline) and still completes with a checksum.
run_expect 0 "overload: submit --retry completes" \
    submit --retry --retry-attempts=0 --retry-deadline=120 --seed=25
grep -q "w checksum" "$WORK/out" || fail "--retry submit printed no checksum"

# The shedding shows up in the overload counters, text and JSON. The exact
# count is >= 1: the --retry client's shed attempts counted too.
run_expect 0 "overload: stats counts the shed" stats
grep -Eq "[1-9][0-9]* shed at submit" "$WORK/out" \
    || fail "stats output lacks the shed counter"
run_expect 0 "overload: stats --json" --json stats
grep -Eq '"unavailable_rejected": [1-9]' "$WORK/out" \
    || fail "json stats unavailable_rejected is 0"

kill -INT "$DAEMON_PID"
stop_daemon_expect 0 "overload daemon drains and exits 0"

# ---------------------------------------------------------------------------

if [[ $FAILURES -ne 0 ]]; then
  echo "net_smoke: $FAILURES failure(s)" >&2
  exit 1
fi
echo "net_smoke: all checks passed"
