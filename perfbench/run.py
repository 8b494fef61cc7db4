#!/usr/bin/env python3
"""The htdp repo benchmark.

Run one workload (builds the benchmark first, incrementally):

    python3 perfbench/run.py --workload figure_sweep --seed 1 --seconds 25 --trace 0

  --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
  the traced replay (and writes its spans to .bench_build/traces/). The last
  line of standard output is the result object
  {"correct", "attempted", "failed", "metrics"}.

Compare two result sets (files or directories of saved run outputs):

    python3 perfbench/run.py compare PARENT CHANGE

Seconds-long smoke of every workload in both modes:

    python3 perfbench/run.py selftest
"""

import argparse
import fcntl
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "htdp_perfbench"
WORKLOADS = ("figure_sweep", "heavy_tail_pinned", "serve_loopback")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
MAX_SUM_GAP_PCT = 50.0
SELFTEST_SECONDS = 1


def build():
    """Configures and builds the benchmark into .bench_build (locked)."""
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / ".lock", "w") as lock, open(BUILD / "build.log", "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(os.cpu_count() or 1)
        for cmd in (
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", str(BUILD), "-j", jobs, "--target", "htdp_perfbench"],
        ):
            try:
                done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as err:
                print(f"perfbench: build step failed: {err}", file=sys.stderr)
                return False
            if done.returncode != 0:
                log.flush()
                tail = (BUILD / "build.log").read_text(errors="replace")[-3000:]
                print(f"perfbench: build failed:\n{tail}", file=sys.stderr)
                return False
    return True


def git_rev():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, timeout=10, check=False)
        return done.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_workload(workload, seed, seconds, trace, echo=True):
    """Runs the binary once; returns (exit code, stdout lines)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--git-rev", git_rev()]
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    # The program runs at its shipped defaults: no HTDP_* override leaks in
    # from the caller's environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("HTDP_")}
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 1, []
    lines = out.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    return proc.returncode, lines


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def cmd_run(args):
    if not build():
        return 1
    code, lines = run_workload(args.workload, args.seed, args.seconds, args.trace)
    result = parse_result(lines)
    if result is None:
        print("perfbench: the program printed no result", file=sys.stderr)
        return 1
    print(lines[-1])
    return code


# --- compare ---------------------------------------------------------------

def load_runs(path):
    """{(workload, trace): [result per run, in file order]} plus headers."""
    files = sorted(Path(path).rglob("*")) if Path(path).is_dir() else [Path(path)]
    runs, headers = {}, []
    for file in files:
        if not file.is_file():
            continue
        header = None
        for line in file.read_text(errors="replace").splitlines():
            if line.startswith("# header "):
                header = json.loads(line[len("# header "):])
                headers.append(header)
            elif line.startswith("{") and header is not None:
                key = (header["workload"], header["trace"])
                runs.setdefault(key, []).append(json.loads(line))
                header = None
    return runs, headers


def failed_frac(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 1.0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """The choosing-metrics rule: gain, regression, within bound, unresolved."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    won = wins / len(pairs) if pairs else 0.0
    improved = sign * (cm - pm) > 0
    if won >= 0.9 and improved and abs(cm - pm) > (p3 - p1):
        return won, "gain"
    if bound is None:
        return won, "no claim"
    worse = -sign * (cm - pm) / abs(pm) if pm else 0.0
    spread = (p3 - p1) / abs(pm) if pm else math.inf
    all_better = min(change) > max(parent) if sign > 0 else max(change) < min(parent)
    if spread > bound and not all_better:
        return won, "unresolved"
    return won, "REGRESSION" if worse > bound else "within bound"


def cmd_compare(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_spec = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, parent_headers = load_runs(args.parent)
    change, change_headers = load_runs(args.change)
    hosts = {(h.get("hw_cores"), h.get("simd")) for h in parent_headers + change_headers}
    if len(hosts) > 1:
        print(f"WARNING: runs come from different hosts {sorted(hosts)}; "
              "their numbers are not comparable")
    print(f"{'workload':18} {'metric':30} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'delta':>8} {'won':>5}  verdict")
    regressions = 0
    incorrect = 0
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        p_fail, c_fail = failed_frac(parent[key]), failed_frac(change[key])
        bad = sum(1 for r in change[key] if not r["correct"])
        incorrect += bad
        print(f"{workload:18} --trace {trace}: failed_frac parent {p_fail:.6f}, "
              f"change {c_fail:.6f}; {bad} of {len(change[key])} change runs incorrect")
        # A change that fails more fits than the parent claims no gain.
        more_failures = c_fail > p_fail
        p_runs = [r["metrics"] for r in parent[key]]
        c_runs = [r["metrics"] for r in change[key]]
        for name in sorted(set(p_runs[0]) & set(c_runs[0])):
            info = metric_spec.get(name, {"better": "lower"})
            p = [run[name]["value"] for run in p_runs if name in run]
            c = [run[name]["value"] for run in c_runs if name in run]
            p1, pm, p3 = quartiles(p)
            c1, cm, c3 = quartiles(c)
            won, word = verdict(p, c, info["better"], info.get("bound"))
            if word == "gain" and more_failures:
                word = "no gain (more failures)"
            regressions += word == "REGRESSION"
            delta = 100.0 * (cm - pm) / abs(pm) if pm else 0.0
            note = "" if min(len(p), len(c)) >= 10 else f" ({min(len(p), len(c))} pairs < 10)"
            print(f"{workload:18} {name:30} {pm:12.4g} [{p1:9.4g}, {p3:9.4g}] "
                  f"{cm:12.4g} [{c1:9.4g}, {c3:9.4g}] {delta:+7.2f}% {won:5.2f}  {word}{note}")
    if incorrect:
        print(f"FAILED: {incorrect} change runs report correct: false")
    return 1 if regressions or incorrect else 0


# --- selftest --------------------------------------------------------------

def cmd_selftest():
    """Smoke of every workload: every named metric is emitted, finite and has
    its unit, the replay sums to the fit and the output checks pass."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not build():
        return 1
    problems = []
    for workload in WORKLOADS:
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, lines = run_workload(workload, 1, SELFTEST_SECONDS, trace, echo=False)
            result = parse_result(lines)
            tag = f"{workload} --trace {trace}"
            if code != 0 or result is None:
                problems.append(f"{tag}: exit {code}, result {result is not None}")
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{tag}: output checks failed")
            metrics = result["metrics"]
            for m in expected:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append(f"{tag}: {m['name']} missing")
                elif got["unit"] != m["unit"] or not math.isfinite(got["value"]):
                    problems.append(f"{tag}: {m['name']} = {got}")
            if trace:
                gap = metrics.get("solver.sum_gap_pct", {}).get("value", math.inf)
                if not gap <= MAX_SUM_GAP_PCT:
                    problems.append(f"{tag}: solver.sum_gap_pct {gap:.2f} > {MAX_SUM_GAP_PCT}")
                if metrics.get("solver.replay_exact", {}).get("value") != 1:
                    problems.append(f"{tag}: replay is not bit-exact")
            print(f"selftest {tag}: {len(metrics)} metrics, "
                  f"{result['attempted']} fits, {result['failed']} failed")
    for problem in problems:
        print(f"selftest FAILED {problem}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main(argv):
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("parent")
        parser.add_argument("change")
        return cmd_compare(parser.parse_args(argv[1:]))
    if argv and argv[0] == "selftest":
        argparse.ArgumentParser(prog="run.py selftest").parse_args(argv[1:])
        return cmd_selftest()
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return cmd_run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
