#!/usr/bin/env python3
"""Host-cost benchmark of the ALTOCUMULUS simulator.

Builds bench/perf (the altoc_perf binary plus the simulator library, in
Release) and measures what a researcher waiting on a simulation pays:
host time per simulated request, set-up time and peak memory, end to
end, plus a traced run that splits the host time by layer. See
bench/perf/README.md for the metric dictionary and the workloads.

Usage (from the repository root):

  python3 bench/perf/run.py                      all workloads, 5 runs each
                                                 plus one traced run
  python3 bench/perf/run.py --out FILE           ... and save the results
  python3 bench/perf/run.py --workload W --seed N --seconds S --trace 0|1
                                                 one run; the last stdout
                                                 line is a JSON result
  python3 bench/perf/run.py --smoke              every workload at 1% size
  python3 bench/perf/run.py --compare A.json B.json
  python3 bench/perf/run.py --self-test          check --compare's verdicts

Seed 10 is the default. Seed 11 is held out for verifying claims: do not
use it while developing a change.
"""

import argparse
import glob
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perf")
PROBE = os.path.join(BUILD_DIR, "altoc_perf")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
BASELINE_DIR = os.path.join(HERE, "baseline")
FIXTURE_DIR = os.path.join(HERE, "fixtures")

WORKLOADS = ["rss16_fig10", "ac256_fig11", "rack16_p2c", "acrss16_lossy"]
DEFAULT_SEED = 10
REPETITIONS = 5
# Set-up is timed in fresh processes, one set-up each, as a user pays it.
SETUP_PROCESSES = 25
SMOKE_SCALE = 0.01
BUILD_TIMEOUT_S = 840
# A process's timeout is 3x its baseline median length, never under
# this; without a baseline, DEFAULT_PROCESS_S stands in for the median.
MIN_TIMEOUT_S = 5.0
DEFAULT_PROCESS_S = 2.0
# A run (one --workload invocation) ends within this many seconds,
# builds excepted.
RUN_BUDGET_S = 170.0
# The reference kernel's median on the recording host (4-CPU VM,
# bench/perf/baseline). host_ns_per_req_norm is wall time per request
# scaled by REF_NOMINAL_MS / the kernel's time in the same process.
REF_NOMINAL_MS = 9.5
# Fields of a simulation that a host-speed change must leave unchanged.
IDENTITY = ["fingerprint", "fp_events", "completed", "p50_ns", "p99_ns",
            "p999_ns", "violation_ratio", "achieved_mrps"]
# The traced run must reproduce these exactly.
TRACED_MATCH = ["fingerprint", "completed", "p50_ns", "p99_ns"]


def log(msg=""):
    print(msg, flush=True)


def fail(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)
    sys.exit(2)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_benchmark():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


# ---------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------

_running = []


def kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def on_signal(signum, _frame):
    """Take the running child's whole process group down with us."""
    for proc in _running:
        kill_group(proc)
        proc.wait()
    sys.exit(128 + signum)


def run_process(cmd, timeout, stdout=subprocess.PIPE):
    """Run cmd in its own process group; kill the whole group and wait
    for it if it outlives timeout. Returns (returncode, stdout, stderr,
    timed_out, wall seconds)."""
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    _running.append(proc)
    try:
        out, err = proc.communicate(timeout=timeout)
        timed_out = False
    except subprocess.TimeoutExpired:
        kill_group(proc)
        out, err = proc.communicate()
        timed_out = True
    finally:
        _running.remove(proc)
    return proc.returncode, out, err, timed_out, time.monotonic() - start


def build():
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--target", "altoc_perf",
              "-j", jobs]]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        rc, _, err, timed_out, _ = run_process(
            cmd, max(1.0, deadline - time.monotonic()), stdout=sys.stderr)
        if rc != 0 or timed_out:
            sys.stderr.write(err)
            fail("build failed: " + " ".join(cmd))


def baseline_medians():
    """workload -> mode -> median process seconds over the recorded
    baseline sets (empty without a baseline); sets run timeouts."""
    walls = {}
    for path in sorted(glob.glob(os.path.join(BASELINE_DIR, "*.json"))):
        with open(path) as f:
            data = json.load(f)
        for w, res in data["workloads"].items():
            for run in res["runs"] + [res.get("traced", {})]:
                for mode, s in run.get("process_s", {}).items():
                    walls.setdefault(w, {}).setdefault(mode, []).append(s)
    return {w: {m: statistics.median(v) for m, v in modes.items()}
            for w, modes in walls.items()}


class Runner:
    """Starts altoc_perf processes for one workload; counts and checks
    every call."""

    def __init__(self, workload, seed, scale, baseline, deadline):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.baseline = baseline.get(workload, {})
        self.deadline = deadline
        self.attempted = 0
        self.failures = []
        # seed -> fingerprint of its first end-to-end call
        self.fingerprints = {}

    def call(self, mode, index):
        """One altoc_perf process: its JSON result, or None when it crashed,
        timed out or broke conservation or determinism."""
        cmd = [PROBE, "--workload", self.workload, "--mode", mode,
               "--seed", str(self.seed), "--call", str(index),
               "--scale", str(self.scale)]
        expected = self.baseline.get(mode, DEFAULT_PROCESS_S)
        left = self.deadline - time.monotonic()
        timeout = max(1.0, min(max(3.0 * expected, MIN_TIMEOUT_S), left))
        rc, out, err, timed_out, wall = run_process(cmd, timeout)
        self.attempted += 1
        if timed_out or rc != 0:
            self.failures.append("%s %s call %d %s" % (
                self.workload, mode, index,
                "timed out after %.1f s" % timeout if timed_out
                else "exited with %d" % rc))
            for line in err.strip().splitlines()[-5:]:
                print("  | " + line, file=sys.stderr)
            return None
        res = json.loads(out.strip().splitlines()[-1])
        res["process_s"] = wall
        if mode == "setup" or self.conserved(res) and (
                mode != "e2e" or self.repeats(res)):
            return res
        return None

    def conserved(self, res):
        # runExperiment stops once every request completed or was shed,
        # so everything requested was issued; the traced run counts its
        # issues itself.
        issued = res.get("issued", res["requests"])
        if (issued == res["requests"] and
                res["completed"] + res["shed"] + res["tor_shed"] == issued):
            return True
        self.failures.append(
            "%s conservation: completed %d + shed %d + tor_shed %d != "
            "issued %d of %d requested" % (
                self.workload, res["completed"], res["shed"],
                res["tor_shed"], issued, res["requests"]))
        return False

    def repeats(self, res):
        first = self.fingerprints.setdefault(str(res["seed"]),
                                             res["fingerprint"])
        if res["fingerprint"] == first:
            return True
        self.failures.append("%s fingerprint %s differs from %s at seed %d"
                             % (self.workload, res["fingerprint"], first,
                                res["seed"]))
        return False


def calls_for(runner, seconds, min_calls, modes):
    """Start calls 0, 1, ... (each in every mode of modes) until
    seconds passed and min_calls were made. Returns mode -> results."""
    results = {m: [] for m in modes}
    start = time.monotonic()
    index = 0
    while index < min_calls or time.monotonic() - start < seconds:
        if time.monotonic() >= runner.deadline:
            runner.failures.append("%s run budget exhausted" %
                                   runner.workload)
            break
        for m in modes:
            res = runner.call(m, index)
            if res is not None:
                results[m].append(res)
        index += 1
    return results


def identity_of(calls, seed):
    """Identity fields of the call at seed (call 0), if it succeeded."""
    for c in calls:
        if c["seed"] == seed:
            return {k: c[k] for k in IDENTITY + (
                ["events"] if "events" in c else [])}
    return {}


def median_of(calls, key):
    return statistics.median(c[key] for c in calls)


def e2e_run(runner, seconds, min_calls, setups):
    """One end-to-end run: untraced calls for seconds, then set-up in
    fresh processes. Returns the run's values, or None when nothing
    succeeded."""
    calls = calls_for(runner, seconds, min_calls, ["e2e"])["e2e"]
    setup = calls_for(runner, 0, setups, ["setup"])["setup"]
    if not calls or not setup:
        return None
    run = {
        "host_ns_per_req": statistics.median(
            c["wall_s"] / c["requests"] * 1e9 for c in calls),
        "host_ns_per_req_norm": statistics.median(
            c["wall_s"] / c["requests"] * 1e9 * REF_NOMINAL_MS / c["ref_ms"]
            for c in calls),
        "ref_ms": median_of(calls, "ref_ms"),
        "setup_s": median_of(setup, "setup_s"),
        "peak_rss_mb": median_of(calls, "peak_rss_mb"),
        "calls": len(calls),
        "call_wall_s": median_of(calls, "wall_s"),
        "host_cpu_s": median_of(calls, "cpu_s"),
        "process_s": {"e2e": median_of(calls, "process_s"),
                      "setup": median_of(setup, "process_s")},
    }
    run.update(identity_of(calls, runner.seed))
    return run


def traced_run(runner, seconds, min_calls):
    """One traced run: traced calls, each paired with an untraced call
    of the same seed and heap pad. Returns the per-layer metrics
    (medians over calls), or None when nothing succeeded."""
    res = calls_for(runner, seconds, min_calls, ["traced", "e2e"])
    traced, e2e = res["traced"], res["e2e"]
    if not traced or not e2e:
        return None
    by_seed = {c["seed"]: c for c in e2e}
    mismatches = sorted({k for t in traced if t["seed"] in by_seed
                         for k in TRACED_MATCH
                         if t[k] != by_seed[t["seed"]][k]})
    if mismatches:
        log("!" * 72)
        log("!! TRACED RUN DOES NOT REPRODUCE runExperiment on %s: %s "
            "differ" % (runner.workload, ", ".join(mismatches)))
        log("!! The per-layer numbers below are INVALID. The load "
            "generator or the")
        log("!! observation order changed; update altoc_perf.cc's "
            "TracedGenerator.")
        log("!" * 72)
    layers = {k: median_of(traced, k) for k in traced[0] if "." in k}
    layers["bench.trace_overhead_pct"] = (
        median_of(traced, "wall_s") / median_of(e2e, "wall_s") - 1) * 100
    layers["bench.traced_matches"] = 0 if mismatches else 1
    return {"layers": layers, "identity": identity_of(traced, runner.seed),
            "calls": len(traced),
            "process_s": {"traced": median_of(traced, "process_s")}}


# ---------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------

def print_identity(ident):
    log("  identity: " + "  ".join("%s=%s" % kv for kv in ident.items()))


def print_layers(bench, layers):
    for m in bench["per_layer"]:
        log("  %-28s %16.6g %s" % (m["name"], layers[m["name"]], m["unit"]))


def print_e2e_table(bench, runs):
    log("  %-18s %14s %14s %14s   n" % ("metric", "median", "q1", "q3"))
    for m in bench["end_to_end"]:
        q1, med, q3 = quartiles([r[m["name"]] for r in runs])
        log("  %-18s %14.6g %14.6g %14.6g   %d  %s" % (
            m["name"], med, q1, q3, len(runs), m["unit"]))
    log("  per call: wall %.4f s, host_cpu_s %.4f s (user+sys), reference "
        "kernel %.3f ms, %d calls per run" % (
            statistics.median(r["call_wall_s"] for r in runs),
            statistics.median(r["host_cpu_s"] for r in runs),
            statistics.median(r["ref_ms"] for r in runs),
            statistics.median(r["calls"] for r in runs)))


# ---------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------

def contract_run(args, bench):
    """One run as BENCHMARK.json's command: the last stdout line is the
    JSON result."""
    if args.workload not in WORKLOADS:
        fail("unknown workload '%s' (known: %s)" % (args.workload,
                                                   ", ".join(WORKLOADS)))
    build()
    runner = Runner(args.workload, args.seed, 1.0, baseline_medians(),
                    time.monotonic() + RUN_BUDGET_S)
    metrics = {}
    if args.trace == 0:
        run = e2e_run(runner, args.seconds, 2, SETUP_PROCESSES)
        if run is not None:
            log("%s seed %d: %d calls, host_cpu_s %.4f per call, "
                "reference kernel %.3f ms" % (
                    args.workload, args.seed, run["calls"],
                    run["host_cpu_s"], run["ref_ms"]))
            for m in bench["end_to_end"]:
                metrics[m["name"]] = {"value": run[m["name"]],
                                      "unit": m["unit"]}
                log("  %-18s %.6g %s" % (m["name"], run[m["name"]],
                                         m["unit"]))
    else:
        res = traced_run(runner, args.seconds, 2)
        if res is not None:
            log("%s seed %d: %d traced calls" % (args.workload, args.seed,
                                                 res["calls"]))
            print_layers(bench, res["layers"])
            metrics = {m["name"]: {"value": res["layers"][m["name"]],
                                   "unit": m["unit"]}
                       for m in bench["per_layer"]}
    for f in runner.failures:
        log("FAILED: " + f)
    ok = not runner.failures and bool(metrics)
    print(json.dumps({"correct": ok, "attempted": runner.attempted,
                      "failed": len(runner.failures),
                      "metrics": metrics}), flush=True)
    return 0 if ok else 1


def full_set(args, bench, scale, reps, seconds, min_calls, setups):
    """Every workload: reps end-to-end runs plus one traced run."""
    build()
    baseline = baseline_medians()
    results = {"context": host_context(), "seed": args.seed,
               "seconds": seconds, "scale": scale, "workloads": {}}
    any_failed = False
    for w in WORKLOADS:
        log("")
        log("== %s (seed %d, %d run(s) of %gs%s)" % (
            w, args.seed, reps, seconds,
            "" if scale == 1.0 else ", scale %g" % scale))
        runner = Runner(w, args.seed, scale, baseline, float("inf"))
        runs = [r for r in (e2e_run(runner, seconds, min_calls, setups)
                            for _ in range(reps)) if r is not None]
        traced = traced_run(runner, seconds, min_calls)
        if traced is not None:
            print_identity(traced["identity"])
        if runs:
            print_e2e_table(bench, runs)
        if traced is not None:
            log("  traced run (%d calls):" % traced["calls"])
            print_layers(bench, traced["layers"])
        log("  runs_attempted %d  runs_failed %d" % (runner.attempted,
                                                    len(runner.failures)))
        for f in runner.failures:
            log("FAILED: " + f)
        any_failed |= bool(runner.failures) or not runs or traced is None
        results["workloads"][w] = {
            "runs": runs,
            "traced": traced or {},
            "fingerprints": runner.fingerprints,
            "runs_attempted": runner.attempted,
            "runs_failed": len(runner.failures),
        }
    results["context"]["loadavg_end"] = os.getloadavg()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1, sort_keys=True)
            f.write("\n")
        log("\nwrote " + args.out)
    return 1 if any_failed else 0


def host_context():
    ctx = {"nproc": os.cpu_count(), "loadavg_start": os.getloadavg(),
           "machine": platform.machine()}
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    with open(cache) as f:
        m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", f.read(), re.M)
    ctx["build_type"] = m.group(1) if m else "?"
    for path in glob.glob(os.path.join(BUILD_DIR, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        with open(path) as f:
            found = re.findall(
                r'set\(CMAKE_CXX_COMPILER_(?:ID|VERSION) "([^"]*)"\)',
                f.read())
        ctx["compiler"] = " ".join(found)
    rc, out, _, _, _ = run_process(
        ["git", "describe", "--always", "--dirty"], 30)
    ctx["git_revision"] = out.strip() if rc == 0 else "unknown"
    return ctx


# ---------------------------------------------------------------------
# Compare
# ---------------------------------------------------------------------

def verdict(metric, a_vals, b_vals):
    """better / worse / unchanged by the metric's bound, or unresolved
    when either side's IQR exceeds it."""
    bound = metric["bound"]
    qa = quartiles(a_vals)
    qb = quartiles(b_vals)
    change = (qb[1] - qa[1]) / qa[1]
    if metric["better"] == "higher":
        change = -change
    if any((q[2] - q[0]) / q[1] > bound for q in (qa, qb)):
        v = "unresolved"
    elif change > bound:
        v = "worse"
    elif change < -bound:
        v = "better"
    else:
        v = "unchanged"
    return v, qa, qb


def compare(path_a, path_b, bench, quiet=False):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    verdicts = {}
    for w, wa in a["workloads"].items():
        if w not in b["workloads"]:
            continue
        wb = b["workloads"][w]
        ra, rb = wa["runs"], wb["runs"]
        if not quiet:
            log("== %s   A: %s   B: %s" % (w, path_a, path_b))
            fa = wa.get("fingerprints", {})
            fb = wb.get("fingerprints", {})
            shared = set(fa) & set(fb)
            same = all(fa[s] == fb[s] for s in shared)
            log("  identity: %s over %d shared seeds" % (
                "same" if same else "CHANGED (a model change; the goldens "
                "judge it, not this benchmark)", len(shared)))
        for m in bench["end_to_end"]:
            name = m["name"]
            v, qa, qb = verdict(m, [r[name] for r in ra],
                                [r[name] for r in rb])
            verdicts[(w, name)] = v
            if not quiet:
                log("  %-16s A %.6g [%.6g, %.6g] n=%d | B %.6g [%.6g, "
                    "%.6g] n=%d | B/A = %.4f (base: A median %.6g %s) | "
                    "bound %g -> %s" % (
                        name, qa[1], qa[0], qa[2], len(ra), qb[1], qb[0],
                        qb[2], len(rb), qb[1] / qa[1], qa[1], m["unit"],
                        m["bound"], v))
    return verdicts


def self_test(bench):
    base = os.path.join(FIXTURE_DIR, "base.json")
    ok = True
    for expect in ["better", "worse", "unchanged", "unresolved"]:
        got = compare(base, os.path.join(FIXTURE_DIR, expect + ".json"),
                      bench, quiet=True)
        for (w, name), v in sorted(got.items()):
            ok &= v == expect
            log("%-4s %-10s %s/%s -> %s" % ("ok" if v == expect else "FAIL",
                                           expect, w, name, v))
    log("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", help="one run of this workload")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float,
                   help="measured seconds per run (default: "
                        "BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", help="write the full set's results here")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, on_signal)

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the simulator sources (src/) are not here; run from a "
             "checkout of the repository")
    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.self_test:
        return self_test(bench)
    if args.compare:
        compare(args.compare[0], args.compare[1], bench)
        return 0
    if args.workload:
        return contract_run(args, bench)
    if args.smoke:
        return full_set(args, bench, SMOKE_SCALE, 1, 0, 1, 3)
    return full_set(args, bench, 1.0, REPETITIONS, args.seconds, 2,
                    SETUP_PROCESSES)


if __name__ == "__main__":
    sys.exit(main())
