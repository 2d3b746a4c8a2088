#!/usr/bin/env python3
"""Paired host-cost comparison of two revisions on one workload.

Checks out BASE and HEAD as detached git worktrees under a temporary
directory, builds each with its own bench/perf/run.py, checks that
both simulate the same thing, then runs interleaved pairs of

  bench/perf/run.py --workload W --seed S --seconds T --trace 0

one per side, alternating which side goes first. It prints, for every
end-to-end metric in BENCHMARK.json, each side's median and
quartiles, the paired ratio HEAD/BASE, the pairs HEAD won, the median
gap against BASE's interquartile range and a verdict:

  gain                HEAD won at least 9 of 10 pairs (ties count for
                      neither side) and the medians differ by more
                      than BASE's IQR
  worse beyond bound  HEAD's median is worse than BASE's by more than
                      the metric's bound
  unresolved          a side's IQR exceeds the bound, and not every
                      HEAD run beats every BASE run
  unchanged           none of the above

Usage (from anywhere inside the repository):

  scripts/ab.py BASE HEAD --workload W [--seed 11] [--pairs 10]
                [--seconds 20]
  scripts/ab.py --self-test      check the verdict rules on canned data

BASE and HEAD are any git revisions (a commit, a branch, HEAD~1).
Seed 11 is the benchmark's held-out seed, so it is the default.

CPU affinity is inherited, so `taskset -c N scripts/ab.py ...` pins
every build, run.py and altoc_perf process of the comparison to
CPU N. The worktrees go under $TMPDIR (default /tmp) and are removed
on exit, also on Ctrl-C. Exits 1 when the two sides' identity fields
differ or a run fails.
"""

import argparse
import importlib.util
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_PY = os.path.join("bench", "perf", "run.py")
PROBE = os.path.join(".bench_build", "perf", "altoc_perf")
# A gain needs this share of all pairs won (choosing-metrics, sec. 8).
WIN_SHARE = 0.9


def load_run_py():
    """This checkout's bench/perf/run.py as a module: the identity
    fields and the quartile rule come from there, not from a copy."""
    spec = importlib.util.spec_from_file_location(
        "altoc_run", os.path.join(ROOT, RUN_PY))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


RUN = load_run_py()


def log(msg=""):
    print(msg, flush=True)


# ---------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------

def rel_iqr(q):
    """Interquartile range over the median of (q1, median, q3)."""
    return (q[2] - q[0]) / q[1] if q[1] != 0 else 0.0


def summarize(metric, base, head):
    """Compare paired values of one metric (base[i] and head[i] are
    pair i). Returns a dict of the table's fields and the verdict."""
    lower = metric["better"] == "lower"
    qb = RUN.quartiles(base)
    qh = RUN.quartiles(head)
    wins = sum(1 for b, h in zip(base, head)
               if (h < b if lower else h > b))
    ratios = [h / b for b, h in zip(base, head) if b != 0]
    ratio = statistics.median(ratios) if ratios else float("nan")
    iqr = qb[2] - qb[0]
    gap = qh[1] - qb[1]
    better_gap = -gap if lower else gap
    change = gap / qb[1] if qb[1] != 0 else 0.0
    worse_change = change if lower else -change
    spread = max(rel_iqr(qb), rel_iqr(qh))
    all_better = (max(head) < min(base)) if lower else \
        (min(head) > max(base))
    if wins >= math.ceil(WIN_SHARE * len(base)) and better_gap > iqr:
        verdict = "gain"
    elif worse_change > metric["bound"]:
        verdict = "worse beyond bound"
    elif spread > metric["bound"] and not all_better:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {"base": qb, "head": qh, "ratio": ratio, "wins": wins,
            "pairs": len(base), "gap": gap, "iqr": iqr, "verdict": verdict}


def self_test():
    """The verdict rules on canned pairs."""
    lower = {"name": "t", "better": "lower", "bound": 0.05}
    higher = {"name": "t", "better": "higher", "bound": 0.05}
    base = [100.0, 101.0, 99.0, 102.0, 100.0, 98.0, 101.0, 100.0, 99.0,
            100.5]
    wide = [80.0, 120.0, 95.0, 110.0, 90.0, 105.0, 85.0, 115.0, 100.0,
            100.0]
    cases = [
        ("clear gain", lower, base, [v * 0.85 for v in base], "gain"),
        ("gain, higher is better", higher, base,
         [v * 1.15 for v in base], "gain"),
        ("regression", lower, base, [v * 1.10 for v in base],
         "worse beyond bound"),
        ("regression, higher is better", higher, base,
         [v * 0.90 for v in base], "worse beyond bound"),
        ("noise", lower, base, [v + 0.3 for v in reversed(base)],
         "unchanged"),
        ("ties count for neither side", lower, base, list(base),
         "unchanged"),
        ("8 of 10 won is no gain", lower, base,
         [v * 0.97 for v in base[:8]] + [v * 1.01 for v in base[8:]],
         "unchanged"),
        ("won every pair inside the IQR", lower, base,
         [v - 0.1 for v in base], "unchanged"),
        ("spread wider than the bound", lower, wide,
         [v * 1.01 for v in reversed(wide)], "unresolved"),
        ("wide but every HEAD run better", lower, wide,
         [78.0 + i * 0.2 for i in range(10)], "unchanged"),
        ("wide and far better", lower, wide,
         [70.0 + i * 0.1 for i in range(10)], "gain"),
    ]
    ok = True
    for name, metric, b, h, expect in cases:
        got = summarize(metric, b, h)["verdict"]
        ok &= got == expect
        log("%-4s %-32s -> %s" % ("ok" if got == expect else "FAIL", name,
                                   got))
    s = summarize(lower, base, list(base))
    ok &= s["wins"] == 0 and s["ratio"] == 1.0
    log("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


# ---------------------------------------------------------------------
# Worktrees and processes
# ---------------------------------------------------------------------

class Session:
    """The temporary worktrees and the running child; cleanup() undoes
    both, whatever stage the comparison reached."""

    def __init__(self):
        self.tmp = None
        self.trees = []
        self.child = None

    def git(self, *args, check=True):
        return subprocess.run(["git", "-C", ROOT] + list(args), check=check,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)

    def checkout(self, name, rev):
        if self.tmp is None:
            self.tmp = tempfile.mkdtemp(prefix="altoc-ab-")
            # Children keep their temporary files (a killed compiler's
            # included) under it, so cleanup() removes them too.
            os.mkdir(os.path.join(self.tmp, "tmp"))
        sha = self.git("rev-parse", "--verify",
                       rev + "^{commit}").stdout.strip()
        path = os.path.join(self.tmp, name)
        self.git("worktree", "add", "--detach", path, sha)
        self.trees.append(path)
        return sha, path

    def run(self, cmd, cwd):
        """Run cmd in its own session (so a signal to ab.py can be
        forwarded to its whole group). Returns (rc, stdout, stderr)."""
        env = dict(os.environ, TMPDIR=os.path.join(self.tmp, "tmp"))
        self.child = subprocess.Popen(cmd, cwd=cwd, env=env,
                                      stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE, text=True,
                                      start_new_session=True)
        out, err = self.child.communicate()
        rc = self.child.returncode
        self.child = None
        return rc, out, err

    def cleanup(self):
        if self.child is not None and self.child.poll() is None:
            # run.py kills its own altoc_perf group on SIGTERM.
            try:
                os.killpg(self.child.pid, signal.SIGTERM)
                self.child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                os.killpg(self.child.pid, signal.SIGKILL)
                self.child.wait()
            except ProcessLookupError:
                pass
        for path in self.trees:
            self.git("worktree", "remove", "--force", path, check=False)
        self.trees = []
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None
        self.git("worktree", "prune", check=False)


def contract_run(session, tree, args, seconds):
    """One run.py contract run in @p tree: its metrics, or exit."""
    cmd = [sys.executable, RUN_PY, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", "0"]
    rc, out, err = session.run(cmd, tree)
    lines = out.strip().splitlines()
    try:
        res = json.loads(lines[-1]) if lines else {}
    except ValueError:
        res = {}
    if rc != 0 or not res.get("correct"):
        sys.stderr.write(err[-4000:])
        sys.stderr.write(out[-4000:])
        raise SystemExit("ab.py: run failed in %s (exit %d)" % (tree, rc))
    return {k: v["value"] for k, v in res["metrics"].items()}


def identity(session, tree, args):
    """Identity fields of one end-to-end call (call 0) in @p tree."""
    cmd = [os.path.join(tree, PROBE), "--workload", args.workload,
           "--mode", "e2e", "--seed", str(args.seed), "--call", "0"]
    rc, out, err = session.run(cmd, tree)
    if rc != 0:
        sys.stderr.write(err[-4000:])
        raise SystemExit("ab.py: altoc_perf failed in %s" % tree)
    res = json.loads(out.strip().splitlines()[-1])
    return {k: res.get(k) for k in RUN.IDENTITY + ["events"] if k in res}


def compare(session, args):
    bench = RUN.load_benchmark()
    sides = {}
    for name, rev in (("base", args.base), ("head", args.head)):
        sides[name] = session.checkout(name, rev)
    log("ab.py: %s vs %s on %s, seed %d, %d pairs of %g s" % (
        sides["base"][0][:12], sides["head"][0][:12], args.workload,
        args.seed, args.pairs, args.seconds))

    # Build each side (a short run builds it), then check both
    # simulate the same thing before spending any time on pairs.
    for name in ("base", "head"):
        log("building %s ..." % name)
        contract_run(session, sides[name][1], args, 0)
    ids = {name: identity(session, sides[name][1], args)
           for name in ("base", "head")}
    diff = [k for k in ids["base"] if ids["base"][k] != ids["head"].get(k)]
    if diff:
        for k in diff:
            log("IDENTITY MISMATCH %s: base %s, head %s" % (
                k, ids["base"][k], ids["head"].get(k)))
        return 1
    log("identity: %d fields match (%s)" % (
        len(ids["base"]), "  ".join("%s=%s" % kv
                                    for kv in ids["base"].items())))

    values = {"base": [], "head": []}
    key = "host_ns_per_req_norm"
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        got = {}
        for name in order:
            got[name] = contract_run(session, sides[name][1], args,
                                     args.seconds)
            values[name].append(got[name])
        log("pair %2d/%d (%s first): %s base %.6g head %.6g (%.3fx)" % (
            i + 1, args.pairs, order[0], key, got["base"][key],
            got["head"][key], got["head"][key] / got["base"][key]))

    log("")
    log("%-20s %-4s %-34s %-34s %7s %6s %8s  %s" % (
        "metric", "unit", "base median [q1, q3]", "head median [q1, q3]",
        "ratio", "won", "gap/IQR", "verdict"))
    for m in bench["end_to_end"]:
        s = summarize(m, [v[m["name"]] for v in values["base"]],
                      [v[m["name"]] for v in values["head"]])
        fmt = "%.4g [%.4g, %.4g]"
        gap_iqr = s["gap"] / s["iqr"] if s["iqr"] > 0 else float("inf")
        log("%-20s %-4s %-34s %-34s %6.3fx %6s %8.2f  %s (bound %g)" % (
            m["name"], m["unit"], fmt % (s["base"][1], s["base"][0],
                                         s["base"][2]),
            fmt % (s["head"][1], s["head"][0], s["head"][2]), s["ratio"],
            "%d/%d" % (s["wins"], s["pairs"]), gap_iqr, s["verdict"],
            m["bound"]))
    return 0


def main():
    p = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("base", nargs="?", help="base revision")
    p.add_argument("head", nargs="?", help="head revision")
    p.add_argument("--workload", choices=RUN.WORKLOADS)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if not (args.base and args.head and args.workload) or args.pairs < 1:
        p.error("BASE, HEAD and --workload are required; --pairs >= 1")

    session = Session()

    def on_signal(signum, _frame):
        session.cleanup()
        sys.exit(128 + signum)

    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, on_signal)
    try:
        return compare(session, args)
    finally:
        session.cleanup()


if __name__ == "__main__":
    sys.exit(main())
