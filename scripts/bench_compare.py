#!/usr/bin/env python3
"""Diff google-benchmark JSON reports (the perf-regression harness).

Usage:
    scripts/bench_compare.py BASELINE.json CURRENT.json
        [BASELINE2.json CURRENT2.json ...]
        [--threshold PCT] [--fail-on-regression]
    scripts/bench_compare.py --self-test

Inputs are google-benchmark JSON reports given as baseline/current
*pairs*, e.g. the checked-in kernel and macro baselines against fresh
runs, compared in one invocation with one merged delta table:

    ./build/bench/micro_sim --json=kernel.json --benchmark_filter=BM_Event
    ./build/bench/macro_pipeline --json=macro.json
    python3 scripts/bench_compare.py \
        BENCH_kernel.json kernel.json BENCH_macro.json macro.json

Benchmarks are matched by name within their pair. The primary metric
is items_per_second (higher is better); benchmarks that do not report
it fall back to real_time (lower is better). A report recorded with
--benchmark_repetitions holds one entry per repetition under the same
name; each name is compared by the median of its repetitions (the
aggregate rows are ignored). Entries present in only one report of a
pair are listed but never fail the comparison.

Exit codes:
    0  compared cleanly (regressions are warnings by default -- the
       checked-in baselines were recorded on a different machine, so
       CI treats deltas as informational); --self-test passed
    1  at least one regression beyond --threshold, and
       --fail-on-regression was given; or --self-test failed
    2  malformed input (missing file, bad JSON, no benchmarks, an odd
       number of reports) or a benchmark that reported an error (e.g.
       macro_pipeline's fingerprint check) -- always fatal, so a
       crashed, truncated or failed bench run cannot pass silently
"""

import argparse
import json
import os
import statistics
import sys
import tempfile


def load_report(path):
    """Return {name: (metric_value, higher_is_better)} for one report.

    The value is the median over the name's repetitions.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except json.JSONDecodeError as exc:
        print(f"error: {path} is not valid JSON: {exc}", file=sys.stderr)
        raise SystemExit(2)
    benches = doc.get("benchmarks")
    if not isinstance(benches, list) or not benches:
        print(f"error: {path} contains no benchmarks", file=sys.stderr)
        raise SystemExit(2)
    reps = {}
    for bench in benches:
        name = bench.get("name")
        if not name or bench.get("run_type") == "aggregate":
            continue
        if bench.get("error_occurred"):
            print(f"error: {path}: {name} failed: "
                  f"{bench.get('error_message', '(no message)')}",
                  file=sys.stderr)
            raise SystemExit(2)
        if "items_per_second" in bench:
            entry = (float(bench["items_per_second"]), True)
        elif "real_time" in bench:
            entry = (float(bench["real_time"]), False)
        else:
            continue
        reps.setdefault(name, []).append(entry)
    if not reps:
        print(f"error: {path} has no comparable entries", file=sys.stderr)
        raise SystemExit(2)
    out = {}
    for name, entries in reps.items():
        higher = entries[0][1]
        if any(h != higher for _, h in entries):
            print(f"error: {path}: repetitions of {name} report "
                  "different metrics", file=sys.stderr)
            raise SystemExit(2)
        out[name] = (statistics.median(v for v, _ in entries), higher)
    return out


def fmt(value):
    return f"{value:.3e}"


def merge_pairs(paths):
    """Load baseline/current pairs into merged {name: ...} dicts.

    Names are matched within their own pair; a name that appears in
    more than one pair is disambiguated with a #<pair index> suffix so
    the merged table never silently conflates rows.
    """
    if len(paths) % 2 != 0:
        print("error: reports must come in baseline/current pairs "
              f"(got {len(paths)} paths)", file=sys.stderr)
        raise SystemExit(2)
    base, cur = {}, {}
    for i in range(0, len(paths), 2):
        b = load_report(paths[i])
        c = load_report(paths[i + 1])
        for src, dst in ((b, base), (c, cur)):
            for name, entry in src.items():
                key = name if name not in dst else f"{name}#{i // 2 + 1}"
                dst[key] = entry
    return base, cur


def compare(base, cur, threshold):
    """Print the delta table; return the list of (name, pct) regressions."""
    shared = [n for n in base if n in cur]
    only_base = [n for n in base if n not in cur]
    only_cur = [n for n in cur if n not in base]

    width = max((len(n) for n in shared), default=4)
    print(f"{'benchmark':<{width}}  {'baseline':>10}  {'current':>10}"
          f"  {'delta':>8}  verdict")
    regressions = []
    for name in shared:
        bval, b_higher = base[name]
        cval, c_higher = cur[name]
        if b_higher != c_higher:
            print(f"{name:<{width}}  metric kind changed; skipping")
            continue
        # Normalize so positive delta always means "got faster".
        delta = (cval / bval - 1.0) if b_higher else (bval / cval - 1.0)
        pct = delta * 100.0
        if pct <= -threshold:
            verdict = "REGRESSION"
            regressions.append((name, pct))
        elif pct >= threshold:
            verdict = "improved"
        else:
            verdict = "ok"
        print(f"{name:<{width}}  {fmt(bval):>10}  {fmt(cval):>10}"
              f"  {pct:>+7.1f}%  {verdict}")

    for name in only_base:
        print(f"{name:<{width}}  only in baseline")
    for name in only_cur:
        print(f"{name:<{width}}  only in current run")
    return regressions


def run(argv):
    parser = argparse.ArgumentParser(
        description="Compare google-benchmark JSON reports.")
    parser.add_argument("reports", nargs="*",
                        help="baseline/current report pairs")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="regression threshold in percent "
                             "(default: 10)")
    parser.add_argument("--fail-on-regression", action="store_true",
                        help="exit 1 when any benchmark regresses "
                             "beyond the threshold")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in unit tests and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if len(args.reports) < 2:
        parser.error("need at least one baseline/current pair")

    base, cur = merge_pairs(args.reports)
    regressions = compare(base, cur, args.threshold)

    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond "
              f"{args.threshold:.0f}%:", file=sys.stderr)
        for name, pct in regressions:
            print(f"  {name}: {pct:+.1f}%", file=sys.stderr)
        if args.fail_on_regression:
            return 1
        print("(warning only: pass --fail-on-regression to gate)",
              file=sys.stderr)
    return 0


# ---------------------------------------------------------------------
# Self-test (invoked from CI): exercises pairing, delta math, the
# regression gate and the malformed-input paths without touching the
# real baselines.
# ---------------------------------------------------------------------

def _report(entries):
    return {"benchmarks": [dict(e) for e in entries]}


def _write(tmp, name, doc):
    path = os.path.join(tmp, name)
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(doc, str):
            fh.write(doc)
        else:
            json.dump(doc, fh)
    return path


def _exit_code(argv):
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


def self_test():
    failures = []

    def check(cond, label):
        print(f"{'ok' if cond else 'FAIL'}: {label}")
        if not cond:
            failures.append(label)

    with tempfile.TemporaryDirectory() as tmp:
        kern_base = _write(tmp, "kb.json", _report([
            {"name": "BM_Event", "items_per_second": 100.0}]))
        kern_fast = _write(tmp, "kc.json", _report([
            {"name": "BM_Event", "items_per_second": 150.0}]))
        kern_slow = _write(tmp, "ks.json", _report([
            {"name": "BM_Event", "items_per_second": 50.0}]))
        macro_base = _write(tmp, "mb.json", _report([
            {"name": "BM_MacroAcInt", "items_per_second": 10.0},
            {"name": "BM_Time", "real_time": 200.0}]))
        macro_cur = _write(tmp, "mc.json", _report([
            {"name": "BM_MacroAcInt", "items_per_second": 10.5},
            {"name": "BM_Time", "real_time": 190.0}]))
        # Three repetitions each: the medians (100 and 99) are level,
        # while the last repetitions alone (100 vs 40) would read as a
        # 60% regression.
        reps_base = _write(tmp, "rb.json", _report([
            {"name": "BM_Event", "items_per_second": v}
            for v in (104.0, 90.0, 100.0)]))
        reps_cur = _write(tmp, "rc.json", _report([
            {"name": "BM_Event", "items_per_second": v}
            for v in (101.0, 99.0, 40.0)]))
        mixed = _write(tmp, "mixed.json", _report([
            {"name": "BM_Event", "items_per_second": 1.0},
            {"name": "BM_Event", "real_time": 1.0}]))
        errored = _write(tmp, "err.json", _report([
            {"name": "BM_MacroAcInt", "real_time": 0.0,
             "error_occurred": True,
             "error_message": "run fingerprint differs between "
                              "iterations"}]))
        bad_json = _write(tmp, "bad.json", "{not json")
        empty = _write(tmp, "empty.json", {"benchmarks": []})

        check(_exit_code([kern_base, kern_fast]) == 0,
              "single pair, improvement, exits 0")
        check(_exit_code([kern_base, kern_slow]) == 0,
              "regression without --fail-on-regression exits 0")
        check(_exit_code([kern_base, kern_slow,
                          "--fail-on-regression"]) == 1,
              "regression with --fail-on-regression exits 1")
        check(_exit_code([kern_base, kern_slow, "--fail-on-regression",
                          "--threshold", "60"]) == 0,
              "regression under threshold passes the gate")
        check(_exit_code([kern_base, kern_fast,
                          macro_base, macro_cur]) == 0,
              "two pairs merge into one clean comparison")
        check(_exit_code([kern_base, kern_slow,
                          macro_base, macro_cur,
                          "--fail-on-regression"]) == 1,
              "regression in the first of two pairs still gates")
        check(_exit_code([kern_base, bad_json]) == 2,
              "invalid JSON exits 2")
        check(_exit_code([kern_base, "/nonexistent.json"]) == 2,
              "missing file exits 2")
        check(_exit_code([kern_base, empty]) == 2,
              "report with no benchmarks exits 2")
        check(_exit_code([kern_base, kern_fast, macro_base]) == 2,
              "odd number of reports exits 2")
        check(load_report(reps_cur) == {"BM_Event": (99.0, True)},
              "repetitions of one name reduce to their median")
        check(_exit_code([reps_base, reps_cur,
                          "--fail-on-regression"]) == 0,
              "repetitions compare by median, not the last one")
        check(_exit_code([mixed, kern_base]) == 2,
              "repetitions reporting different metrics exit 2")
        check(_exit_code([macro_base, errored]) == 2,
              "a benchmark that reported an error exits 2")

        base, cur = merge_pairs([kern_base, kern_fast,
                                 kern_base, kern_slow])
        check("BM_Event" in base and "BM_Event#2" in base,
              "duplicate names across pairs are disambiguated")
        regs = compare(base, cur, 10.0)
        check([n for n, _ in regs] == ["BM_Event#2"],
              "regression attributed to the right pair")

    if failures:
        print(f"\nself-test: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print("\nself-test: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
