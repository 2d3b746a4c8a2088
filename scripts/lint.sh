#!/usr/bin/env bash
# Project-specific smell checks that clang-tidy cannot express.
#
# Usage: scripts/lint.sh [--list-waivers]
#
# Each rule greps the library sources (src/) for an idiom this
# codebase bans; bench-stand-in also greps bench/ (bench/perf/ aside),
# examples/ and tests/. See the rule comments for the rationale.
# Exits non-zero listing every offending file:line.
#
# Waiver grammar (enforced): a line opts out of exactly one rule with
#
#     // ... lint:allow <rule>: <reason>
#
# The rule name scopes the waiver (it never silences other rules that
# match the same line) and the reason is mandatory -- a reason-less or
# malformed waiver is itself a lint failure. `--list-waivers` prints
# the current waiver inventory and exits.
set -uo pipefail

cd "$(dirname "$0")/.."

# Every tree a rule may scan. bench/perf/ is a separate project that
# only a benchmark change may edit; no rule scans it.
trees=(src bench examples tests)

# grep -rn over the C++ sources of the given trees, bench/perf/ aside.
grep_sources() {
    local pattern=$1
    shift
    grep -rn --include='*.cc' --include='*.hh' -E "$pattern" "$@" |
        grep -v '^bench/perf/'
}

list_waivers() {
    local hits
    hits=$(grep_sources 'lint:allow' "${trees[@]}" |
        sed -E 's/^([^:]+:[0-9]+):.*lint:allow ([a-z-]+): *(.*)$/\1: [\2] \3/')
    if [ -z "$hits" ]; then
        echo "lint: no waivers"
    else
        echo "$hits"
        echo "lint: $(echo "$hits" | wc -l) waiver(s)"
    fi
}

if [ "${1:-}" = "--list-waivers" ]; then
    list_waivers
    exit 0
fi

fail=0

# Strip line comments and block-comment-ish lines so prose mentioning
# banned words (e.g. "accept new work") does not trip the rules, then
# drop lines waived *for this specific rule* (lint:allow <rule>: ...).
# Scans the trees given after the rule name, src/ by default.
code_lines() {
    local pattern=$1 rulename=$2
    shift 2
    grep_sources "$pattern" "${@:-src}" |
        grep -vE "lint:allow ${rulename}: ." |
        grep -vE '^[^:]+:[0-9]+:\s*(//|\*|/\*)'
}

rule() {
    local name=$1 pattern=$2 why=$3 hits
    shift 3
    hits=$(code_lines "$pattern" "$name" "$@")
    if [ -n "$hits" ]; then
        echo "lint: [$name] $why"
        echo "$hits" | sed 's/^/    /'
        fail=1
    fi
}

# Waiver hygiene: every lint:allow in the tree must name a known rule
# and carry a non-empty same-line reason after the colon.
known_rules='naked-new|wall-clock|raw-tick-literal|foreign-rng|iostream|raw-schedule|unguarded-queue-mutation|bench-stand-in'
bad_waivers=$(grep_sources 'lint:allow' "${trees[@]}" |
    grep -vE "lint:allow (${known_rules}): .")
if [ -n "$bad_waivers" ]; then
    echo "lint: [waiver-hygiene] lint:allow must read 'lint:allow <rule>: <reason>'"
    echo "$bad_waivers" | sed 's/^/    /'
    fail=1
fi

# Descriptors come from net::RpcPool and everything else is owned by
# containers or unique_ptr; a naked new/delete is a leak in waiting
# (and invisible to the descriptor-conservation auditor).
rule naked-new \
    '(=|return|[(,])\s*new\s+[A-Za-z_:<]|\bdelete\s+[A-Za-z_]|\bdelete\[\]' \
    'naked new/delete; use RpcPool, std::make_unique or a container'

# Simulated components must take time from sim::Simulator::now();
# wall-clock reads make runs irreproducible. (bench/ keeps its
# Stopwatch; this rule covers src/ only.)
rule wall-clock \
    'std::chrono|gettimeofday|clock_gettime|\btime\s*\(\s*(NULL|nullptr|0)?\s*\)' \
    'wall-clock time in simulation code; use sim::Simulator::now()'

# Tick spans beyond a few digits should be built from the units.hh
# helpers (kUs/kMs/kSec) so latency constants stay auditable in one
# place (Sec. VII-B methodology).
rule raw-tick-literal \
    "[^a-zA-Z_0-9.'\"][0-9]{8,}[^0-9]" \
    'long raw tick literal; compose from kUs/kMs/kSec in common/units.hh'

# All randomness must flow through common/rng.hh forks so every run
# is reproducible from one seed (the determinism checker depends on
# this).
rule foreign-rng \
    'std::mt19937|std::random_device|\bsrand\s*\(|[^_a-zA-Z]rand\s*\(' \
    'ad-hoc RNG; fork altoc::Rng so seeds stay deterministic'

# Status output goes through common/logging.hh (warn/inform) or the
# explicit stats dumps; stray iostream writes garble bench output
# parsing.
rule iostream \
    'std::cout|std::cerr' \
    'iostream logging in the library; use warn()/inform() or dumpStats'

# Scheduling with a bare integer literal hides what the delay means;
# name the constant (units.hh, params.hh) or derive it from config.
# Zero (i.e. "this event turn") is the one allowed literal.
rule raw-schedule \
    '(->|\.)(after|at)\s*\(\s*[1-9][0-9]*\s*[,)]' \
    'raw integer scheduling delay; name the Tick constant'

# bench/perf/altoc_perf.cc still names one-line stand-ins for deleted
# mechanisms (the sharded kernel, the log-scale latency store), and
# only a benchmark change may edit that file, so they stay until the
# next one. Nothing else may use them: their own declarations (and the
# Rack constructor's check that logLatencyHistogram is false) carry
# waivers, so any other hit is new code leaning on a mechanism that is
# about to go.
rule bench-stand-in \
    '\b(resolveShards|runSharded|ParallelGate|parallelWindows|logLatencyHistogram)\b|\.shards\b' \
    'bench/perf stand-in used outside bench/perf; it goes with the next benchmark change' \
    "${trees[@]}"

# Queue/occupancy mutations on the scheduling hot paths must be
# guarded: any file that decrements an occupancy counter or dequeues
# descriptors has to carry altoc_assert checks (the invariant auditor
# cross-checks at runtime, but only in audit builds).
for f in $(grep -rl --include='*.cc' -E -- '--[a-z]+\.occupancy|occupancy\[[^]]+\]--|dequeue(Head|Tail)\(' src/sched src/core 2>/dev/null); do
    if ! grep -q 'altoc_assert' "$f"; then
        echo "lint: [unguarded-queue-mutation] $f mutates scheduler queues without any altoc_assert"
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "lint: FAILED"
    exit 1
fi
echo "lint: clean"
