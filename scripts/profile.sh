#!/usr/bin/env bash
# Sample where altoc_perf spends host time on one workload.
#
# Usage: scripts/profile.sh W [--mode e2e|setup] [--calls N] [--seed S]
#
#   W        a bench/perf workload (rss16_fig10, ac256_fig11,
#            rack16_p2c, acrss16_lossy)
#   --mode   the altoc_perf mode to sample: e2e (a whole run) or setup
#            (rack construction and no run, 0.03-2 ms a call; samples
#            cover the whole process, start-up included, so read the
#            constructors' inclusive shares)
#   --calls  altoc_perf calls to sample, one process each
#            (default 12 for e2e and 200 for setup: calls 0 .. N-1)
#   --seed   workload seed (default 10; 11 is held out for claims)
#
# Configures bench/perf into .bench_build/perf-prof as a Release build
# with -g -fno-omit-frame-pointer, builds scripts/profile/sampler.c
# into an LD_PRELOAD object there, samples every call with a 20 us
# wall-clock timer, then symbolizes the stacks and prints self shares
# per function and per namespace and inclusive shares per dispatched
# event callback and per function (scripts/profile/report.py).
#
# Needs cmake, a C/C++ compiler and binutils' addr2line. Sample files
# go to a temporary directory under $TMPDIR (default /tmp), removed on
# exit.
set -euo pipefail

usage() {
    sed -n '2,14p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

[ $# -ge 1 ] || usage
workload=$1
shift
mode=e2e
calls=
seed=10
while [ $# -gt 0 ]; do
    case $1 in
      --mode) mode=${2:?}; shift 2 ;;
      --calls) calls=${2:?}; shift 2 ;;
      --seed) seed=${2:?}; shift 2 ;;
      *) usage ;;
    esac
done
case $mode in
  e2e) calls=${calls:-12} ;;
  setup) calls=${calls:-200} ;;
  *) usage ;;
esac

root=$(cd "$(dirname "$0")/.." && pwd)
build=$root/.bench_build/perf-prof
cmake -S "$root/bench/perf" -B "$build" -DCMAKE_BUILD_TYPE=Release \
      -DCMAKE_CXX_FLAGS="-g -fno-omit-frame-pointer" >/dev/null
cmake --build "$build" --target altoc_perf -j"$(nproc)" >/dev/null
sampler=$build/sampler.so
if [ ! -f "$sampler" ] || [ "$root/scripts/profile/sampler.c" -nt "$sampler" ]; then
    cc -O2 -g -fPIC -shared -o "$sampler" "$root/scripts/profile/sampler.c" -lrt
fi

out=$(mktemp -d "${TMPDIR:-/tmp}/altoc-prof.XXXXXX")
trap 'rm -rf "$out"' EXIT
for ((i = 0; i < calls; ++i)); do
    (cd "$out" && LD_PRELOAD=$sampler "$build/altoc_perf" \
        --workload "$workload" --mode "$mode" --seed "$seed" --call "$i" \
        >/dev/null)
done
echo "$workload, --mode $mode, seed $seed, calls 0-$((calls - 1)):"
python3 "$root/scripts/profile/report.py" "$out"/altoc-prof.*.txt
