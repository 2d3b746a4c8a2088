/**
 * @file
 * Shared helpers for the figure-reproduction benches: consistent
 * headers, row printing, wall-clock accounting, the determinism
 * fingerprint, and the common command-line options of the parallel
 * execution engine (--jobs, --scale).
 */

#ifndef ALTOC_BENCH_BENCH_UTIL_HH
#define ALTOC_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/fingerprint.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "system/experiment.hh"
#include "system/server.hh"

namespace bench {

/** Print the bench banner: which figure/table this regenerates. */
inline void
banner(const char *exp_id, const char *description)
{
    std::printf("=============================================================="
                "====\n");
    std::printf("%s - %s\n", exp_id, description);
    std::printf("=============================================================="
                "====\n");
}

/** Section sub-header. */
inline void
section(const char *title)
{
    std::printf("\n--- %s ---\n", title);
}

/**
 * Command-line options shared by every sweep bench.
 *
 *   --jobs N       worker threads for the parallel engine (default:
 *                  the ALTOC_JOBS env, else hardware concurrency;
 *                  1 = serial)
 *   --scale X      multiply per-run request counts by X in (0, 1] --
 *                  the CI smoke job runs figures at --scale 0.05
 *   --fault-spec S fault schedule in the sim/fault_spec.hh grammar
 *                  (e.g. "drop=0.01,stall=1@50000+30000"); defaults
 *                  to the ALTOC_FAULTS env. Most benches ignore it;
 *                  ablation_faults runs it instead of its built-in
 *                  intensity ladder.
 *   --trace[=FILE] attach the binary event tracer (trace/trace.hh)
 *                  to the runs of the benches that read it
 *                  (ablation_crash, ablation_faults); the others
 *                  ignore it. With =FILE, single-run benches
 *                  serialize the rings there for `altoc-trace`;
 *                  sweeps with many runs record in memory only.
 */
struct Options
{
    unsigned jobs = 0; //!< 0 = ThreadPool::defaultJobs()
    double scale = 1.0;
    std::string faultSpec; //!< empty = no override
    bool trace = false;
    std::string traceFile; //!< empty = rings stay in memory

    /** The WorkloadSpec::tracing this command line asks for. */
    altoc::trace::TraceConfig
    tracing() const
    {
        altoc::trace::TraceConfig tc;
        tc.enabled = trace;
        tc.file = traceFile;
        return tc;
    }
};

inline Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc)
                fatal("%s requires a value", flag);
            return argv[++i];
        };
        if (std::strcmp(arg, "--jobs") == 0) {
            const long v = std::atol(value("--jobs"));
            if (v < 1)
                fatal("--jobs must be >= 1");
            opt.jobs = static_cast<unsigned>(v);
        } else if (std::strcmp(arg, "--scale") == 0) {
            opt.scale = std::atof(value("--scale"));
            if (!(opt.scale > 0.0 && opt.scale <= 1.0))
                fatal("--scale must lie in (0, 1]");
        } else if (std::strcmp(arg, "--fault-spec") == 0) {
            opt.faultSpec = value("--fault-spec");
        } else if (std::strcmp(arg, "--trace") == 0) {
            opt.trace = true;
        } else if (std::strncmp(arg, "--trace=", 8) == 0) {
            opt.trace = true;
            opt.traceFile = arg + 8;
        } else {
            fatal("unknown argument '%s' (supported: --jobs N, "
                  "--scale X, --fault-spec S, --trace[=FILE])", arg);
        }
    }
    if (opt.faultSpec.empty()) {
        if (const char *env = std::getenv("ALTOC_FAULTS");
            env != nullptr)
            opt.faultSpec = env;
    }
    return opt;
}

/**
 * The micro benches' `--json` shorthand, expanded into google
 * -benchmark's native flags before benchmark::Initialize() parses
 * them. This is the interface of the perf-regression harness
 * (scripts/bench_compare.py, BENCH_kernel.json):
 *
 *   --json        emit the JSON report on stdout
 *                 (--benchmark_format=json)
 *   --json=FILE   keep the human console report and write the JSON
 *                 report to FILE (--benchmark_out=FILE
 *                 --benchmark_out_format=json)
 *
 * All other arguments pass through untouched, so the full
 * --benchmark_* vocabulary still works.
 */
class JsonFlagArgs
{
  public:
    JsonFlagArgs(int argc, char **argv)
    {
        storage_.reserve(static_cast<std::size_t>(argc) + 1);
        storage_.emplace_back(argc > 0 ? argv[0] : "bench");
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--json") {
                storage_.emplace_back("--benchmark_format=json");
            } else if (arg.rfind("--json=", 0) == 0) {
                storage_.emplace_back("--benchmark_out=" +
                                      arg.substr(7));
                storage_.emplace_back("--benchmark_out_format=json");
            } else {
                storage_.push_back(arg);
            }
        }
        argv_.reserve(storage_.size() + 1);
        for (std::string &s : storage_)
            argv_.push_back(s.data());
        argv_.push_back(nullptr);
        argc_ = static_cast<int>(storage_.size());
    }

    int &argc() { return argc_; }
    char **argv() { return argv_.data(); }

  private:
    std::vector<std::string> storage_;
    std::vector<char *> argv_;
    int argc_ = 0;
};

/** Apply the --scale factor to a request count (floor 1000 so the
 *  percentile machinery keeps enough samples to be meaningful). */
inline std::uint64_t
scaled(std::uint64_t requests, const Options &opt)
{
    const auto n = static_cast<std::uint64_t>(
        static_cast<double>(requests) * opt.scale);
    return std::max<std::uint64_t>(n, 1000);
}

/**
 * Order-sensitive FNV-1a digest of a run's completion stream.
 *
 * Attach to a Server and every completion mixes in the tuple
 * (tick, event type, core id, request id); two runs of the same
 * scenario with the same seed must produce identical digests, which
 * is the repo's determinism contract (tests/test_determinism.cc).
 * Benches print the digest so regressions in reproducibility are
 * visible in their output too. The mixing is altoc::RunDigest's, the
 * same as RunResult::fingerprint's, so digests observed here and
 * digests reported by runExperiment agree.
 */
class RunFingerprint
{
  public:
    /** Observe every completion of @p server from now on. */
    void
    attach(altoc::system::Server &server)
    {
        server.setCompletionProbe([this](const altoc::cpu::Core &core,
                                         const altoc::net::Rpc &r,
                                         altoc::Tick now) {
            d_.completion(now, static_cast<std::uint64_t>(r.kind),
                          core.id(), r.id);
        });
    }

    std::uint64_t digest() const { return d_.digest(); }

    /** Completions hashed so far. */
    std::uint64_t events() const { return d_.events(); }

    void
    print(const char *label) const
    {
        std::printf("[fingerprint %s: %016llx over %llu completions]\n",
                    label, static_cast<unsigned long long>(digest()),
                    static_cast<unsigned long long>(events()));
    }

  private:
    altoc::RunDigest d_;
};

/**
 * Aggregate digest over a whole sweep: folds every run's
 * RunResult::fingerprint (and completion count) in run order. The CI
 * bench smoke job diffs this line between --jobs 1 and --jobs 2 runs
 * to prove the parallel engine changes nothing.
 */
class SweepDigest
{
  public:
    void
    add(const altoc::system::RunResult &res)
    {
        h_.mix(res.fingerprint);
        h_.mix(res.fingerprintEvents);
        ++runs_;
    }

    template <typename Container>
    void
    addAll(const Container &results)
    {
        for (const auto &res : results)
            add(res);
    }

    /** Fold a raw digest (for benches whose runs are not RunResults). */
    void
    addDigest(std::uint64_t digest)
    {
        h_.mix(digest);
        ++runs_;
    }

    void
    print() const
    {
        std::printf("\n[sweep fingerprint: %016llx over %llu runs]\n",
                    static_cast<unsigned long long>(h_.digest()),
                    static_cast<unsigned long long>(runs_));
    }

  private:
    altoc::Fnv1a h_;
    std::uint64_t runs_ = 0;
};

/** Wall-clock stopwatch for reporting bench runtime. */
class Stopwatch
{
  public:
    Stopwatch() : start_(std::chrono::steady_clock::now()) {}

    double
    seconds() const
    {
        const auto now = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(now - start_).count();
    }

    void
    report() const
    {
        std::printf("\n[bench wall-clock: %.1f s]\n", seconds());
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

} // namespace bench

#endif // ALTOC_BENCH_BENCH_UTIL_HH
