/**
 * @file
 * altocsim: command-line front end for the simulator.
 *
 * Run any scheduler design against any built-in workload without
 * writing C++:
 *
 *   altocsim --design AC_rss --cores 16 --groups 2 \
 *            --dist bimodal --mean 750 --rate 8 --requests 200000 \
 *            --slo-us 300
 *
 *   altocsim --design Nebula --cores 64 --dist fixed --mean 850 \
 *            --rate 50 --real-world --csv
 *
 * Prints a human-readable report, or one CSV row (--csv) for sweep
 * scripting. Run with --help for the full flag list.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "sim/fault_spec.hh"
#include "system/experiment.hh"
#include "workload/distributions.hh"

using namespace altoc;
using namespace altoc::system;

namespace {

struct Options
{
    std::string design = "AC_rss";
    unsigned cores = 16;
    unsigned groups = 2;
    std::string dist = "fixed";
    double mean_ns = 1000.0;
    double long_frac = 0.005;
    double long_ns = 50000.0;
    double rate_mrps = 5.0;
    std::uint64_t requests = 100000;
    unsigned connections = 1024;
    double slo_factor = 10.0;
    double slo_us = -1.0;
    bool real_world = false;
    Tick period = 200;
    unsigned bulk = 16;
    unsigned concurrency = 8;
    bool msr = false;
    bool no_migration = false;
    std::uint64_t seed = 1;
    unsigned rack = 1;
    std::string tor_policy = "p2c";
    unsigned tor_k = 2;
    bool csv = false;
    bool stats = false;
    double time_limit_ms = 500.0;
    std::string fault_spec;
    bool trace = false;
    std::string trace_file;
    std::size_t trace_slots = 4096;
};

[[noreturn]] void
usage(int code)
{
    std::printf(
        "altocsim -- ALTOCUMULUS RPC-scheduling simulator\n\n"
        "  --design NAME      RSS IX ZygOS Shinjuku RPCValet Nebula\n"
        "                     nanoPU AC_int AC_rss      [AC_rss]\n"
        "  --cores N          total cores                [16]\n"
        "  --groups N         AC groups                  [2]\n"
        "  --dist NAME        fixed uniform exponential bimodal [fixed]\n"
        "  --mean NS          mean service time (short mode for\n"
        "                     bimodal)                   [1000]\n"
        "  --long-frac F      bimodal long fraction      [0.005]\n"
        "  --long NS          bimodal long service       [50000]\n"
        "  --rate MRPS        offered load               [5]\n"
        "  --requests N       requests to simulate       [100000]\n"
        "  --connections N    client connections         [1024]\n"
        "  --slo L            SLO = L x mean service     [10]\n"
        "  --slo-us US        absolute SLO target (wins over --slo)\n"
        "  --real-world       bursty MMPP arrivals\n"
        "  --period NS        AC runtime period          [200]\n"
        "  --bulk N           AC migration batch         [16]\n"
        "  --concurrency N    AC concurrent destinations [8]\n"
        "  --msr              use the MSR interface (vs custom ISA)\n"
        "  --no-migration     disable proactive migration\n"
        "  --seed N           RNG seed                   [1]\n"
        "  --rack N           servers behind one ToR     [1]\n"
        "  --tor-policy P     random | rr | p2c | ll     [p2c]\n"
        "  --tor-k N          sampled servers per p2c\n"
        "                     decision                   [2]\n"
        "  --csv              one CSV row instead of the report\n"
        "  --stats            dump per-component statistics\n"
        "  --fault-spec S     fault schedule (sim/fault_spec.hh\n"
        "                     grammar, e.g. drop=0.05,dup=0.03)\n"
        "  --time-limit-ms M  bound a faulted run to M ms of sim\n"
        "                     time (kill specs shed, so completions\n"
        "                     alone may never end the run)  [500]\n"
        "  --trace[=FILE]     record the binary event trace; with\n"
        "                     =FILE, write it for altoc-trace\n"
        "  --trace-slots N    per-core trace ring slots  [4096]\n");
    std::exit(code);
}

Design
parseDesign(const std::string &name)
{
    const struct
    {
        const char *name;
        Design design;
    } table[] = {
        {"RSS", Design::Rss},           {"IX", Design::Ix},
        {"ZygOS", Design::ZygOs},       {"Shinjuku", Design::Shinjuku},
        {"RPCValet", Design::RpcValet}, {"Nebula", Design::Nebula},
        {"nanoPU", Design::NanoPu},     {"AC_int", Design::AcInt},
        {"AC_rss", Design::AcRss},
    };
    for (const auto &row : table) {
        if (name == row.name)
            return row.design;
    }
    std::fprintf(stderr, "unknown design '%s'\n", name.c_str());
    usage(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", argv[i]);
            usage(2);
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (!std::strcmp(arg, "--help") || !std::strcmp(arg, "-h"))
            usage(0);
        else if (!std::strcmp(arg, "--design"))
            opt.design = need(i);
        else if (!std::strcmp(arg, "--cores"))
            opt.cores = static_cast<unsigned>(std::atoi(need(i)));
        else if (!std::strcmp(arg, "--groups"))
            opt.groups = static_cast<unsigned>(std::atoi(need(i)));
        else if (!std::strcmp(arg, "--dist"))
            opt.dist = need(i);
        else if (!std::strcmp(arg, "--mean"))
            opt.mean_ns = std::atof(need(i));
        else if (!std::strcmp(arg, "--long-frac"))
            opt.long_frac = std::atof(need(i));
        else if (!std::strcmp(arg, "--long"))
            opt.long_ns = std::atof(need(i));
        else if (!std::strcmp(arg, "--rate"))
            opt.rate_mrps = std::atof(need(i));
        else if (!std::strcmp(arg, "--requests"))
            opt.requests =
                static_cast<std::uint64_t>(std::atoll(need(i)));
        else if (!std::strcmp(arg, "--connections"))
            opt.connections =
                static_cast<unsigned>(std::atoi(need(i)));
        else if (!std::strcmp(arg, "--slo"))
            opt.slo_factor = std::atof(need(i));
        else if (!std::strcmp(arg, "--slo-us"))
            opt.slo_us = std::atof(need(i));
        else if (!std::strcmp(arg, "--real-world"))
            opt.real_world = true;
        else if (!std::strcmp(arg, "--period"))
            opt.period = static_cast<Tick>(std::atoll(need(i)));
        else if (!std::strcmp(arg, "--bulk"))
            opt.bulk = static_cast<unsigned>(std::atoi(need(i)));
        else if (!std::strcmp(arg, "--concurrency"))
            opt.concurrency =
                static_cast<unsigned>(std::atoi(need(i)));
        else if (!std::strcmp(arg, "--msr"))
            opt.msr = true;
        else if (!std::strcmp(arg, "--no-migration"))
            opt.no_migration = true;
        else if (!std::strcmp(arg, "--seed"))
            opt.seed = static_cast<std::uint64_t>(std::atoll(need(i)));
        else if (!std::strcmp(arg, "--rack"))
            opt.rack = static_cast<unsigned>(std::atoi(need(i)));
        else if (!std::strcmp(arg, "--tor-policy"))
            opt.tor_policy = need(i);
        else if (!std::strcmp(arg, "--tor-k"))
            opt.tor_k = static_cast<unsigned>(std::atoi(need(i)));
        else if (!std::strcmp(arg, "--csv"))
            opt.csv = true;
        else if (!std::strcmp(arg, "--stats"))
            opt.stats = true;
        else if (!std::strcmp(arg, "--fault-spec"))
            opt.fault_spec = need(i);
        else if (!std::strcmp(arg, "--time-limit-ms"))
            opt.time_limit_ms = std::atof(need(i));
        else if (!std::strcmp(arg, "--trace"))
            opt.trace = true;
        else if (!std::strncmp(arg, "--trace=", 8)) {
            opt.trace = true;
            opt.trace_file = arg + 8;
        } else if (!std::strcmp(arg, "--trace-slots")) {
            opt.trace_slots =
                static_cast<std::size_t>(std::atoll(need(i)));
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", arg);
            usage(2);
        }
    }
    return opt;
}

std::shared_ptr<workload::ServiceDist>
makeDist(const Options &opt)
{
    const Tick mean = static_cast<Tick>(opt.mean_ns);
    if (opt.dist == "fixed")
        return workload::makeFixed(mean);
    if (opt.dist == "uniform")
        return workload::makeUniformAround(mean);
    if (opt.dist == "exponential")
        return workload::makeExponential(mean);
    if (opt.dist == "bimodal") {
        return std::make_shared<workload::BimodalDist>(
            opt.long_frac, mean, static_cast<Tick>(opt.long_ns));
    }
    std::fprintf(stderr, "unknown distribution '%s'\n",
                 opt.dist.c_str());
    usage(2);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);

    DesignConfig cfg;
    cfg.design = parseDesign(opt.design);
    cfg.cores = opt.cores;
    cfg.groups = opt.groups;
    cfg.params.period = opt.period;
    cfg.params.bulk = opt.bulk;
    cfg.params.concurrency = opt.concurrency;
    cfg.params.iface =
        opt.msr ? core::Interface::Msr : core::Interface::Isa;
    cfg.params.migrationEnabled = !opt.no_migration;
    if (opt.rack < 1) {
        std::fprintf(stderr, "--rack must be >= 1\n");
        usage(2);
    }
    cfg.rack.servers = opt.rack;
    cfg.rack.policy = torPolicyFromName(opt.tor_policy);
    cfg.rack.sampleK = opt.tor_k;

    WorkloadSpec spec;
    spec.service = makeDist(opt);
    spec.realWorldArrivals = opt.real_world;
    spec.rateMrps = opt.rate_mrps;
    spec.requests = opt.requests;
    spec.connections = opt.connections;
    spec.sloFactor = opt.slo_factor;
    if (opt.slo_us > 0) {
        spec.sloAbsolute =
            static_cast<Tick>(opt.slo_us * static_cast<double>(kUs));
    }
    spec.seed = opt.seed;
    spec.dumpStats = opt.stats;
    if (!opt.fault_spec.empty()) {
        spec.faults = sim::FaultSpec::parse(opt.fault_spec);
        spec.faults.seed = opt.seed;
        // A faulted run can lose completions for good; bound it so
        // the periodic runtime cannot spin forever (see WorkloadSpec).
        // Kill specs shed at admission, so they *always* end here --
        // tighten the bound when tracing so the periodic records of
        // the post-drain tail cannot evict the crash arc.
        spec.timeLimit =
            static_cast<Tick>(opt.time_limit_ms * static_cast<double>(kMs));
    }
    spec.tracing.enabled = opt.trace;
    spec.tracing.file = opt.trace_file;
    spec.tracing.ringSlots = opt.trace_slots;

    const RunResult res = runExperiment(cfg, spec);

    if (opt.csv) {
        std::printf("design,cores,rate_mrps,achieved_mrps,p50_ns,"
                    "p99_ns,p999_ns,max_ns,slo_ns,violation_ratio,"
                    "utilization,migrated\n");
        std::printf("%s,%u,%.3f,%.3f,%llu,%llu,%llu,%llu,%llu,%.6f,"
                    "%.4f,%llu\n",
                    res.design.c_str(), opt.cores, res.offeredMrps,
                    res.achievedMrps,
                    static_cast<unsigned long long>(res.latency.p50),
                    static_cast<unsigned long long>(res.latency.p99),
                    static_cast<unsigned long long>(res.latency.p999),
                    static_cast<unsigned long long>(res.latency.max),
                    static_cast<unsigned long long>(res.sloTarget),
                    res.violationRatio, res.utilization,
                    static_cast<unsigned long long>(res.migrated));
        return res.meetsSlo() ? 0 : 1;
    }

    std::printf("design       : %s (%u cores)\n", res.design.c_str(),
                opt.cores);
    std::printf("workload     : %s, mean %.0f ns, %s arrivals\n",
                opt.dist.c_str(), opt.mean_ns,
                opt.real_world ? "MMPP" : "Poisson");
    std::printf("offered      : %.2f MRPS (achieved %.2f)\n",
                res.offeredMrps, res.achievedMrps);
    std::printf("latency      : p50 %.2f / p99 %.2f / p99.9 %.2f us\n",
                res.latency.p50 / 1e3, res.latency.p99 / 1e3,
                res.latency.p999 / 1e3);
    std::printf("SLO          : %.2f us -> %s (%.4f%% violations)\n",
                static_cast<double>(res.sloTarget) / 1e3,
                res.meetsSlo() ? "met" : "VIOLATED",
                res.violationRatio * 100.0);
    std::printf("utilization  : %.1f%%\n", res.utilization * 100.0);
    if (res.rackServers > 1) {
        std::printf("rack         : %u servers, %s ToR "
                    "(%llu dispatched, %llu shed at ToR)\n",
                    res.rackServers, torPolicyName(cfg.rack.policy),
                    static_cast<unsigned long long>(res.torDispatched),
                    static_cast<unsigned long long>(res.torShed));
        for (std::size_t s = 0; s < res.perServer.size(); ++s) {
            const PerServerResult &ps = res.perServer[s];
            std::printf("  server %-4zu: %llu done, p99 %.2f us, "
                        "util %.1f%%%s%s\n",
                        s,
                        static_cast<unsigned long long>(ps.completed),
                        ps.latency.p99 / 1e3,
                        ps.utilization * 100.0,
                        ps.requestsShed > 0 ? ", shed" : "",
                        ps.dead ? ", DEAD" : "");
        }
    }
    std::printf("fingerprint  : %016llx (%llu events)\n",
                static_cast<unsigned long long>(res.fingerprint),
                static_cast<unsigned long long>(res.fingerprintEvents));
    if (opt.trace) {
        std::printf("trace        : %llu records (%llu dropped)%s%s\n",
                    static_cast<unsigned long long>(res.traceRecords),
                    static_cast<unsigned long long>(res.traceDropped),
                    opt.trace_file.empty() ? "" : " -> ",
                    opt.trace_file.c_str());
    }
    if (res.migrated > 0 || res.messaging.migratesSent > 0) {
        std::printf("migration    : %llu requests in %llu MIGRATEs "
                    "(%llu NACKed, %llu updates)\n",
                    static_cast<unsigned long long>(res.migrated),
                    static_cast<unsigned long long>(
                        res.messaging.migratesSent),
                    static_cast<unsigned long long>(
                        res.messaging.migratesNacked),
                    static_cast<unsigned long long>(
                        res.messaging.updatesSent));
    }
    return res.meetsSlo() ? 0 : 1;
}
