/**
 * @file
 * MICA experiment runner implementation.
 */

#include "system/mica_run.hh"

#include "common/logging.hh"
#include "mica/handlers.hh"
#include "workload/distributions.hh"

namespace altoc::system {

MicaRunResult
runMicaExperiment(const MicaRunConfig &cfg)
{
    MicaRunResult out;

    // EREW: one key partition per manager group. Non-AC designs use
    // the same partitioning so remote-access accounting is
    // comparable across schedulers.
    const unsigned groups = std::max(1u, cfg.design.groups);
    altoc_assert(cfg.design.cores % groups == 0,
                 "cores must divide into groups");
    const unsigned per_group = cfg.design.cores / groups;

    mica::MicaStore::Config store_cfg = cfg.store;
    store_cfg.partitions = groups;
    mica::MicaStore store(store_cfg);
    Rng pop_rng(cfg.seed ^ 0xa11c0ffeeull);
    store.populate(pop_rng);

    mica::MicaHandler handler(
        store, [per_group](unsigned core) { return core / per_group; },
        [per_group](unsigned group) { return group * per_group; },
        cfg.scanFrac);
    if (cfg.keySkew > 0.0)
        handler.setKeySkew(cfg.keySkew);
    handler.setMode(cfg.mode);

    // Nominal mix drives the load generator and the AC model; the
    // handler's resolver replaces it with executed-op timing. The
    // nominal SCAN estimate follows the store geometry.
    const Tick mean_service = handler.meanServiceNs();
    const Tick nominal_scan = static_cast<Tick>(
        (static_cast<double>(mean_service) -
         (1.0 - cfg.scanFrac) * 50.0) /
        std::max(cfg.scanFrac, 1e-9));
    auto mix = std::make_shared<workload::MicaMixDist>(
        cfg.scanFrac, 50, std::max<Tick>(nominal_scan, 50));
    const Tick slo =
        cfg.sloAbsolute
            ? *cfg.sloAbsolute
            : static_cast<Tick>(cfg.sloFactor *
                                static_cast<double>(mean_service));
    const std::uint64_t warmup = static_cast<std::uint64_t>(
        cfg.warmupFraction * static_cast<double>(cfg.requests));

    auto server = makeServer(cfg.design, mean_service, "Bimodal", slo,
                             warmup, cfg.seed);
    server->stopAfterCompletions(cfg.requests);
    server->setResolver([&handler](net::Rpc &r, cpu::Core &core) {
        handler.resolve(r, core);
    });

    RunResult &result = out.run;
    if (cfg.capturePerRequest) {
        result.perRequest.reserve(cfg.requests);
        server->setCompletionHook(
            [&result](const net::Rpc &r, Tick latency) {
                result.perRequest.push_back(RequestOutcome{
                    r.id, latency, r.migrated, r.predictedViolation});
            });
    }

    WorkloadSpec spec;
    spec.service = mix;
    spec.realWorldArrivals = cfg.realWorldArrivals;
    spec.rateMrps = cfg.rateMrps;
    spec.requests = cfg.requests;
    spec.connections = cfg.connections;
    spec.seed = cfg.seed;
    LoadGenerator gen(*server, spec);
    gen.setDecorator([&handler](net::WireRpc &w, Rng &rng) {
        handler.sampleRequest(w, rng);
    });
    gen.start();
    const Tick end = server->run();

    result.design = server->scheduler().name();
    result.offeredMrps = cfg.rateMrps;
    result.achievedMrps =
        end > 0 ? static_cast<double>(server->completed()) /
                      static_cast<double>(end) * 1e3
                : 0.0;
    result.latency = server->tracker().summary();
    result.sloTarget = slo;
    result.violationRatio = server->tracker().violationRatio();
    result.violations = server->tracker().violations();
    result.utilization = server->workerUtilization();
    result.accumulate(*server);

    out.gets = handler.gets();
    out.sets = handler.sets();
    out.scans = handler.scans();
    out.misses = handler.misses();
    out.remoteExecutions = handler.remoteExecutions();
    return out;
}

} // namespace altoc::system
