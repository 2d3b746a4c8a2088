/**
 * @file
 * MICA experiment runner implementation.
 */

#include "system/mica_run.hh"

#include <algorithm>

#include "common/logging.hh"
#include "workload/distributions.hh"

namespace altoc::system {

MicaRunResult
runMicaExperiment(const MicaRunConfig &cfg)
{
    altoc_assert(cfg.design.rack.servers == 1,
                 "a MICA run is a rack of one");

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
    Rng pop_rng(cfg.workload.seed ^ 0xa11c0ffeeull);
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
    // nominal SCAN estimate follows the store geometry, so the mix's
    // mean is the handler's nominal mean.
    const Tick mean_service = handler.meanServiceNs();
    const Tick nominal_scan = static_cast<Tick>(
        (static_cast<double>(mean_service) -
         (1.0 - cfg.scanFrac) * 50.0) /
        std::max(cfg.scanFrac, 1e-9));

    WorkloadSpec spec = cfg.workload;
    spec.service = std::make_shared<workload::MicaMixDist>(
        cfg.scanFrac, 50, std::max<Tick>(nominal_scan, 50));
    spec.decorate = [&handler](net::WireRpc &w, Rng &rng) {
        handler.sampleRequest(w, rng);
    };
    spec.resolve = [&handler](net::Rpc &r, cpu::Core &core) {
        handler.resolve(r, core);
    };

    MicaRunResult out;
    out.run = runExperiment(cfg.design, spec);
    out.gets = handler.gets();
    out.sets = handler.sets();
    out.scans = handler.scans();
    out.misses = handler.misses();
    out.remoteExecutions = handler.remoteExecutions();
    return out;
}

} // namespace altoc::system
