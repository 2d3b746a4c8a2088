/**
 * @file
 * TenantSystem implementation.
 *
 * Core slices are contiguous; each tenant's cores get *local* ids
 * (0..n_t-1, what every scheduler expects) but *global* NoC tiles,
 * so cross-tile latencies remain physical. The shared NIC steers
 * per tenant: an arriving request is steered among its own tenant's
 * receive queues only.
 */

#include "system/tenancy.hh"

#include "common/logging.hh"
#include "workload/arrivals.hh"

namespace altoc::system {

struct TenantSystem::Tenant : sched::CompletionSink
{
    TenantSystem *sys = nullptr;
    unsigned index = 0;
    std::string name;
    std::vector<std::unique_ptr<cpu::Core>> cores;
    std::unique_ptr<sched::Scheduler> sched;
    std::unique_ptr<workload::ArrivalProcess> arrivals;
    Rng loadRng{1};
    std::unique_ptr<stats::SloTracker> tracker;
    std::uint64_t warmup = 0;
    std::uint64_t injected = 0;
    std::uint64_t completed = 0;
    Tick nextArrival = 0;

    void
    onRpcDone(cpu::Core &core, net::Rpc *r) override
    {
        (void)core;
        const Tick done = sys->sim_.now() +
                          sys->nic_->responseLatency(net::kResponseBytes);
        ++completed;
        if (completed > warmup)
            tracker->record(done - r->nicArrival);
        sys->pool_.release(r);
        if (++sys->totalCompleted_ >= sys->totalRequests_)
            sys->sim_.requestStop();
    }
};

TenantSystem::TenantSystem(std::vector<TenantConfig> tenants,
                           std::uint64_t seed)
    : cfgs_(std::move(tenants)), rng_(seed)
{
    altoc_assert(!cfgs_.empty(), "need at least one tenant");

    unsigned total_cores = 0;
    for (const TenantConfig &cfg : cfgs_)
        total_cores += cfg.design.cores;
    mesh_ = std::make_unique<noc::Mesh>(noc::Mesh::forTiles(total_cores));

    // Build tenants over contiguous tile ranges.
    unsigned tile_base = 0;
    unsigned total_queues = 0;
    for (unsigned t = 0; t < cfgs_.size(); ++t) {
        const TenantConfig &cfg = cfgs_[t];
        auto tenant = std::make_unique<Tenant>();
        tenant->sys = this;
        tenant->index = t;
        tenant->name = cfg.name;

        const double mean = cfg.workload.service->mean();
        const Tick slo =
            cfg.workload.sloAbsolute
                ? *cfg.workload.sloAbsolute
                : static_cast<Tick>(cfg.workload.sloFactor * mean);
        tenant->tracker = std::make_unique<stats::SloTracker>(slo);
        tenant->warmup = static_cast<std::uint64_t>(
            cfg.workload.warmupFraction *
            static_cast<double>(cfg.workload.requests));
        tenant->loadRng = rng_.fork(1000 + t);

        sched::SchedContext ctx;
        ctx.sim = &sim_;
        ctx.mesh = mesh_.get();
        for (unsigned i = 0; i < cfg.design.cores; ++i) {
            tenant->cores.push_back(std::make_unique<cpu::Core>(
                sim_, i, tile_base + i));
            ctx.cores.push_back(tenant->cores.back().get());
        }
        ctx.rng = rng_.fork(2000 + t);

        tenant->sched = makeScheduler(
            cfg.design, static_cast<Tick>(mean),
            cfg.workload.service->name());
        tenant->sched->attach(std::move(ctx), tenant.get());
        tenant->sched->start();

        const double rate = cfg.workload.rateMrps * 1e-3;
        tenant->arrivals =
            cfg.workload.realWorldArrivals
                ? workload::makeRealWorld(rate, static_cast<Tick>(mean))
                : workload::makePoisson(rate);

        total_queues += tenant->sched->nicQueues();
        totalRequests_ += cfg.workload.requests;
        tile_base += cfg.design.cores;
        tenants_.push_back(std::move(tenant));
    }

    // One shared NIC. Steering happens within the owning tenant's
    // queue range: the NIC-level policy picks among `numQueues` and
    // the delivery shim folds the choice into the tenant's range.
    net::Nic::Config ncfg;
    ncfg.lineRateGbps = 1600.0;
    ncfg.attach = net::NicAttach::Integrated;
    ncfg.steering = net::Steering::Rss;
    ncfg.numQueues = total_queues;
    nic_ = std::make_unique<net::Nic>(sim_, ncfg, rng_.fork(0x7e4a47));
    nic_->setDeliver([this](net::Rpc *r, unsigned q) {
        Tenant &tenant = *tenants_[r->tenant];
        const unsigned n = tenant.sched->nicQueues();
        tenant.sched->deliver(r, q % n);
    });
}

TenantSystem::~TenantSystem() = default;

void
TenantSystem::startLoad(unsigned t)
{
    Tenant &tenant = *tenants_[t];
    tenant.nextArrival = tenant.arrivals->nextGap(tenant.loadRng);
    sim_.at(tenant.nextArrival, [this, t] { injectNext(t); });
}

void
TenantSystem::injectNext(unsigned t)
{
    Tenant &tenant = *tenants_[t];
    const TenantConfig &cfg = cfgs_[t];

    net::Rpc *r = pool_.alloc();
    r->id = tenant.injected;
    r->tenant = static_cast<std::uint8_t>(t);
    const workload::ServiceSample s =
        cfg.workload.service->sample(tenant.loadRng);
    r->service = s.service;
    r->remaining = s.service;
    r->kind = s.kind;
    r->conn = static_cast<std::uint32_t>(
        tenant.loadRng.below(cfg.workload.connections));
    r->sizeBytes = cfg.workload.requestBytes;
    ++tenant.injected;
    nic_->receive(r);

    if (tenant.injected < cfg.workload.requests) {
        tenant.nextArrival +=
            tenant.arrivals->nextGap(tenant.loadRng);
        sim_.at(tenant.nextArrival, [this, t] { injectNext(t); });
    }
}

std::vector<TenantResult>
TenantSystem::run()
{
    for (unsigned t = 0; t < tenants_.size(); ++t)
        startLoad(t);
    sim_.run();

    std::vector<TenantResult> out;
    for (unsigned t = 0; t < tenants_.size(); ++t) {
        Tenant &tenant = *tenants_[t];
        TenantResult res;
        res.name = tenant.name;
        res.design = tenant.sched->name();
        res.completed = tenant.completed;
        res.latency = tenant.tracker->summary();
        res.sloTarget = tenant.tracker->target();
        res.violationRatio = tenant.tracker->violationRatio();
        if (auto *group = dynamic_cast<const core::GroupScheduler *>(
                tenant.sched.get())) {
            res.migrated = group->requestsMigrated();
        }
        out.push_back(std::move(res));
    }
    return out;
}

} // namespace altoc::system
