/**
 * @file
 * Multi-tenant isolation (the paper's stated future work,
 * Sec. XI: "our distributed software runtime offers the opportunity
 * for isolating different applications").
 *
 * A TenantSystem statically partitions the machine's cores among
 * applications: each tenant gets its own scheduler instance (its own
 * ALTOCUMULUS groups, or any baseline) over a dedicated core slice,
 * while sharing the NIC, the NoC and the simulation clock. Requests
 * carry a tenant id; the shared NIC steers within the owning
 * tenant's receive queues only. Migrations therefore never cross
 * tenants -- one application's burst cannot consume another's
 * workers, which is exactly the isolation property the ablation
 * bench quantifies against a fully shared machine.
 */

#ifndef ALTOC_SYSTEM_TENANCY_HH
#define ALTOC_SYSTEM_TENANCY_HH

#include <memory>
#include <vector>

#include "stats/slo.hh"
#include "system/experiment.hh"

namespace altoc::system {

/** One tenant's slice of the machine. */
struct TenantConfig
{
    /** Scheduler design + sizing for this tenant's core slice. */
    DesignConfig design;

    /** Tenant's own workload. */
    WorkloadSpec workload;

    /** Display name. */
    std::string name = "tenant";
};

/** Per-tenant outcome. */
struct TenantResult
{
    std::string name;
    std::string design;
    std::uint64_t completed = 0;
    stats::Summary latency;
    Tick sloTarget = 0;
    double violationRatio = 0.0;
    std::uint64_t migrated = 0;
};

/**
 * A machine shared by several statically partitioned tenants.
 */
class TenantSystem
{
  public:
    explicit TenantSystem(std::vector<TenantConfig> tenants,
                          std::uint64_t seed = 1);
    ~TenantSystem();

    TenantSystem(const TenantSystem &) = delete;
    TenantSystem &operator=(const TenantSystem &) = delete;

    /** Run all tenants' workloads to completion. */
    std::vector<TenantResult> run();

  private:
    struct Tenant;

    void startLoad(unsigned t);
    void injectNext(unsigned t);

    std::vector<TenantConfig> cfgs_;
    sim::Simulator sim_;
    Rng rng_;
    std::unique_ptr<noc::Mesh> mesh_;
    std::unique_ptr<net::Nic> nic_;
    std::vector<std::unique_ptr<Tenant>> tenants_;
    net::RpcPool pool_;
    std::uint64_t totalRequests_ = 0;
    std::uint64_t totalCompleted_ = 0;
};

} // namespace altoc::system

#endif // ALTOC_SYSTEM_TENANCY_HH
