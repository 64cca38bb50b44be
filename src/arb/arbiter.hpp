#pragma once
// amp::arb::Arbiter -- multi-tenant arbiter serving many concurrent task
// chains from one shared (b, l) core pool (docs/ARBITER.md).
//
// The paper schedules ONE partially-replicable chain on a fixed resource
// vector. The arbiter sits above svc::SolverService and serves MANY chains
// (tenants) competing for one big.LITTLE machine: each tenant registers a
// TenantSpec (chain, fair-share weight, per-type quota floor/cap,
// priority); rearbitrate() runs a global allocation loop that splits the
// pool by weighted max-min fairness over achievable periods (arb::allocate,
// water-filling on each tenant's period-vs-budget curve, probed via batched
// solve_batch calls through the service's solution cache), solves every
// tenant's chain on its granted budget, and pushes the resulting
// plan::ExecutionPlan to the tenant's live executor (TenantEndpoint::apply:
// an rt::Controller grant, one rt::Pipeline::retarget), which reports a
// plan::SwapOutcome:
//
//   * budget unchanged            -> nothing pushed (SwapOutcome::none)
//   * resize-only change          -> frame: swapped in place, no drain
//   * anything else (a recut or   -> rebuild_required; the new plan is
//     a rebind)                      stored in the tenant status and the
//                                    owner rebuilds its executor from it
//
// Tenant join / leave / weight change / chain drift mark the arbiter dirty;
// the owner (or dsim::simulate_multi_tenant, which replays the same loop in
// virtual time) calls rearbitrate() to re-run the allocation.
//
// Telemetry: amp_arb_* counters/gauges (obs/schema.hpp, table in
// docs/SOLVER_SERVICE.md) recorded into an injected registry or the
// service's own.

#include "arb/allocation.hpp"
#include "arb/tenant.hpp"
#include "obs/metrics.hpp"
#include "plan/execution_plan.hpp"
#include "svc/solver_service.hpp"

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

namespace amp::arb {

/// Type-erased handle to a tenant's live executor. rt::PipelineControl
/// binds one rt::Pipeline<T> through its rt::Controller; tests inject
/// fakes. Calls arrive on the thread that invoked Arbiter::rearbitrate(),
/// under the arbiter's lock: an endpoint must not call back into the
/// arbiter from apply.
class TenantEndpoint {
public:
    virtual ~TenantEndpoint() = default;

    /// Takes the granted `budget` and the plan already solved for it,
    /// retargets the executor onto `next.plan` and reports how it landed.
    /// The executor checks the plan against the one it actually runs
    /// (plan::resize_only); rebuild_required means it could not take the
    /// change now and is untouched.
    [[nodiscard]] virtual plan::SwapOutcome apply(core::Resources budget,
                                                  const svc::PlannedSchedule& next) = 0;
};

struct ArbiterConfig {
    /// The shared machine the tenants compete for.
    core::Resources pool{};
    AllocPolicy policy = AllocPolicy::weighted_max_min;
    /// Solver service for probes and plan solves; null = svc::shared_service().
    svc::SolverService* service = nullptr;
    /// Metrics registry for the amp_arb_* instruments; null = the service's.
    obs::MetricsRegistry* metrics = nullptr;
};

/// Public view of one tenant between rearbitrations.
struct TenantStatus {
    TenantId id = 0;
    std::string name;
    double weight = 1.0;
    std::int8_t priority = 0;
    core::Resources budget{};
    double period_us = kInfinitePeriod;
    double weighted_rate = 0.0; ///< (1/period)/weight; the fairness share
    bool starved = false;       ///< quota floor not covered by the pool
    std::uint64_t generation = 0; ///< rearbitration that last changed the budget
    /// Current plan (result + compiled ExecutionPlan); plan is null until
    /// the first rearbitration grants a feasible budget.
    svc::PlannedSchedule planned;
};

/// What one rearbitration did to one tenant.
struct TenantChange {
    TenantId id = 0;
    core::Resources before{};
    core::Resources after{};
    /// How the new plan landed on the bound endpoint; none when the budget
    /// is unchanged or the change is only `planned`.
    plan::SwapOutcome swap = plan::SwapOutcome::none;
    /// The new plan was only stored: no endpoint is bound, or the tenant
    /// starved out and its plan was dropped.
    bool planned = false;
};

/// Outcome of one global allocation pass. `allocation.steps` is the
/// deterministic water-filling trace; `ids` aligns allocation.tenants /
/// changes with tenant identities (ascending id order).
struct ArbitrationReport {
    std::uint64_t generation = 0;
    std::vector<TenantId> ids;
    AllocationResult allocation;
    std::vector<TenantChange> changes;

    /// Changes that reached a live executor without a drain.
    [[nodiscard]] int frame_swaps() const noexcept;
    [[nodiscard]] int rebuilds_required() const noexcept;
};

/// Thread-safe tenant registry + global allocation loop. All public methods
/// lock one mutex; rearbitrate() runs the solver probes and endpoint swaps
/// under it, so mutations observed by a concurrent caller are atomic per
/// arbitration pass.
class Arbiter {
public:
    explicit Arbiter(ArbiterConfig config);

    Arbiter(const Arbiter&) = delete;
    Arbiter& operator=(const Arbiter&) = delete;

    /// Registers a tenant (weight must be positive; throws otherwise).
    /// The tenant holds no cores until the next rearbitrate().
    TenantId add_tenant(TenantSpec spec);

    /// Unregisters; the tenant's cores return to the pool at the next
    /// rearbitrate(). False when the id is unknown. A bound endpoint is
    /// forgotten (never invoked again).
    bool remove_tenant(TenantId id);

    /// Updates the fair-share weight (positive; throws otherwise).
    void set_weight(TenantId id, double weight);

    /// Replaces the tenant's chain (e.g. after drift re-profiling by
    /// rt::Controller::observe rebuilt the weights); next rearbitrate()
    /// re-solves on the new chain.
    void update_chain(TenantId id, core::TaskChain chain);

    /// Replaces the tenant's quota bounds (throws std::out_of_range on an
    /// unknown id, std::invalid_argument on a negative min). This is how an
    /// autoscaling tenant opts in to returning cores to the shared pool:
    /// rt::Controller's on_resize hook lowers the cap to the shrunken
    /// budget and the next rearbitrate() redistributes the freed cores.
    void set_quota(TenantId id, TenantQuota quota);

    /// Grows or shrinks the shared pool (machine reconfiguration).
    void set_pool(core::Resources pool);

    /// Binds (or, with null, unbinds) the live executor hot-swap handle.
    /// The endpoint must outlive the binding.
    void bind_endpoint(TenantId id, TenantEndpoint* endpoint);

    /// Runs the global allocation loop: probes period curves (batched,
    /// cached), water-fills the pool, re-solves every tenant whose budget
    /// changed and pushes the change to its endpoint. Deterministic apart
    /// from wall-clock metrics: equal registry state yields an identical
    /// report (steps, budgets, periods) on every run.
    ArbitrationReport rearbitrate();

    /// rearbitrate() only when membership, weights, chains or the pool
    /// changed since the last pass; nullopt otherwise.
    std::optional<ArbitrationReport> rearbitrate_if_dirty();

    [[nodiscard]] bool dirty() const;
    [[nodiscard]] core::Resources pool() const;
    [[nodiscard]] std::size_t tenant_count() const;
    [[nodiscard]] std::uint64_t generation() const;

    /// Status snapshot; throws std::out_of_range on an unknown id.
    [[nodiscard]] TenantStatus status(TenantId id) const;
    /// All tenants, ascending id order.
    [[nodiscard]] std::vector<TenantStatus> tenants() const;

private:
    struct Tenant {
        TenantSpec spec;
        core::Resources budget{};
        double period_us = kInfinitePeriod;
        double weighted_rate = 0.0;
        bool starved = false;
        std::uint64_t generation = 0;
        svc::PlannedSchedule planned;
        TenantEndpoint* endpoint = nullptr;
    };

    struct Instruments {
        obs::Counter* rearbitrations = nullptr;
        obs::Counter* probes = nullptr;
        obs::Counter* grants = nullptr;
        obs::Counter* frame_swaps = nullptr;
        obs::Counter* rebuilds_required = nullptr;
        obs::Gauge* tenant_count = nullptr;
        obs::Gauge* starved = nullptr;
        obs::Gauge* pool_free_big = nullptr;
        obs::Gauge* pool_free_little = nullptr;
    };

    [[nodiscard]] svc::SolverService& service() const;
    [[nodiscard]] core::ScheduleRequest request_for(const Tenant& tenant,
                                                    core::Resources budget) const;
    ArbitrationReport rearbitrate_locked();
    [[nodiscard]] TenantStatus status_of(TenantId id, const Tenant& tenant) const;

    ArbiterConfig config_;
    Instruments instruments_;

    mutable std::mutex mutex_;
    std::map<TenantId, Tenant> tenants_; ///< ordered: deterministic scans
    TenantId next_id_ = 1;
    std::uint64_t generation_ = 0;
    bool dirty_ = false;
};

} // namespace amp::arb
