#include "arb/arbiter.hpp"

#include "obs/schema.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace amp::arb {

int ArbitrationReport::frame_swaps() const noexcept
{
    int count = 0;
    for (const TenantChange& change : changes)
        count += change.swap == plan::SwapOutcome::frame ? 1 : 0;
    return count;
}

int ArbitrationReport::rebuilds_required() const noexcept
{
    int count = 0;
    for (const TenantChange& change : changes)
        count += change.swap == plan::SwapOutcome::rebuild_required ? 1 : 0;
    return count;
}

Arbiter::Arbiter(ArbiterConfig config)
    : config_(std::move(config))
{
    if (config_.pool.big < 0 || config_.pool.little < 0)
        throw std::invalid_argument{"Arbiter: negative pool"};
    obs::MetricsRegistry& registry =
        config_.metrics != nullptr ? *config_.metrics : service().metrics();
    instruments_.rearbitrations = &registry.counter(obs::schema::kArbRearbitrations);
    instruments_.probes = &registry.counter(obs::schema::kArbProbes);
    instruments_.grants = &registry.counter(obs::schema::kArbGrants);
    instruments_.frame_swaps = &registry.counter(obs::schema::kArbFrameSwaps);
    instruments_.rebuilds_required = &registry.counter(obs::schema::kArbRebuildsRequired);
    instruments_.tenant_count = &registry.gauge(obs::schema::kArbTenants);
    instruments_.starved = &registry.gauge(obs::schema::kArbStarvedTenants);
    instruments_.pool_free_big = &registry.gauge(obs::schema::kArbPoolFreeBig);
    instruments_.pool_free_little = &registry.gauge(obs::schema::kArbPoolFreeLittle);
}

svc::SolverService& Arbiter::service() const
{
    return config_.service != nullptr ? *config_.service : svc::shared_service();
}

core::ScheduleRequest Arbiter::request_for(const Tenant& tenant, core::Resources budget) const
{
    core::ScheduleRequest request;
    request.chain = tenant.spec.chain;
    request.resources = budget;
    request.strategy = tenant.spec.strategy;
    request.options = tenant.spec.options;
    request.priority = tenant.spec.priority;
    return request;
}

TenantId Arbiter::add_tenant(TenantSpec spec)
{
    if (!(spec.weight > 0.0))
        throw std::invalid_argument{"Arbiter::add_tenant: weight must be positive"};
    if (spec.chain.empty())
        throw std::invalid_argument{"Arbiter::add_tenant: empty chain"};
    std::lock_guard lock{mutex_};
    const TenantId id = next_id_++;
    Tenant tenant;
    tenant.spec = std::move(spec);
    tenants_.emplace(id, std::move(tenant));
    dirty_ = true;
    instruments_.tenant_count->set(static_cast<double>(tenants_.size()));
    return id;
}

bool Arbiter::remove_tenant(TenantId id)
{
    std::lock_guard lock{mutex_};
    const bool erased = tenants_.erase(id) > 0;
    if (erased) {
        dirty_ = true;
        instruments_.tenant_count->set(static_cast<double>(tenants_.size()));
    }
    return erased;
}

void Arbiter::set_weight(TenantId id, double weight)
{
    if (!(weight > 0.0))
        throw std::invalid_argument{"Arbiter::set_weight: weight must be positive"};
    std::lock_guard lock{mutex_};
    Tenant& tenant = tenants_.at(id);
    if (tenant.spec.weight != weight) {
        tenant.spec.weight = weight;
        dirty_ = true;
    }
}

void Arbiter::set_quota(TenantId id, TenantQuota quota)
{
    if (quota.min.big < 0 || quota.min.little < 0)
        throw std::invalid_argument{"Arbiter::set_quota: negative quota floor"};
    std::lock_guard lock{mutex_};
    Tenant& tenant = tenants_.at(id);
    if (tenant.spec.quota != quota) {
        tenant.spec.quota = quota;
        dirty_ = true;
    }
}

void Arbiter::update_chain(TenantId id, core::TaskChain chain)
{
    if (chain.empty())
        throw std::invalid_argument{"Arbiter::update_chain: empty chain"};
    std::lock_guard lock{mutex_};
    Tenant& tenant = tenants_.at(id);
    tenant.spec.chain = std::move(chain);
    dirty_ = true;
}

void Arbiter::set_pool(core::Resources pool)
{
    if (pool.big < 0 || pool.little < 0)
        throw std::invalid_argument{"Arbiter::set_pool: negative pool"};
    std::lock_guard lock{mutex_};
    if (config_.pool != pool) {
        config_.pool = pool;
        dirty_ = true;
    }
}

void Arbiter::bind_endpoint(TenantId id, TenantEndpoint* endpoint)
{
    std::lock_guard lock{mutex_};
    tenants_.at(id).endpoint = endpoint;
}

bool Arbiter::dirty() const
{
    std::lock_guard lock{mutex_};
    return dirty_;
}

core::Resources Arbiter::pool() const
{
    std::lock_guard lock{mutex_};
    return config_.pool;
}

std::size_t Arbiter::tenant_count() const
{
    std::lock_guard lock{mutex_};
    return tenants_.size();
}

std::uint64_t Arbiter::generation() const
{
    std::lock_guard lock{mutex_};
    return generation_;
}

TenantStatus Arbiter::status_of(TenantId id, const Tenant& tenant) const
{
    TenantStatus status;
    status.id = id;
    status.name = tenant.spec.name;
    status.weight = tenant.spec.weight;
    status.priority = tenant.spec.priority;
    status.budget = tenant.budget;
    status.period_us = tenant.period_us;
    status.weighted_rate = tenant.weighted_rate;
    status.starved = tenant.starved;
    status.generation = tenant.generation;
    status.planned = tenant.planned;
    return status;
}

TenantStatus Arbiter::status(TenantId id) const
{
    std::lock_guard lock{mutex_};
    return status_of(id, tenants_.at(id));
}

std::vector<TenantStatus> Arbiter::tenants() const
{
    std::lock_guard lock{mutex_};
    std::vector<TenantStatus> out;
    out.reserve(tenants_.size());
    for (const auto& [id, tenant] : tenants_)
        out.push_back(status_of(id, tenant));
    return out;
}

ArbitrationReport Arbiter::rearbitrate()
{
    std::lock_guard lock{mutex_};
    return rearbitrate_locked();
}

std::optional<ArbitrationReport> Arbiter::rearbitrate_if_dirty()
{
    std::lock_guard lock{mutex_};
    if (!dirty_)
        return std::nullopt;
    return rearbitrate_locked();
}

ArbitrationReport Arbiter::rearbitrate_locked()
{
    ArbitrationReport report;
    report.generation = ++generation_;

    // Snapshot the registry in ascending id order -- the deterministic
    // tenant indexing every downstream structure (demands, allocation,
    // changes) shares.
    std::vector<TenantId> ids;
    std::vector<Tenant*> members;
    std::vector<TenantDemand> demands;
    ids.reserve(tenants_.size());
    members.reserve(tenants_.size());
    demands.reserve(tenants_.size());
    for (auto& [id, tenant] : tenants_) {
        ids.push_back(id);
        members.push_back(&tenant);
        demands.push_back(
            TenantDemand{tenant.spec.weight, tenant.spec.quota, tenant.spec.priority});
    }
    report.ids = ids;

    // Period oracle: one solve_batch per probe round. Repeated budgets --
    // across rounds and across rearbitrations -- hit the service's solution
    // cache, so the water-filling loop costs roughly one real solve per
    // distinct (tenant, budget) point on the period curve.
    const BatchPeriodOracle oracle =
        [&](const std::vector<PeriodProbe>& probes) -> std::vector<double> {
        std::vector<double> periods(probes.size(), kInfinitePeriod);
        std::vector<core::ScheduleRequest> requests;
        std::vector<std::size_t> slots; // probe index of each submitted request
        requests.reserve(probes.size());
        slots.reserve(probes.size());
        for (std::size_t p = 0; p < probes.size(); ++p) {
            if (probes[p].budget.total() <= 0)
                continue; // zero budget is infeasible by definition; skip the solver
            requests.push_back(request_for(*members[probes[p].tenant], probes[p].budget));
            slots.push_back(p);
        }
        if (requests.empty())
            return periods;
        const std::vector<core::ScheduleResult> results = service().solve_batch(requests);
        for (std::size_t r = 0; r < results.size(); ++r) {
            const std::size_t p = slots[r];
            if (results[r].ok() && !results[r].solution.empty())
                periods[p] =
                    results[r].solution.period(members[probes[p].tenant]->spec.chain);
        }
        return periods;
    };

    AllocationConfig alloc_config;
    alloc_config.pool = config_.pool;
    alloc_config.policy = config_.policy;
    alloc_config.improvement_epsilon_us = config_.improvement_epsilon_us;
    report.allocation = allocate(demands, alloc_config, oracle);

    // Apply: re-solve and push every tenant whose budget changed.
    report.changes.reserve(ids.size());
    std::uint64_t frame_swaps = 0;
    std::uint64_t rebuilds = 0;
    std::uint64_t starved = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
        Tenant& tenant = *members[i];
        const TenantAllocation& granted = report.allocation.tenants[i];

        TenantChange change;
        change.id = ids[i];
        change.before = tenant.budget;
        change.after = granted.budget;

        tenant.period_us = granted.period_us;
        tenant.weighted_rate = granted.weighted_rate;
        tenant.starved = granted.starved;
        starved += granted.starved ? 1 : 0;

        const bool unchanged = change.before == change.after && tenant.planned.plan != nullptr;
        if (!unchanged) {
            tenant.budget = granted.budget;
            svc::PlannedSchedule next;
            if (granted.budget.total() > 0)
                next = service().solve_planned(request_for(tenant, granted.budget),
                                              config_.plan_options);
            if (next.ok()) {
                if (tenant.planned.plan != nullptr)
                    change.delta = plan::diff(*tenant.planned.plan, *next.plan);
                if (tenant.endpoint != nullptr) {
                    change.swap = tenant.endpoint->apply(*next.plan);
                    switch (change.swap) {
                    case plan::SwapOutcome::frame: ++frame_swaps; break;
                    case plan::SwapOutcome::rebuild_required: ++rebuilds; break;
                    case plan::SwapOutcome::none: break;
                    }
                } else {
                    change.planned = true;
                }
                tenant.planned = std::move(next);
            } else {
                // Starved out (zero or infeasible budget): drop the stale
                // plan so status reflects "not runnable right now".
                tenant.planned = svc::PlannedSchedule{};
                change.planned = true;
            }
            tenant.generation = generation_;
        }
        report.changes.push_back(std::move(change));
    }

    dirty_ = false;
    instruments_.rearbitrations->add(0, 1);
    instruments_.probes->add(0, report.allocation.probes);
    instruments_.grants->add(0, report.allocation.steps.size());
    instruments_.frame_swaps->add(0, frame_swaps);
    instruments_.rebuilds_required->add(0, rebuilds);
    instruments_.tenant_count->set(static_cast<double>(tenants_.size()));
    instruments_.starved->set(static_cast<double>(starved));
    instruments_.pool_free_big->set(static_cast<double>(report.allocation.pool_left.big));
    instruments_.pool_free_little->set(
        static_cast<double>(report.allocation.pool_left.little));
    return report;
}

} // namespace amp::arb
