#include "arb/allocation.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace amp::arb {
namespace {

/// A grant must improve the tenant's period by more than this (us) to be
/// worth a core; smaller improvements saturate the tenant and leave the
/// core for others (or unused -- visible in pool_left).
constexpr double kImprovementEpsilonUs = 1e-9;

/// Mutable filling state shared by the policies.
struct FillState {
    const std::vector<TenantDemand>& demands;
    const AllocationConfig& config;
    const BatchPeriodOracle& oracle;
    AllocationResult result;
    core::Resources pool;

    explicit FillState(const std::vector<TenantDemand>& demands_in,
                       const AllocationConfig& config_in, const BatchPeriodOracle& oracle_in)
        : demands(demands_in)
        , config(config_in)
        , oracle(oracle_in)
        , pool(config_in.pool)
    {
        result.policy = config.policy;
        result.pool = config.pool;
        result.tenants.resize(demands.size());
    }

    [[nodiscard]] std::vector<double> probe(const std::vector<PeriodProbe>& probes)
    {
        result.probes += probes.size();
        std::vector<double> periods = oracle(probes);
        if (periods.size() != probes.size())
            throw std::invalid_argument{
                "arb::allocate: oracle returned " + std::to_string(periods.size())
                + " periods for " + std::to_string(probes.size()) + " probes"};
        return periods;
    }

    /// Re-probes every tenant's current budget in one batch (used after the
    /// budget-only passes of even_split and the quota floor).
    void refresh_periods()
    {
        std::vector<PeriodProbe> probes;
        probes.reserve(result.tenants.size());
        for (std::size_t t = 0; t < result.tenants.size(); ++t)
            probes.push_back(PeriodProbe{t, result.tenants[t].budget});
        const std::vector<double> periods = probe(probes);
        for (std::size_t t = 0; t < result.tenants.size(); ++t)
            result.tenants[t].period_us = periods[t];
    }

    [[nodiscard]] bool headroom(std::size_t t, core::CoreType type) const
    {
        return pool.count(type) > 0
            && result.tenants[t].budget.count(type) < demands[t].quota.cap(type);
    }

    void grant(std::size_t t, core::CoreType type, double period_after)
    {
        TenantAllocation& alloc = result.tenants[t];
        const double before = alloc.period_us;
        ++alloc.budget.count(type);
        --pool.count(type);
        alloc.period_us = period_after;
        result.steps.push_back(AllocStep{static_cast<std::uint32_t>(t), type, alloc.budget,
                                         before, period_after});
    }

    /// Grants quota floors in (priority desc, index asc) order, clamping to
    /// whatever is left of the pool; a tenant whose floor could not be met
    /// is marked starved. No probes here -- budgets only.
    void grant_floors()
    {
        std::vector<std::size_t> order(demands.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
            return demands[a].priority > demands[b].priority;
        });
        for (const std::size_t t : order) {
            TenantAllocation& alloc = result.tenants[t];
            for (const core::CoreType type : {core::CoreType::big, core::CoreType::little}) {
                const int want = std::min(std::max(demands[t].quota.min.count(type), 0),
                                          demands[t].quota.cap(type));
                const int got = std::min(want, pool.count(type));
                alloc.budget.count(type) += got;
                pool.count(type) -= got;
                if (got < want)
                    alloc.starved = true;
            }
        }
    }

    /// One water-filling grant for tenant `t`: probes its single-core
    /// extensions and takes the best improving one. Returns false (and
    /// marks the tenant saturated) when no extension improves the period
    /// by more than epsilon.
    [[nodiscard]] bool fill_one(std::size_t t)
    {
        TenantAllocation& alloc = result.tenants[t];
        std::vector<PeriodProbe> probes;
        std::vector<core::CoreType> types;
        for (const core::CoreType type : {core::CoreType::big, core::CoreType::little}) {
            if (!headroom(t, type))
                continue;
            core::Resources candidate = alloc.budget;
            ++candidate.count(type);
            probes.push_back(PeriodProbe{t, candidate});
            types.push_back(type);
        }
        if (probes.empty()) {
            alloc.saturated = true; // quota/pool limited, not period limited
            return false;
        }
        const std::vector<double> periods = probe(probes);
        std::size_t best = probes.size();
        for (std::size_t c = 0; c < probes.size(); ++c) {
            if (std::isinf(periods[c]))
                continue;
            if (best == probes.size() || periods[c] < periods[best])
                best = c; // strict <: ties keep the earlier candidate (big)
        }
        const bool improves = best != probes.size()
            && (std::isinf(alloc.period_us)
                || periods[best] + kImprovementEpsilonUs < alloc.period_us);
        if (!improves) {
            alloc.saturated = true;
            return false;
        }
        grant(t, types[best], periods[best]);
        return true;
    }

    void finalize()
    {
        for (std::size_t t = 0; t < result.tenants.size(); ++t) {
            TenantAllocation& alloc = result.tenants[t];
            alloc.weighted_rate = std::isinf(alloc.period_us) || alloc.period_us <= 0.0
                ? 0.0
                : (1.0 / alloc.period_us) / demands[t].weight;
        }
        result.pool_left = pool;
    }
};

/// Weighted max-min: repeatedly extend the tenant with the lowest weighted
/// rate until every tenant is saturated or the pool is spent.
void fill_weighted_max_min(FillState& state)
{
    std::vector<bool> done(state.demands.size(), false);
    for (;;) {
        std::size_t driest = state.demands.size();
        double driest_rate = 0.0;
        for (std::size_t t = 0; t < state.demands.size(); ++t) {
            if (done[t])
                continue;
            if (!state.headroom(t, core::CoreType::big)
                && !state.headroom(t, core::CoreType::little)) {
                done[t] = true; // quota- or pool-capped, not period-saturated
                continue;
            }
            const double period = state.result.tenants[t].period_us;
            const double rate = std::isinf(period) || period <= 0.0
                ? 0.0
                : (1.0 / period) / state.demands[t].weight;
            if (driest == state.demands.size() || rate < driest_rate) {
                driest = t;
                driest_rate = rate;
            }
        }
        if (driest == state.demands.size())
            return; // everyone saturated or capped
        if (!state.fill_one(driest))
            done[driest] = true;
    }
}

/// Static even split: round-robin one core at a time in tenant order,
/// skipping capped tenants, until neither type can be placed.
void fill_even_split(FillState& state)
{
    for (const core::CoreType type : {core::CoreType::big, core::CoreType::little}) {
        bool granted = true;
        while (granted && state.pool.count(type) > 0) {
            granted = false;
            for (std::size_t t = 0; t < state.demands.size(); ++t) {
                if (!state.headroom(t, type))
                    continue;
                ++state.result.tenants[t].budget.count(type);
                --state.pool.count(type);
                granted = true;
                if (state.pool.count(type) == 0)
                    break;
            }
        }
    }
    state.refresh_periods();
}

/// Strict priority: each tenant, in (priority desc, index asc) order, fills
/// until saturated before the next tenant sees a core.
void fill_priority_only(FillState& state)
{
    std::vector<std::size_t> order(state.demands.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return state.demands[a].priority > state.demands[b].priority;
    });
    for (const std::size_t t : order)
        while (state.fill_one(t)) {
        }
}

} // namespace

double AllocationResult::min_weighted_rate() const noexcept
{
    double min_rate = kInfinitePeriod;
    for (const TenantAllocation& tenant : tenants)
        min_rate = std::min(min_rate, tenant.weighted_rate);
    return tenants.empty() || std::isinf(min_rate) ? 0.0 : min_rate;
}

AllocationResult allocate(const std::vector<TenantDemand>& demands,
                          const AllocationConfig& config, const BatchPeriodOracle& oracle)
{
    if (config.pool.big < 0 || config.pool.little < 0)
        throw std::invalid_argument{"arb::allocate: negative pool"};
    for (const TenantDemand& demand : demands)
        if (!(demand.weight > 0.0))
            throw std::invalid_argument{"arb::allocate: tenant weight must be positive"};

    FillState state{demands, config, oracle};
    if (!demands.empty()) {
        state.grant_floors();
        state.refresh_periods();
        switch (config.policy) {
        case AllocPolicy::weighted_max_min: fill_weighted_max_min(state); break;
        case AllocPolicy::even_split: fill_even_split(state); break;
        case AllocPolicy::priority_only: fill_priority_only(state); break;
        }
    }
    state.finalize();
    return state.result;
}

double jain_index(const std::vector<double>& shares)
{
    if (shares.empty())
        return 0.0;
    double sum = 0.0;
    double sum_sq = 0.0;
    for (const double x : shares) {
        sum += x;
        sum_sq += x * x;
    }
    if (sum_sq <= 0.0)
        return 0.0;
    return (sum * sum) / (static_cast<double>(shares.size()) * sum_sq);
}

} // namespace amp::arb
