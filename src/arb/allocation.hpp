#pragma once
// Pure allocation policy of the multi-tenant arbiter: splits one shared
// (b, l) core pool across tenants by weighted max-min fairness over
// achievable periods (docs/ARBITER.md).
//
// The policy layer is deliberately time-free and solver-free: it sees each
// tenant only through a *batch period oracle* -- "what period would tenant
// t achieve on budget r?" -- and produces a deterministic grant log (the
// water-filling trace). The arbiter backs the oracle with batched
// svc::SolverService::solve_batch probes (cached, so re-arbitrations
// re-probe mostly for free); dsim::simulate_multi_tenant drives the exact
// same function in virtual time, which is what makes the allocation loop
// replayable and its trace pinnable by tests.
//
// Weighted max-min (progressive filling / water-filling): after granting
// every tenant its quota floor, repeatedly pick the tenant with the lowest
// weighted rate (1/period)/weight -- the "driest" tenant -- probe its two
// single-core extensions (+1 big, +1 little), and grant whichever yields
// the lower period. A tenant saturates (drops out) when neither extension
// improves its period by more than 1e-9 us, when its quota cap is
// reached, or when the pool runs out of the only core type that still
// helps it. The loop terminates because every round either consumes
// a core or saturates a tenant. Ties break on ascending tenant index, so
// equal inputs produce identical traces on every platform.

#include "arb/tenant.hpp"
#include "core/chain.hpp"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

namespace amp::arb {

inline constexpr double kInfinitePeriod = std::numeric_limits<double>::infinity();

/// How the pool is split across tenants.
enum class AllocPolicy : std::uint8_t {
    /// Water-filling on each tenant's period-vs-budget curve; equalizes
    /// (1/period)/weight across unsaturated tenants. The arbiter's default.
    weighted_max_min,
    /// Static even split of each core type (quota floors first, then
    /// round-robin in tenant order). Ignores weights and the period curves;
    /// the bench's "no arbiter" baseline.
    even_split,
    /// Strict priority service: tenants in (priority desc, index asc) order
    /// each fill until saturated before the next tenant sees a core.
    priority_only,
};

[[nodiscard]] constexpr const char* to_string(AllocPolicy policy) noexcept
{
    switch (policy) {
    case AllocPolicy::weighted_max_min: return "weighted_max_min";
    case AllocPolicy::even_split: return "even_split";
    case AllocPolicy::priority_only: return "priority_only";
    }
    return "?";
}

/// The policy-relevant view of one tenant (no chain, no solver state).
/// Index order in the demand vector is the deterministic tie-break order.
struct TenantDemand {
    double weight = 1.0;
    TenantQuota quota{};
    std::int8_t priority = 0;
};

/// One period query: "tenant `tenant` on budget `budget`".
struct PeriodProbe {
    std::size_t tenant = 0;
    core::Resources budget{};
};

/// Batch period oracle: achievable period in us for each probe (must return
/// exactly probes.size() entries; kInfinitePeriod when infeasible, e.g. a
/// zero budget). Must be deterministic: equal probes yield equal periods.
/// The arbiter implements this with one svc::solve_batch call per
/// invocation so probes share the worker pool and the solution cache.
using BatchPeriodOracle =
    std::function<std::vector<double>(const std::vector<PeriodProbe>&)>;

/// One grant of the filling loop -- the deterministic allocation trace.
/// Exact equality (doubles included) is intentional: the solvers are
/// bit-deterministic, so two replays of one scenario must produce
/// bit-identical traces, which the dsim trace-equality test pins.
struct AllocStep {
    std::uint32_t tenant = 0;
    core::CoreType granted = core::CoreType::big;
    core::Resources budget_after{};
    double period_before_us = kInfinitePeriod;
    double period_after_us = kInfinitePeriod;

    [[nodiscard]] constexpr bool operator==(const AllocStep&) const noexcept = default;
};

/// Final share of one tenant.
struct TenantAllocation {
    core::Resources budget{};
    double period_us = kInfinitePeriod; ///< oracle period at `budget`
    /// (1/period)/weight -- the quantity weighted max-min equalizes. Zero
    /// when infeasible.
    double weighted_rate = 0.0;
    /// True when the pool could not cover this tenant's quota floor.
    bool starved = false;
    /// True when the filling loop stopped growing this tenant because no
    /// single-core extension improved its period (as opposed to quota/pool
    /// limits).
    bool saturated = false;
};

struct AllocationResult {
    AllocPolicy policy = AllocPolicy::weighted_max_min;
    std::vector<TenantAllocation> tenants; ///< aligned with the demand vector
    std::vector<AllocStep> steps;          ///< grant log, decision order
    core::Resources pool{};                ///< the pool allocate() was given
    core::Resources pool_left{};           ///< unallocated remainder
    std::uint64_t probes = 0;              ///< period queries issued

    /// Smallest weighted rate across feasible tenants (the max-min
    /// objective value); 0 when any tenant is infeasible.
    [[nodiscard]] double min_weighted_rate() const noexcept;
};

struct AllocationConfig {
    core::Resources pool{};
    AllocPolicy policy = AllocPolicy::weighted_max_min;
};

/// Splits `config.pool` across `demands` under `config.policy`. Pure and
/// deterministic: equal inputs (and an oracle with equal answers) produce
/// identical results, including the step trace. Throws std::invalid_argument
/// on a non-positive weight or a negative pool.
[[nodiscard]] AllocationResult allocate(const std::vector<TenantDemand>& demands,
                                        const AllocationConfig& config,
                                        const BatchPeriodOracle& oracle);

/// Jain's fairness index of the given shares: (sum x)^2 / (n * sum x^2),
/// in (0, 1]; 1 = perfectly equal. Zero-filled or empty inputs yield 0.
/// The bench feeds weighted rates, so 1 means "throughput exactly
/// proportional to weight".
[[nodiscard]] double jain_index(const std::vector<double>& shares);

} // namespace amp::arb
