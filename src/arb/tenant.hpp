#pragma once
// Tenant model of the multi-tenant arbiter (docs/ARBITER.md).
//
// A tenant is one partially-replicable task chain competing for a share of
// the machine's shared (b, l) core pool. The arbiter allocates each tenant
// a private resource vector within [quota.min, quota.max], solves the
// tenant's chain on that budget through svc::SolverService, and hands the
// resulting plan::ExecutionPlan to the tenant's live pipeline (when one is
// bound) to land in place or rebuild from. The weight expresses the tenant's
// fair-share entitlement: at the weighted max-min fair point, tenant
// throughputs are proportional to weights (rate_i / weight_i equalized
// across unsaturated tenants).

#include "core/chain.hpp"
#include "core/scheduler.hpp"

#include <cstdint>
#include <limits>
#include <string>

namespace amp::arb {

/// Stable tenant identity, assigned by the arbiter at registration and
/// never reused within one arbiter's lifetime. Ids order all deterministic
/// tie-breaks (allocation scans tenants in ascending id order).
using TenantId = std::uint64_t;

/// Per-core-type bounds on a tenant's allocation. `min` is a guaranteed
/// floor (granted before any fair-share filling; clamped to the pool when
/// the minima oversubscribe it, highest priority first). `max` caps the
/// fill; a negative component means unbounded on that core type.
struct TenantQuota {
    core::Resources min{0, 0};
    core::Resources max{-1, -1};

    /// Effective cap on `type` (INT_MAX when unbounded).
    [[nodiscard]] constexpr int cap(core::CoreType type) const noexcept
    {
        const int raw = max.count(type);
        return raw < 0 ? std::numeric_limits<int>::max() : raw;
    }

    [[nodiscard]] constexpr bool operator==(const TenantQuota&) const noexcept = default;
};

/// Everything the arbiter needs to serve one tenant.
struct TenantSpec {
    std::string name;
    core::TaskChain chain;
    /// Fair-share weight (> 0): the weighted max-min objective equalizes
    /// throughput / weight across tenants, so a weight-2 tenant converges
    /// to twice the frame rate of a weight-1 tenant when both are
    /// unsaturated.
    double weight = 1.0;
    TenantQuota quota{};
    /// Tie-break order for granting quota minima from an oversubscribed
    /// pool, and the service order of the priority_only baseline policy.
    std::int8_t priority = 0;
    /// Strategy/options every solve for this tenant uses.
    core::Strategy strategy = core::Strategy::herad;
    core::ScheduleOptions options{};
};

} // namespace amp::arb
