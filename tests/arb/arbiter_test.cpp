// Integration tests for arb::Arbiter: solver-backed water-filling over real
// period curves, cached re-probes, endpoint hot-swap plumbing and the
// shared-service test override.

#include "arb/arbiter.hpp"
#include "svc/solver_service.hpp"
#include "test_support.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace amp::arb {
namespace {

/// Four replicable tasks that only make sense on big cores: the period
/// scales as (sum of weights) / b, giving a clean linear speedup curve.
core::TaskChain big_parallel_chain()
{
    return amp::testing::make_chain({{10.0, 10000.0, true},
                                     {10.0, 10000.0, true},
                                     {10.0, 10000.0, true},
                                     {10.0, 10000.0, true}});
}

TenantSpec tenant(const char* name, double weight, core::TaskChain chain)
{
    TenantSpec spec;
    spec.name = name;
    spec.chain = std::move(chain);
    spec.weight = weight;
    return spec;
}

/// Restores the real shared service even when a test fails mid-way.
struct SharedServiceOverride {
    explicit SharedServiceOverride(svc::SolverService* service)
        : previous(svc::set_shared_service_for_test(service))
    {
    }
    ~SharedServiceOverride() { svc::set_shared_service_for_test(previous); }
    svc::SolverService* previous;
};

/// Endpoint double mirroring rt::Pipeline::retarget's decision table.
class FakeEndpoint final : public TenantEndpoint {
public:
    explicit FakeEndpoint(plan::ExecutionPlan plan)
        : plan_(std::move(plan))
    {
    }

    /// Checks `next` against the plan it runs, as rt::Pipeline::retarget
    /// does; a resize-only change lands as a frame swap.
    [[nodiscard]] plan::SwapOutcome apply(core::Resources /*budget*/,
                                          const svc::PlannedSchedule& planned) override
    {
        const plan::ExecutionPlan& next = *planned.plan;
        resizes.push_back(plan::resize_only(plan_, next));
        if (!resizes.back())
            return plan::SwapOutcome::rebuild_required;
        if (next.solution() == plan_.solution())
            return plan::SwapOutcome::none;
        plan_ = next;
        return plan::SwapOutcome::frame;
    }

    [[nodiscard]] const plan::ExecutionPlan& running_plan() const { return plan_; }

    std::vector<bool> resizes; ///< plan::resize_only of each apply call

private:
    plan::ExecutionPlan plan_;
};

class ArbiterTest : public ::testing::Test {
protected:
    svc::SolverService service_{svc::ServiceConfig{.workers = 2}};
};

TEST_F(ArbiterTest, WaterFillingSplitsThePoolProportionallyToWeight)
{
    ArbiterConfig config;
    config.pool = core::Resources{8, 0};
    config.service = &service_;
    Arbiter arbiter{config};

    const TenantId light = arbiter.add_tenant(tenant("light", 1.0, big_parallel_chain()));
    const TenantId heavy = arbiter.add_tenant(tenant("heavy", 3.0, big_parallel_chain()));
    const ArbitrationReport report = arbiter.rearbitrate();

    EXPECT_EQ(report.generation, 1u);
    EXPECT_EQ(arbiter.status(light).budget, (core::Resources{2, 0}));
    EXPECT_EQ(arbiter.status(heavy).budget, (core::Resources{6, 0}));
    // Identical chains at the fair point: period inversely proportional to
    // the grant, so rate/weight matches across tenants.
    EXPECT_NEAR(arbiter.status(light).weighted_rate, arbiter.status(heavy).weighted_rate,
                1e-9);
    // Both tenants got a solved, compiled plan on their granted budget.
    for (const TenantId id : {light, heavy}) {
        const TenantStatus status = arbiter.status(id);
        ASSERT_TRUE(status.planned.ok());
        int replicas = 0;
        for (const plan::PlanStage& stage : status.planned.plan->stages())
            replicas += stage.replicas;
        EXPECT_EQ(replicas, status.budget.total());
    }
}

TEST_F(ArbiterTest, RearbitrateIfDirtyIsANoOpWhenNothingChanged)
{
    ArbiterConfig config;
    config.pool = core::Resources{4, 0};
    config.service = &service_;
    Arbiter arbiter{config};
    const TenantId id = arbiter.add_tenant(tenant("only", 1.0, big_parallel_chain()));

    EXPECT_TRUE(arbiter.dirty());
    ASSERT_TRUE(arbiter.rearbitrate_if_dirty().has_value());
    EXPECT_FALSE(arbiter.dirty());
    EXPECT_FALSE(arbiter.rearbitrate_if_dirty().has_value());

    arbiter.set_weight(id, 2.0);
    EXPECT_TRUE(arbiter.dirty());
    const auto report = arbiter.rearbitrate_if_dirty();
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->generation, 2u);
}

TEST_F(ArbiterTest, UnchangedRearbitrationProbesOnlyTheCache)
{
    // Satellite: the injectable shared service lets this test count the
    // solves an arbiter with no explicit service wiring actually triggers.
    svc::SolverService counting{svc::ServiceConfig{.workers = 1}};
    SharedServiceOverride guard{&counting};

    ArbiterConfig config;
    config.pool = core::Resources{6, 0};
    Arbiter arbiter{config}; // config.service == nullptr -> shared override

    arbiter.add_tenant(tenant("a", 1.0, big_parallel_chain()));
    arbiter.add_tenant(tenant("b", 2.0, big_parallel_chain()));
    const ArbitrationReport first = arbiter.rearbitrate();
    const std::uint64_t misses_after_first = counting.cache_stats().misses;
    EXPECT_GT(misses_after_first, 0u);

    // Same registry state, forced re-run: every probe and re-solve must be
    // answered by the solution cache -- no new solver work.
    const ArbitrationReport second = arbiter.rearbitrate();
    EXPECT_EQ(counting.cache_stats().misses, misses_after_first);
    EXPECT_GT(second.allocation.probes, 0u);
    ASSERT_EQ(first.allocation.tenants.size(), second.allocation.tenants.size());
    for (std::size_t t = 0; t < first.allocation.tenants.size(); ++t) {
        EXPECT_EQ(first.allocation.tenants[t].budget, second.allocation.tenants[t].budget);
        EXPECT_EQ(first.allocation.tenants[t].period_us,
                  second.allocation.tenants[t].period_us);
    }
    EXPECT_EQ(first.allocation.steps, second.allocation.steps);
}

TEST_F(ArbiterTest, BudgetChangePushesAFrameSwapThroughTheEndpoint)
{
    ArbiterConfig config;
    config.pool = core::Resources{2, 0};
    config.service = &service_;
    Arbiter arbiter{config};
    const TenantId id = arbiter.add_tenant(tenant("live", 1.0, big_parallel_chain()));
    arbiter.rearbitrate();

    const TenantStatus before = arbiter.status(id);
    ASSERT_TRUE(before.planned.ok());
    FakeEndpoint endpoint{*before.planned.plan};
    arbiter.bind_endpoint(id, &endpoint);

    // Grow the machine: the all-replicable single-stage plan absorbs the
    // extra cores as a resize-only delta -> frame swap, no drain.
    arbiter.set_pool(core::Resources{4, 0});
    const ArbitrationReport report = arbiter.rearbitrate();
    ASSERT_EQ(report.changes.size(), 1u);
    EXPECT_EQ(report.changes[0].before, (core::Resources{2, 0}));
    EXPECT_EQ(report.changes[0].after, (core::Resources{4, 0}));
    EXPECT_EQ(report.changes[0].swap, plan::SwapOutcome::frame);
    EXPECT_EQ(report.frame_swaps(), 1);
    EXPECT_EQ(report.rebuilds_required(), 0);
    ASSERT_EQ(endpoint.resizes.size(), 1u);
    EXPECT_TRUE(endpoint.resizes[0]);
    EXPECT_EQ(endpoint.running_plan().worker_count(), 4);
}

TEST_F(ArbiterTest, RemovingATenantReturnsItsCoresAtTheNextPass)
{
    ArbiterConfig config;
    config.pool = core::Resources{4, 0};
    config.service = &service_;
    Arbiter arbiter{config};
    const TenantId keep = arbiter.add_tenant(tenant("keep", 1.0, big_parallel_chain()));
    const TenantId gone = arbiter.add_tenant(tenant("gone", 1.0, big_parallel_chain()));
    arbiter.rearbitrate();
    EXPECT_EQ(arbiter.status(keep).budget, (core::Resources{2, 0}));

    EXPECT_TRUE(arbiter.remove_tenant(gone));
    EXPECT_FALSE(arbiter.remove_tenant(gone)) << "second remove of the same id";
    arbiter.rearbitrate();
    EXPECT_EQ(arbiter.tenant_count(), 1u);
    EXPECT_EQ(arbiter.status(keep).budget, (core::Resources{4, 0}));
}

TEST_F(ArbiterTest, EmptyPoolStarvesTenantsWithoutPlans)
{
    ArbiterConfig config;
    config.pool = core::Resources{0, 0};
    config.service = &service_;
    Arbiter arbiter{config};
    const TenantId id = arbiter.add_tenant(tenant("dry", 1.0, big_parallel_chain()));
    arbiter.rearbitrate();

    const TenantStatus status = arbiter.status(id);
    EXPECT_EQ(status.budget, (core::Resources{0, 0}));
    EXPECT_TRUE(std::isinf(status.period_us));
    EXPECT_EQ(status.weighted_rate, 0.0);
    EXPECT_EQ(status.planned.plan, nullptr);
}

TEST_F(ArbiterTest, ValidatesArguments)
{
    ArbiterConfig config;
    config.pool = core::Resources{2, 0};
    config.service = &service_;
    Arbiter arbiter{config};

    TenantSpec zero_weight = tenant("bad", 1.0, big_parallel_chain());
    zero_weight.weight = 0.0;
    EXPECT_THROW(arbiter.add_tenant(zero_weight), std::invalid_argument);
    EXPECT_THROW(arbiter.add_tenant(TenantSpec{}), std::invalid_argument);

    const TenantId id = arbiter.add_tenant(tenant("ok", 1.0, big_parallel_chain()));
    EXPECT_THROW(arbiter.set_weight(id, -1.0), std::invalid_argument);
    EXPECT_THROW(arbiter.set_pool(core::Resources{-1, 0}), std::invalid_argument);
    EXPECT_THROW(arbiter.status(id + 999), std::out_of_range);

    ArbiterConfig negative;
    negative.pool = core::Resources{0, -1};
    negative.service = &service_;
    EXPECT_THROW(Arbiter{negative}, std::invalid_argument);
}

TEST(SharedServiceOverrideTest, RedirectsAndRestoresTheProcessService)
{
    svc::SolverService mine{svc::ServiceConfig{.workers = 1}};
    svc::SolverService* previous = svc::set_shared_service_for_test(&mine);
    EXPECT_EQ(&svc::shared_service(), &mine);

    svc::SolverService other{svc::ServiceConfig{.workers = 1}};
    EXPECT_EQ(svc::set_shared_service_for_test(&other), &mine)
        << "exchange must return the previous override";
    EXPECT_EQ(&svc::shared_service(), &other);

    svc::set_shared_service_for_test(previous);
    EXPECT_NE(&svc::shared_service(), &mine);
    EXPECT_NE(&svc::shared_service(), &other);
}

} // namespace
} // namespace amp::arb
