// Satellite coverage: how the arbiter's budget changes land on a bound
// endpoint that applies rt::Pipeline::retarget's rule (plan::resize_only)
// -- grow and shrink on both core types, the rebuild-required recut path,
// a tenant without an endpoint -- and quota_min clamping edge cases.

#include "arb/arbiter.hpp"
#include "svc/solver_service.hpp"
#include "test_support.hpp"

#include <gtest/gtest.h>

namespace amp::arb {
namespace {

core::TaskChain replicable_chain(double w_big, double w_little)
{
    return amp::testing::make_chain({{w_big, w_little, true},
                                     {w_big, w_little, true},
                                     {w_big, w_little, true},
                                     {w_big, w_little, true}});
}

TenantSpec tenant(const char* name, core::TaskChain chain)
{
    TenantSpec spec;
    spec.name = name;
    spec.chain = std::move(chain);
    return spec;
}

class CapturingEndpoint final : public TenantEndpoint {
public:
    explicit CapturingEndpoint(plan::ExecutionPlan plan)
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

/// What the second arbitration pass left on the endpoint.
struct Landing {
    bool resize_only = false; ///< plan::resize_only against the running plan
    int workers = 0;          ///< worker slots of the endpoint's plan afterwards
};

class ArbiterDeltaTest : public ::testing::Test {
protected:
    /// Arbitrates a single tenant at `from`, binds a capturing endpoint,
    /// resizes the pool to `to` and reports how the second pass landed.
    Landing resize_pass(core::TaskChain chain, core::Resources from, core::Resources to,
                        plan::SwapOutcome expected)
    {
        ArbiterConfig config;
        config.pool = from;
        config.service = &service_;
        Arbiter arbiter{config};
        const TenantId id = arbiter.add_tenant(tenant("t", std::move(chain)));
        arbiter.rearbitrate();

        const TenantStatus status = arbiter.status(id);
        if (!status.planned.ok())
            throw std::logic_error{"resize_pass: first pass produced no plan"};
        CapturingEndpoint endpoint{*status.planned.plan};
        arbiter.bind_endpoint(id, &endpoint);
        arbiter.set_pool(to);
        const ArbitrationReport report = arbiter.rearbitrate();
        EXPECT_EQ(report.changes.size(), 1u);
        EXPECT_EQ(report.changes[0].after, arbiter.status(id).budget);
        EXPECT_EQ(report.changes[0].swap, expected);
        EXPECT_EQ(endpoint.resizes.size(), 1u);
        return Landing{!endpoint.resizes.empty() && endpoint.resizes[0],
                       endpoint.running_plan().worker_count()};
    }

    svc::SolverService service_{svc::ServiceConfig{.workers = 2}};
};

TEST_F(ArbiterDeltaTest, GrowOnBigCoresIsAResizeOnlySpawn)
{
    // Big-biased replicable chain: one big-core stage under every budget.
    const Landing landing = resize_pass(replicable_chain(10.0, 10000.0), core::Resources{2, 0},
                                        core::Resources{4, 0}, plan::SwapOutcome::frame);
    EXPECT_TRUE(landing.resize_only);
    EXPECT_EQ(landing.workers, 4);
}

TEST_F(ArbiterDeltaTest, ShrinkOnBigCoresIsAResizeOnlyRetire)
{
    const Landing landing = resize_pass(replicable_chain(10.0, 10000.0), core::Resources{4, 0},
                                        core::Resources{2, 0}, plan::SwapOutcome::frame);
    EXPECT_TRUE(landing.resize_only);
    EXPECT_EQ(landing.workers, 2);
}

TEST_F(ArbiterDeltaTest, GrowOnLittleCoresIsAResizeOnlySpawn)
{
    // Little-biased chain: the same shape on the other core type.
    const Landing landing = resize_pass(replicable_chain(10000.0, 10.0), core::Resources{0, 2},
                                        core::Resources{0, 4}, plan::SwapOutcome::frame);
    EXPECT_TRUE(landing.resize_only);
    EXPECT_EQ(landing.workers, 4);
}

TEST_F(ArbiterDeltaTest, ShrinkOnLittleCoresIsAResizeOnlyRetire)
{
    const Landing landing = resize_pass(replicable_chain(10000.0, 10.0), core::Resources{0, 4},
                                        core::Resources{0, 2}, plan::SwapOutcome::frame);
    EXPECT_TRUE(landing.resize_only);
    EXPECT_EQ(landing.workers, 2);
}

TEST_F(ArbiterDeltaTest, RecutBudgetChangeDemandsARebuild)
{
    // Three sequential tasks: one core runs them as a single stage, two
    // cores split the chain -- a different stage cut, which cannot land in
    // place. The endpoint refuses and the arbiter reports it.
    const core::TaskChain sequential = amp::testing::make_chain(
        {{10.0, 10.0, false}, {10.0, 10.0, false}, {10.0, 10.0, false}});
    const Landing landing = resize_pass(sequential, core::Resources{1, 0}, core::Resources{2, 0},
                                        plan::SwapOutcome::rebuild_required);
    EXPECT_FALSE(landing.resize_only);
    EXPECT_EQ(landing.workers, 1) << "the endpoint keeps running its old plan";
}

TEST_F(ArbiterDeltaTest, WithoutAnEndpointTheChangeIsOnlyPlanned)
{
    ArbiterConfig config;
    config.pool = core::Resources{2, 0};
    config.service = &service_;
    Arbiter arbiter{config};
    const TenantId id =
        arbiter.add_tenant(tenant("t", replicable_chain(10.0, 10000.0)));
    arbiter.rearbitrate();

    arbiter.set_pool(core::Resources{4, 0});
    const ArbitrationReport report = arbiter.rearbitrate();
    ASSERT_EQ(report.changes.size(), 1u);
    EXPECT_TRUE(report.changes[0].planned);
    EXPECT_EQ(report.changes[0].swap, plan::SwapOutcome::none);
    EXPECT_EQ(arbiter.status(id).generation, report.generation);
}

TEST_F(ArbiterDeltaTest, QuotaMinClampsToThePoolAndStarves)
{
    ArbiterConfig config;
    config.pool = core::Resources{3, 0};
    config.service = &service_;
    Arbiter arbiter{config};

    TenantSpec greedy = tenant("greedy", replicable_chain(10.0, 10000.0));
    greedy.quota.min = core::Resources{5, 0}; // more than the machine has
    const TenantId id = arbiter.add_tenant(greedy);
    arbiter.rearbitrate();

    const TenantStatus status = arbiter.status(id);
    EXPECT_EQ(status.budget, (core::Resources{3, 0})) << "floor clamps to the pool";
    EXPECT_TRUE(status.starved);
    EXPECT_TRUE(status.planned.ok()) << "a clamped tenant still gets a plan";
}

TEST_F(ArbiterDeltaTest, QuotaMinExactlyThePoolIsNotStarved)
{
    ArbiterConfig config;
    config.pool = core::Resources{3, 0};
    config.service = &service_;
    Arbiter arbiter{config};

    TenantSpec exact = tenant("exact", replicable_chain(10.0, 10000.0));
    exact.quota.min = core::Resources{3, 0};
    const TenantId id = arbiter.add_tenant(exact);
    arbiter.rearbitrate();
    EXPECT_EQ(arbiter.status(id).budget, (core::Resources{3, 0}));
    EXPECT_FALSE(arbiter.status(id).starved);
}

TEST_F(ArbiterDeltaTest, QuotaMinOfAHighPriorityTenantDisplacesFairShare)
{
    ArbiterConfig config;
    config.pool = core::Resources{4, 0};
    config.service = &service_;
    Arbiter arbiter{config};

    TenantSpec reserved = tenant("reserved", replicable_chain(10.0, 10000.0));
    reserved.weight = 1.0;
    reserved.quota.min = core::Resources{3, 0};
    reserved.priority = 10;
    const TenantId vip = arbiter.add_tenant(reserved);
    const TenantId other =
        arbiter.add_tenant(tenant("other", replicable_chain(10.0, 10000.0)));
    arbiter.rearbitrate();

    EXPECT_GE(arbiter.status(vip).budget.big, 3) << "floor granted before fair share";
    EXPECT_EQ(arbiter.status(vip).budget.big + arbiter.status(other).budget.big, 4);
    EXPECT_FALSE(arbiter.status(vip).starved);
}

} // namespace
} // namespace amp::arb
