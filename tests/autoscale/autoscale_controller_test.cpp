// rt::AutoscaleController unit coverage (pure decision logic) plus the
// dsim::simulate_autoscale replay: determinism, step/sine load tracking,
// no flapping within the cooldown, and the arbiter quota opt-in.

#include "arb/arbiter.hpp"
#include "dsim/simulator.hpp"
#include "rt/controller.hpp"
#include "sim/generator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <string>
#include <vector>

namespace {

using namespace amp::rt;
using amp::core::CoreType;
using amp::core::Resources;
using amp::core::TaskChain;
using amp::core::TaskDesc;
namespace arb = amp::arb;
namespace dsim = amp::dsim;
namespace sim = amp::sim;

AutoscalePolicy test_policy()
{
    AutoscalePolicy policy;
    policy.grow_above = 0.85;
    policy.shrink_below = 0.40;
    policy.patience = 3;
    policy.cooldown_ns = 1'000;
    policy.min_pool = {0, 1};
    policy.max_pool = {4, 4};
    return policy;
}

TEST(AutoscaleController, InBandUtilizationNeverActs)
{
    AutoscaleController controller{test_policy()};
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(controller.observe(0.65, i * 10'000), ScaleDecision::hold);
}

TEST(AutoscaleController, PatienceDebouncesTransientSpikes)
{
    AutoscaleController controller{test_policy()};
    // Two hot windows, then one in-band: the streak resets, so a third hot
    // window later starts over instead of firing.
    EXPECT_EQ(controller.observe(0.95, 0), ScaleDecision::hold);
    EXPECT_EQ(controller.observe(0.95, 1), ScaleDecision::hold);
    EXPECT_EQ(controller.observe(0.60, 2), ScaleDecision::hold);
    EXPECT_EQ(controller.grow_streak(), 0);
    EXPECT_EQ(controller.observe(0.95, 3), ScaleDecision::hold);
    EXPECT_EQ(controller.observe(0.95, 4), ScaleDecision::hold);
    EXPECT_EQ(controller.observe(0.95, 5), ScaleDecision::grow)
        << "the third consecutive hot window fires";
    EXPECT_EQ(controller.grow_streak(), 0) << "firing consumes the streak";
}

TEST(AutoscaleController, OppositeSignalResetsTheOtherStreak)
{
    AutoscaleController controller{test_policy()};
    EXPECT_EQ(controller.observe(0.95, 0), ScaleDecision::hold);
    EXPECT_EQ(controller.observe(0.95, 1), ScaleDecision::hold);
    EXPECT_EQ(controller.observe(0.10, 2), ScaleDecision::hold);
    EXPECT_EQ(controller.grow_streak(), 0);
    EXPECT_EQ(controller.shrink_streak(), 1);
}

TEST(AutoscaleController, CooldownGatesButStreaksKeepAccumulating)
{
    AutoscalePolicy policy = test_policy();
    policy.cooldown_ns = 100;
    AutoscaleController controller{policy};
    EXPECT_EQ(controller.observe(0.95, 0), ScaleDecision::hold);
    EXPECT_EQ(controller.observe(0.95, 10), ScaleDecision::hold);
    EXPECT_EQ(controller.observe(0.95, 20), ScaleDecision::grow);
    // Still hot inside the cooldown: gated, but the streak accumulates...
    EXPECT_EQ(controller.observe(0.95, 40), ScaleDecision::hold);
    EXPECT_EQ(controller.observe(0.95, 60), ScaleDecision::hold);
    EXPECT_EQ(controller.observe(0.95, 80), ScaleDecision::hold);
    // ...so the FIRST window past the cooldown acts (no re-debounce).
    EXPECT_EQ(controller.observe(0.95, 121), ScaleDecision::grow);
}

TEST(AutoscaleController, SteppedGrowsPreferredTypeFirstThenSpills)
{
    AutoscalePolicy policy = test_policy();
    policy.grow_first = CoreType::little;
    EXPECT_EQ(AutoscaleController::stepped(policy, {2, 2}, ScaleDecision::grow),
              (Resources{2, 3}));
    EXPECT_EQ(AutoscaleController::stepped(policy, {2, 4}, ScaleDecision::grow),
              (Resources{3, 4}))
        << "littles at max: spill to big";
    EXPECT_EQ(AutoscaleController::stepped(policy, {4, 4}, ScaleDecision::grow), std::nullopt)
        << "both at max: clamped";
}

TEST(AutoscaleController, SteppedShrinksInReverseOrderAndRespectsFloors)
{
    AutoscalePolicy policy = test_policy();
    policy.grow_first = CoreType::little; // shrink frees big first
    EXPECT_EQ(AutoscaleController::stepped(policy, {2, 2}, ScaleDecision::shrink),
              (Resources{1, 2}));
    EXPECT_EQ(AutoscaleController::stepped(policy, {0, 2}, ScaleDecision::shrink),
              (Resources{0, 1}));
    EXPECT_EQ(AutoscaleController::stepped(policy, {0, 1}, ScaleDecision::shrink), std::nullopt)
        << "at the floor: clamped";
    // The floor can never strand an empty machine even when min_pool is 0/0.
    policy.min_pool = {0, 0};
    EXPECT_EQ(AutoscaleController::stepped(policy, {1, 0}, ScaleDecision::shrink), std::nullopt)
        << "the last core never shrinks away";
    EXPECT_EQ(AutoscaleController::stepped(policy, {2, 2}, ScaleDecision::hold), std::nullopt);
}

TEST(AutoscaleController, ShrinkCandidatesKeepLegacyOrderByDefault)
{
    AutoscalePolicy policy = test_policy();
    policy.grow_first = CoreType::little; // so a shrink frees big first
    const auto candidates = AutoscaleController::shrink_candidates(policy, {2, 2});
    ASSERT_EQ(candidates.count, 2);
    EXPECT_EQ(candidates.target[0], (Resources{1, 2}));
    EXPECT_EQ(candidates.target[1], (Resources{2, 1}));
    // stepped() is the first candidate.
    EXPECT_EQ(AutoscaleController::stepped(policy, {2, 2}, ScaleDecision::shrink),
              (Resources{1, 2}));
    // One-axis slack: a single candidate; at the floor: none.
    const auto only_little = AutoscaleController::shrink_candidates(policy, {0, 2});
    ASSERT_EQ(only_little.count, 1);
    EXPECT_EQ(only_little.target[0], (Resources{0, 1}));
    EXPECT_EQ(AutoscaleController::shrink_candidates(policy, {0, 1}).count, 0);
}

// ---------------------------------------------------------------------------
// dsim replay

dsim::AutoscaleScenario step_scenario()
{
    dsim::AutoscaleScenario scenario;
    sim::GeneratorConfig config;
    config.num_tasks = 12;
    amp::Rng rng{0x5CA1E};
    scenario.chain = sim::generate_chain(config, rng);
    scenario.initial = {1, 2};
    scenario.policy = test_policy();
    scenario.policy.cooldown_ns = 50'000'000; // 50 ms virtual
    // Step profile: idle, a hard step to ~3x the initial capacity, idle.
    const double base_fps = 1e6 / amp::core::schedule(amp::core::Strategy::herad, scenario.chain,
                                                      scenario.initial)
                                      .period(scenario.chain);
    scenario.load = {{0, 0.3 * base_fps}, {300'000, 3.0 * base_fps}, {700'000, 0.2 * base_fps}};
    scenario.horizon_us = 1'000'000;
    scenario.sample_period_us = 5'000;
    return scenario;
}

TEST(AutoscaleSim, StepLoadGrowsThenShrinksWithoutFlapping)
{
    const dsim::AutoscaleScenario scenario = step_scenario();
    const dsim::AutoscaleSimResult result = dsim::simulate_autoscale(scenario);
    EXPECT_GT(result.grows, 0u) << "the 3x step must trigger growth";
    EXPECT_GT(result.shrinks, 0u) << "the trailing idle must hand cores back";
    EXPECT_GE(result.min_action_gap_us, 50'000)
        << "two actions within the cooldown = flapping";
    EXPECT_GT(result.samples, 0u);
    // Every re-solve after the first rides the retained frontier.
    EXPECT_GT(result.warm_fraction, 0.9);
    // Every event prices the HeRAD schedule in force after it.
    for (const auto& event : result.events) {
        EXPECT_EQ(event.after.total() >= 1, true);
        EXPECT_GT(event.energy_per_item, 0.0);
        EXPECT_DOUBLE_EQ(event.energy_per_item,
                         amp::core::energy_per_item(
                             scenario.chain,
                             amp::core::schedule(amp::core::Strategy::herad, scenario.chain,
                                                 event.after),
                             scenario.power));
    }
}

// The exact action sequence of the step replay: a change to the shared
// resize step (targets, candidate order, clamps, warm accounting) shows
// here even when every property above still holds.
TEST(AutoscaleSim, StepReplayMatchesThePinnedTrace)
{
    struct Action {
        std::int64_t at_us;
        ScaleDecision decision;
        Resources before;
        Resources after;
        bool warm;
    };
    const Action kPinned[] = {
        {15'000, ScaleDecision::shrink, {1, 2}, {0, 2}, true},
        {310'000, ScaleDecision::grow, {0, 2}, {0, 3}, true},
        {360'000, ScaleDecision::grow, {0, 3}, {0, 4}, true},
        {410'000, ScaleDecision::grow, {0, 4}, {1, 4}, true},
        {460'000, ScaleDecision::grow, {1, 4}, {2, 4}, true},
        {510'000, ScaleDecision::grow, {2, 4}, {3, 4}, true},
        {560'000, ScaleDecision::grow, {3, 4}, {4, 4}, true},
        {610'000, ScaleDecision::grow, {4, 4}, {4, 4}, false}, // clamped at max_pool
        {660'000, ScaleDecision::grow, {4, 4}, {4, 4}, false},
        {710'000, ScaleDecision::shrink, {4, 4}, {3, 4}, true},
        {760'000, ScaleDecision::shrink, {3, 4}, {2, 4}, true},
        {810'000, ScaleDecision::shrink, {2, 4}, {1, 4}, true},
        {860'000, ScaleDecision::shrink, {1, 4}, {0, 4}, true},
        {910'000, ScaleDecision::shrink, {0, 4}, {0, 3}, true},
        {960'000, ScaleDecision::shrink, {0, 3}, {0, 2}, true},
    };
    const dsim::AutoscaleSimResult result = dsim::simulate_autoscale(step_scenario());
    ASSERT_EQ(result.events.size(), std::size(kPinned));
    for (std::size_t i = 0; i < result.events.size(); ++i) {
        const dsim::AutoscaleEventRecord& event = result.events[i];
        SCOPED_TRACE("event " + std::to_string(i));
        EXPECT_EQ(event.at_us, kPinned[i].at_us);
        EXPECT_EQ(event.decision, kPinned[i].decision);
        EXPECT_EQ(event.before, kPinned[i].before);
        EXPECT_EQ(event.after, kPinned[i].after);
        EXPECT_EQ(event.warm, kPinned[i].warm);
    }
    EXPECT_EQ(result.grows, 6u);
    EXPECT_EQ(result.shrinks, 7u);
    EXPECT_EQ(result.clamped, 2u);
    EXPECT_EQ(result.infeasible, 0u);
    EXPECT_DOUBLE_EQ(result.warm_fraction, 13.0 / 14.0) << "all but the initial cold solve";
    EXPECT_EQ(result.final_pool, (Resources{0, 2}));
}

TEST(AutoscaleSim, SineLoadTracksWithBoundedError)
{
    dsim::AutoscaleScenario scenario = step_scenario();
    scenario.load.clear();
    const double base_fps = 1e6 / amp::core::schedule(amp::core::Strategy::herad, scenario.chain,
                                                      scenario.initial)
                                      .period(scenario.chain);
    for (int i = 0; i < 100; ++i) {
        const double phase = 2.0 * 3.14159265358979 * static_cast<double>(i) / 100.0;
        scenario.load.push_back(
            {i * 10'000, base_fps * (1.2 + 1.0 * std::sin(phase))});
    }
    const dsim::AutoscaleSimResult result = dsim::simulate_autoscale(scenario);
    EXPECT_GT(result.grows + result.shrinks, 0u);
    EXPECT_GE(result.min_action_gap_us, 50'000);
    EXPECT_LT(result.mean_tracking_error, 1.0)
        << "tracking error must stay bounded while the pool follows the sine";
}

TEST(AutoscaleSim, ReplaysAreDeterministic)
{
    const dsim::AutoscaleSimResult a = dsim::simulate_autoscale(step_scenario());
    const dsim::AutoscaleSimResult b = dsim::simulate_autoscale(step_scenario());
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i)
        EXPECT_EQ(a.events[i], b.events[i]) << "event " << i;
    EXPECT_EQ(a.final_pool, b.final_pool);
    EXPECT_EQ(a.grows, b.grows);
    EXPECT_EQ(a.shrinks, b.shrinks);
}

TEST(AutoscaleSim, RejectsMalformedScenarios)
{
    dsim::AutoscaleScenario scenario = step_scenario();
    scenario.load.clear();
    EXPECT_THROW((void)dsim::simulate_autoscale(scenario), std::invalid_argument);
    scenario = step_scenario();
    std::swap(scenario.load.front(), scenario.load.back());
    EXPECT_THROW((void)dsim::simulate_autoscale(scenario), std::invalid_argument);
    scenario = step_scenario();
    scenario.sample_period_us = 0;
    EXPECT_THROW((void)dsim::simulate_autoscale(scenario), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Arbiter quota opt-in

TEST(ArbiterQuota, SetQuotaMarksDirtyAndRedistributes)
{
    std::vector<TaskDesc> tasks;
    for (int i = 1; i <= 4; ++i)
        tasks.push_back(TaskDesc{"t" + std::to_string(i), 10.0, 20.0, i != 1});
    const TaskChain chain{std::move(tasks)};

    arb::ArbiterConfig config;
    config.pool = {2, 4};
    arb::Arbiter arbiter{config};
    arb::TenantSpec spec_a;
    spec_a.name = "a";
    spec_a.chain = chain;
    arb::TenantSpec spec_b = spec_a;
    spec_b.name = "b";
    const arb::TenantId a = arbiter.add_tenant(spec_a);
    const arb::TenantId b = arbiter.add_tenant(spec_b);
    (void)arbiter.rearbitrate();
    const auto budget_of = [&](arb::TenantId id) {
        for (const auto& status : arbiter.tenants())
            if (status.id == id)
                return status.budget;
        return Resources{};
    };
    const Resources b_before = budget_of(b);

    // Capping tenant A at one little (the autoscaler's shrink opt-in path)
    // must pull A inside the cap at the next rearbitration, and the freed
    // cores can only help B.
    arbiter.set_quota(a, arb::TenantQuota{{0, 0}, {0, 1}});
    const arb::ArbitrationReport report = arbiter.rearbitrate();
    EXPECT_FALSE(report.changes.empty()) << "the quota change must re-allocate";
    const Resources budget_a = budget_of(a);
    const Resources budget_b = budget_of(b);
    EXPECT_LE(budget_a.big, 0);
    EXPECT_LE(budget_a.little, 1);
    // The freed cores are B's to claim; how many it takes is the water
    // filler's improvement call, so only assert B was re-evaluated.
    EXPECT_GE(budget_b.total() + b_before.total(), 1);

    // An idempotent set_quota keeps the allocation quiescent.
    arbiter.set_quota(a, arb::TenantQuota{{0, 0}, {0, 1}});

    EXPECT_THROW(arbiter.set_quota(9999, arb::TenantQuota{}), std::out_of_range);
    EXPECT_THROW(arbiter.set_quota(a, arb::TenantQuota{{-1, 0}, {1, 1}}),
                 std::invalid_argument);
}

} // namespace
