#include "dsim/simulator.hpp"

#include "core/scheduler.hpp"
#include "rt/rescheduler.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace {

using namespace amp;

core::TaskChain make_chain(int n)
{
    std::vector<core::TaskDesc> tasks;
    for (int i = 1; i <= n; ++i) {
        const double w = 20.0 + 3.0 * static_cast<double>(i);
        tasks.push_back(core::TaskDesc{"t" + std::to_string(i), w, 2.0 * w, true});
    }
    return core::TaskChain{std::move(tasks)};
}

dsim::SimulationConfig small_config()
{
    dsim::SimulationConfig config;
    config.frames = 3000;
    config.warmup_frames = 300;
    return config;
}

TEST(FailureSim, RandomFailurePlanIsDeterministic)
{
    const auto a = dsim::random_failures(7, 4, 100, 2000, 3);
    const auto b = dsim::random_failures(7, 4, 100, 2000, 3);
    ASSERT_EQ(a.size(), 4u);
    ASSERT_EQ(b.size(), 4u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].frame, b[i].frame);
        EXPECT_EQ(a[i].stage, b[i].stage);
        EXPECT_GE(a[i].frame, 100u);
        EXPECT_LT(a[i].frame, 2000u);
        EXPECT_LT(a[i].stage, 3u);
        if (i > 0) {
            EXPECT_GE(a[i].frame, a[i - 1].frame) << "plan sorted by frame";
        }
    }
}

TEST(FailureSim, NoFailuresMatchesPlainSimulation)
{
    const core::TaskChain chain = make_chain(5);
    const core::Resources budget{3, 2};
    const core::Solution solution =
        core::schedule(core::ScheduleRequest{chain, budget, core::Strategy::herad}).solution;
    ASSERT_FALSE(solution.empty());

    const auto config = small_config();
    const auto plain = dsim::simulate(chain, solution, config);
    const auto faulty =
        dsim::simulate_with_failures(chain, solution, budget, config, dsim::FailureModel{});

    EXPECT_TRUE(faulty.schedulable);
    EXPECT_TRUE(faulty.recoveries.empty());
    EXPECT_EQ(faulty.frames_dropped, 0u);
    EXPECT_DOUBLE_EQ(faulty.overall.period_us, plain.period_us)
        << "the failure path must not perturb the healthy recurrence";
    EXPECT_EQ(faulty.final_solution, solution);
}

// Acceptance (c): dsim reproduces the same recovery decisions
// deterministically from a fixed seed.
TEST(FailureSim, RecoveryDecisionsAreDeterministicFromSeed)
{
    const core::TaskChain chain = make_chain(6);
    const core::Resources budget{3, 2};
    const core::Solution solution =
        core::schedule(core::ScheduleRequest{chain, budget, core::Strategy::herad}).solution;
    ASSERT_FALSE(solution.empty());

    const auto config = small_config();
    dsim::FailureModel faults;
    faults.failures =
        dsim::random_failures(0xfa17, 2, config.warmup_frames, config.frames,
                              solution.stage_count());

    const auto first = dsim::simulate_with_failures(chain, solution, budget, config, faults);
    const auto second = dsim::simulate_with_failures(chain, solution, budget, config, faults);

    ASSERT_EQ(first.recoveries.size(), 2u);
    ASSERT_EQ(second.recoveries.size(), first.recoveries.size());
    for (std::size_t i = 0; i < first.recoveries.size(); ++i) {
        const auto& a = first.recoveries[i];
        const auto& b = second.recoveries[i];
        EXPECT_EQ(a.frame, b.frame);
        EXPECT_EQ(a.stage, b.stage);
        EXPECT_EQ(a.lost_type, b.lost_type);
        EXPECT_EQ(a.resources_after, b.resources_after);
        EXPECT_EQ(a.new_solution, b.new_solution) << "identical reschedule decision";
        EXPECT_DOUBLE_EQ(a.downtime_us, b.downtime_us);
    }
    EXPECT_EQ(first.final_solution, second.final_solution);
    EXPECT_EQ(first.frames_dropped, second.frames_dropped);
    EXPECT_DOUBLE_EQ(first.overall.period_us, second.overall.period_us);
}

// The simulator's decisions are exactly the runtime Rescheduler's: feeding
// the same loss sequence to an rt::Rescheduler reproduces every solution.
TEST(FailureSim, MirrorsRuntimeReschedulerDecisions)
{
    const core::TaskChain chain = make_chain(6);
    const core::Resources budget{3, 2};
    const core::Solution solution =
        core::schedule(core::ScheduleRequest{chain, budget, core::Strategy::herad}).solution;
    ASSERT_FALSE(solution.empty());

    const auto config = small_config();
    dsim::FailureModel faults;
    faults.failures = dsim::random_failures(99, 3, config.warmup_frames, config.frames,
                                            solution.stage_count());

    const auto result = dsim::simulate_with_failures(chain, solution, budget, config, faults);
    ASSERT_TRUE(result.schedulable);
    ASSERT_EQ(result.recoveries.size(), 3u);

    rt::Rescheduler twin{chain, budget, faults.policy};
    for (const auto& record : result.recoveries) {
        const core::Solution expected = twin.on_core_loss(record.lost_type);
        EXPECT_EQ(twin.resources(), record.resources_after);
        EXPECT_EQ(expected, record.new_solution)
            << "dsim must take the decision the runtime would take";
        EXPECT_EQ(record.new_solution,
                  core::schedule(core::Strategy::herad, chain, record.resources_after))
            << "a loss is one HeRAD solve at the degraded budget";
    }
    EXPECT_EQ(result.final_solution, result.recoveries.back().new_solution);
}

TEST(FailureSim, ReportsUnschedulableWhenNoCoreRemains)
{
    const core::TaskChain chain = make_chain(3);
    const core::Resources budget{1, 0};
    const core::Solution solution =
        core::schedule(core::ScheduleRequest{chain, budget, core::Strategy::otac_big}).solution;
    ASSERT_FALSE(solution.empty());

    auto config = small_config();
    dsim::FailureModel faults;
    faults.failures.push_back(dsim::SimFailure{500, 0});

    const auto result = dsim::simulate_with_failures(chain, solution, budget, config, faults);
    EXPECT_FALSE(result.schedulable) << "losing the only core leaves nothing to run on";
    ASSERT_EQ(result.recoveries.size(), 1u);
    EXPECT_EQ(result.recoveries[0].resources_after, (core::Resources{0, 0}));
}

// The virtual-time mirror of the runtime's frame-granular swap: when the
// recovery delta is resize-only and FailureModel::frame_swap_us is set,
// downtime collapses to detection + frame swap instead of the drain and
// rebuild cost.
TEST(FailureSim, FrameSwapModelShortensDowntimeForResizeOnlyDeltas)
{
    // All-little chain: t1 stateful, the rest replicable with lopsided
    // little sums. On R = (0, 4) the optimum is [t1]x1L | [t2-t5]x3L and
    // losing a little from stage 1 keeps the cut and types (stage 1 merely
    // resized 3 -> 2): resize-only by construction.
    std::vector<core::TaskDesc> tasks;
    tasks.push_back(core::TaskDesc{"t1", 100.0, 90.0, false});
    const double littles[] = {75.0, 75.0, 75.0, 76.0};
    for (int i = 2; i <= 5; ++i)
        tasks.push_back(core::TaskDesc{"t" + std::to_string(i), 60.0, littles[i - 2], true});
    const core::TaskChain chain{std::move(tasks)};
    const core::Resources budget{0, 4};
    const core::Solution solution =
        core::schedule(core::ScheduleRequest{chain, budget, core::Strategy::herad}).solution;
    ASSERT_FALSE(solution.empty());

    const auto config = small_config();
    dsim::FailureModel faults;
    faults.detection_us = 200.0;
    faults.reschedule_us = 1000.0;
    faults.failures.push_back(dsim::SimFailure{500, 1}); // a little from stage 1

    // Frame swap not modelled: detection + drain and rebuild.
    const auto drained = dsim::simulate_with_failures(chain, solution, budget, config, faults);
    ASSERT_TRUE(drained.schedulable);
    ASSERT_EQ(drained.recoveries.size(), 1u);
    EXPECT_FALSE(drained.recoveries[0].frame_swap_applied);
    EXPECT_DOUBLE_EQ(drained.recoveries[0].downtime_us, 200.0 + 1000.0);

    // Frame swap modelled: the resize-only delta takes the cheaper path.
    faults.frame_swap_us = 100.0;
    const auto swapped = dsim::simulate_with_failures(chain, solution, budget, config, faults);
    ASSERT_EQ(swapped.recoveries.size(), 1u);
    EXPECT_TRUE(swapped.recoveries[0].frame_swap_applied);
    EXPECT_DOUBLE_EQ(swapped.recoveries[0].downtime_us, 200.0 + 100.0);
    EXPECT_EQ(swapped.recoveries[0].new_solution, drained.recoveries[0].new_solution)
        << "the swap mechanism must not change the scheduling decision";
}

TEST(FailureSim, FrameSwapModelIgnoresNonResizeOnlyDeltas)
{
    // Mixed-type sibling: on R = (1, 3) losing the big keeps the cut but
    // rebinds stage 0 big -> little -- NOT resize-only, so the frame-swap
    // cost must not apply even when modelled.
    std::vector<core::TaskDesc> tasks;
    tasks.push_back(core::TaskDesc{"t1", 100.0, 120.0, false});
    const double littles[] = {75.0, 75.0, 75.0, 76.0};
    for (int i = 2; i <= 5; ++i)
        tasks.push_back(core::TaskDesc{"t" + std::to_string(i), 60.0, littles[i - 2], true});
    const core::TaskChain chain{std::move(tasks)};
    const core::Resources budget{1, 3};
    const core::Solution solution =
        core::schedule(core::ScheduleRequest{chain, budget, core::Strategy::herad}).solution;
    ASSERT_FALSE(solution.empty());

    const auto config = small_config();
    dsim::FailureModel faults;
    faults.detection_us = 200.0;
    faults.reschedule_us = 1000.0;
    faults.frame_swap_us = 100.0;
    faults.failures.push_back(dsim::SimFailure{500, 0}); // the big from stage 0

    const auto result = dsim::simulate_with_failures(chain, solution, budget, config, faults);
    ASSERT_TRUE(result.schedulable);
    ASSERT_EQ(result.recoveries.size(), 1u);
    EXPECT_FALSE(result.recoveries[0].frame_swap_applied) << "rebound: not resize-only";
    EXPECT_DOUBLE_EQ(result.recoveries[0].downtime_us, 200.0 + 1000.0);
}

TEST(FailureSim, ThroughputDegradesAfterCoreLoss)
{
    const core::TaskChain chain = make_chain(6);
    const core::Resources budget{3, 2};
    const core::Solution solution =
        core::schedule(core::ScheduleRequest{chain, budget, core::Strategy::herad}).solution;
    ASSERT_FALSE(solution.empty());

    const auto config = small_config();
    const double healthy = dsim::simulate(chain, solution, config).period_us;

    dsim::FailureModel faults;
    faults.failures.push_back(dsim::SimFailure{config.warmup_frames + 10, 0});
    const auto result = dsim::simulate_with_failures(chain, solution, budget, config, faults);
    ASSERT_TRUE(result.schedulable);
    EXPECT_GT(result.overall.period_us, 0.0);
    EXPECT_GE(result.overall.period_us, healthy * 0.99)
        << "running most of the stream on fewer cores cannot beat the healthy period";
}

} // namespace
