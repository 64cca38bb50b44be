// Runtime hot-swap between stream segments: Pipeline::retarget on a parked
// pipeline resizes and rebinds stages in place without dropping or
// reordering frames, and run_with_recovery uses that drained path (or the
// rebuild fallback when disabled) to survive a worker kill.

#include "plan/execution_plan.hpp"
#include "rt/fault.hpp"
#include "rt/pipeline.hpp"
#include "rt/rescheduler.hpp"
#include "svc/solver_service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

namespace {

using namespace amp;
using core::CoreType;
using core::Resources;
using core::Stage;
using core::TaskChain;
using core::TaskDesc;
using std::chrono::milliseconds;

struct Frame {
    std::uint64_t seq = 0;
    int value = 0;
};

rt::TaskSequence<Frame> make_sequence(int n)
{
    rt::TaskSequence<Frame> seq;
    for (int i = 1; i <= n; ++i)
        seq.push_back(rt::make_task<Frame>("t" + std::to_string(i), i == 1,
                                           [i](Frame& f) { f.value += i; }));
    return seq;
}

/// Chain whose degraded optimum keeps the healthy stage cut: t1 stateful,
/// t2..t5 replicable with a slightly lopsided interval sum so the two-stage
/// replicated cut strictly beats any three-stage split (301/2 = 150.5 beats
/// the best sequential split's 151).
TaskChain delta_friendly_chain()
{
    std::vector<TaskDesc> tasks;
    tasks.push_back(TaskDesc{"t1", 100.0, 120.0, false});
    const double littles[] = {75.0, 75.0, 75.0, 76.0};
    for (int i = 2; i <= 5; ++i)
        tasks.push_back(TaskDesc{"t" + std::to_string(i), 60.0, littles[i - 2], true});
    return TaskChain{std::move(tasks)};
}

TEST(PipelineApplyDelta, ResizesAndShrinksBetweenSegments)
{
    const TaskChain chain = delta_friendly_chain();
    auto seq = make_sequence(5);

    const plan::ExecutionPlan initial = plan::ExecutionPlan::compile(
        chain, core::Solution{std::vector<Stage>{{1, 1, 1, CoreType::big},
                                                 {2, 5, 2, CoreType::little}}});

    rt::PipelineConfig config;
    std::vector<std::uint64_t> delivered;
    const auto collect = [&](Frame& f) {
        EXPECT_EQ(f.value, 1 + 2 + 3 + 4 + 5) << "every task ran exactly once";
        delivered.push_back(f.seq);
    };

    rt::Pipeline<Frame> pipeline{seq, initial, config};
    rt::RunResult first = pipeline.run(15, collect);
    EXPECT_EQ(first.frames, 15u);
    EXPECT_EQ(pipeline.live_workers(), 3);

    // Grow stage 1 to three replicas: one spawned worker, kept ids intact.
    const plan::ExecutionPlan grown = plan::ExecutionPlan::compile(
        chain, core::Solution{std::vector<Stage>{{1, 1, 1, CoreType::big},
                                                 {2, 5, 3, CoreType::little}}});
    const plan::PlanDelta grow = plan::diff(initial, grown);
    ASSERT_TRUE(grow.compatible) << grow.reason;
    EXPECT_EQ(pipeline.retarget(grown), plan::SwapOutcome::drained);
    EXPECT_EQ(pipeline.live_workers(), 4);
    EXPECT_EQ(pipeline.spawned_workers(), 4);

    rt::RunResult second = pipeline.run_from(15, 40, collect);
    EXPECT_EQ(second.frames, 25u);

    // Shrink back to two replicas and rebind stage 0 big -> little.
    const plan::ExecutionPlan shrunk = plan::ExecutionPlan::compile(
        chain, core::Solution{std::vector<Stage>{{1, 1, 1, CoreType::little},
                                                 {2, 5, 2, CoreType::little}}});
    const plan::PlanDelta shrink = plan::diff(grown, shrunk);
    ASSERT_TRUE(shrink.compatible) << shrink.reason;
    EXPECT_EQ(shrink.retired, 1);
    EXPECT_EQ(shrink.rebound, 1);
    EXPECT_EQ(pipeline.retarget(shrunk), plan::SwapOutcome::drained);
    EXPECT_EQ(pipeline.live_workers(), 3);
    EXPECT_EQ(pipeline.spawned_workers(), 4) << "shrinking spawns nothing";

    rt::RunResult third = pipeline.run_from(40, 50, collect);
    EXPECT_EQ(third.frames, 10u);

    // The three segments together delivered every frame exactly once, in order.
    ASSERT_EQ(delivered.size(), 50u);
    for (std::size_t i = 0; i < delivered.size(); ++i)
        EXPECT_EQ(delivered[i], i);

    EXPECT_TRUE(plan::same_topology(*pipeline.execution_plan(), shrunk));
}

TEST(PipelineApplyDelta, RejectsIncompatibleDelta)
{
    const TaskChain chain = delta_friendly_chain();
    auto seq = make_sequence(5);
    const plan::ExecutionPlan initial = plan::ExecutionPlan::compile(
        chain, core::Solution{std::vector<Stage>{{1, 1, 1, CoreType::big},
                                                 {2, 5, 2, CoreType::little}}});
    const plan::ExecutionPlan recut = plan::ExecutionPlan::compile(
        chain, core::Solution{std::vector<Stage>{{1, 2, 1, CoreType::big},
                                                 {3, 5, 2, CoreType::little}}});

    rt::Pipeline<Frame> pipeline{seq, initial, rt::PipelineConfig{}};
    ASSERT_FALSE(plan::diff(initial, recut).compatible);
    const auto before = pipeline.execution_plan();
    EXPECT_EQ(pipeline.retarget(recut), plan::SwapOutcome::rebuild_required);
    EXPECT_EQ(pipeline.execution_plan(), before) << "a recut leaves the pipeline untouched";
    EXPECT_EQ(pipeline.run(10).frames, 10u);
}

/// Shared scenario: killing stage 0's only worker (a big core) re-solves to
/// the same two-stage cut on (0, 3) -- stage 0 rebound big -> little, stage 1
/// resized 3 -> 2 -- so the recovery is delta-compatible by construction.
rt::RecoveryReport run_kill_scenario(rt::SwapPolicy swap,
                                     std::vector<std::uint64_t>* delivered = nullptr)
{
    constexpr std::uint64_t kFrames = 100;
    const TaskChain chain = delta_friendly_chain();
    auto seq = make_sequence(5);
    rt::Rescheduler rescheduler{chain, Resources{1, 3}};

    rt::FaultInjector injector;
    injector.add(rt::FaultSpec{rt::FaultKind::kill, 20, 0, 0, 1, milliseconds{0}});

    rt::PipelineConfig config;
    config.faults = &injector;
    config.heartbeat_timeout = milliseconds{100};

    rt::RecoveryOptions options;
    options.swap = swap;

    const rt::RecoveryReport report = rt::run_with_recovery<Frame>(
        seq, rescheduler, kFrames, config,
        [&](Frame& f) {
            if (delivered)
                delivered->push_back(f.seq);
        },
        -1, options);

    EXPECT_TRUE(report.completed);
    EXPECT_EQ(report.recoveries, 1);
    EXPECT_EQ(report.total.frames + report.total.frames_dropped, kFrames);
    EXPECT_EQ(report.total.stream_end, kFrames);
    EXPECT_GT(report.recovery_latency_seconds, 0.0);
    EXPECT_GE(report.swap_seconds, 0.0);
    return report;
}

TEST(RunWithRecoveryDelta, CompatibleKillHotSwapsInPlace)
{
    std::vector<std::uint64_t> delivered;
    const rt::RecoveryReport report = run_kill_scenario(rt::SwapPolicy::frame_first, &delivered);
    EXPECT_EQ(report.delta_swaps, 1) << "same-cut recovery must take the delta path";
    EXPECT_EQ(report.rebuild_swaps, 0);
    for (std::size_t i = 1; i < delivered.size(); ++i)
        EXPECT_LT(delivered[i - 1], delivered[i]) << "stream order across the hot-swap";
}

TEST(RunWithRecoveryDelta, DisablingDeltaForcesRebuild)
{
    std::vector<std::uint64_t> delivered;
    const rt::RecoveryReport report = run_kill_scenario(rt::SwapPolicy::rebuild_only, &delivered);
    EXPECT_EQ(report.delta_swaps, 0);
    EXPECT_EQ(report.rebuild_swaps, 1);
    for (std::size_t i = 1; i < delivered.size(); ++i)
        EXPECT_LT(delivered[i - 1], delivered[i]);
}

TEST(SolverServicePlans, SolvePlannedReturnsACompiledPlan)
{
    // svc::SolverService::solve_planned hands back the plan both executors
    // consume, compiled from the solved schedule.
    const TaskChain chain = delta_friendly_chain();
    svc::SolverService service{svc::ServiceConfig{}};
    const core::ScheduleRequest request{chain, Resources{1, 3}, core::Strategy::herad, {}};

    const svc::PlannedSchedule planned = service.solve_planned(request);
    ASSERT_TRUE(planned.ok());
    ASSERT_NE(planned.plan, nullptr);
    EXPECT_EQ(planned.plan->solution(), planned.result.solution);
    EXPECT_TRUE(planned.plan->has_profile());
    EXPECT_EQ(planned.plan->task_count(), chain.size());

    // Infeasible requests come back plan-less, not thrown.
    const svc::PlannedSchedule infeasible = service.solve_planned(
        core::ScheduleRequest{chain, Resources{0, 0}, core::Strategy::herad, {}});
    EXPECT_FALSE(infeasible.ok());
    EXPECT_EQ(infeasible.plan, nullptr);
}

} // namespace
