// Runtime hot-swap between stream segments: Pipeline::retarget on a parked
// pipeline resizes stages in place without dropping or reordering frames
// and leaves it untouched on a change it cannot land; the solver service
// compiles the plans both executors consume.

#include "plan/execution_plan.hpp"
#include "rt/pipeline.hpp"
#include "svc/solver_service.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace {

using namespace amp;
using core::CoreType;
using core::Resources;
using core::Stage;
using core::TaskChain;
using core::TaskDesc;

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

    // Grow stage 1 to three replicas: one spawned worker.
    const plan::ExecutionPlan grown = plan::ExecutionPlan::compile(
        chain, core::Solution{std::vector<Stage>{{1, 1, 1, CoreType::big},
                                                 {2, 5, 3, CoreType::little}}});
    ASSERT_TRUE(plan::resize_only(initial, grown));
    EXPECT_EQ(pipeline.retarget(grown), plan::SwapOutcome::frame);
    EXPECT_EQ(pipeline.live_workers(), 4);
    EXPECT_EQ(pipeline.spawned_workers(), 4);

    rt::RunResult second = pipeline.run_from(15, 40, collect);
    EXPECT_EQ(second.frames, 25u);

    // Shrink back to two replicas.
    const plan::ExecutionPlan shrunk = plan::ExecutionPlan::compile(
        chain, core::Solution{std::vector<Stage>{{1, 1, 1, CoreType::big},
                                                 {2, 5, 2, CoreType::little}}});
    ASSERT_TRUE(plan::resize_only(grown, shrunk));
    EXPECT_EQ(pipeline.retarget(shrunk), plan::SwapOutcome::frame);
    EXPECT_EQ(pipeline.live_workers(), 3);
    EXPECT_EQ(pipeline.spawned_workers(), 4) << "shrinking spawns nothing";

    rt::RunResult third = pipeline.run_from(40, 50, collect);
    EXPECT_EQ(third.frames, 10u);

    // The three segments together delivered every frame exactly once, in order.
    ASSERT_EQ(delivered.size(), 50u);
    for (std::size_t i = 0; i < delivered.size(); ++i)
        EXPECT_EQ(delivered[i], i);

    EXPECT_EQ(pipeline.execution_plan()->solution(), shrunk.solution());
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
    ASSERT_FALSE(plan::resize_only(initial, recut));
    const auto before = pipeline.execution_plan();
    EXPECT_EQ(pipeline.retarget(recut), plan::SwapOutcome::rebuild_required);
    EXPECT_EQ(pipeline.execution_plan(), before) << "a recut leaves the pipeline untouched";
    EXPECT_EQ(pipeline.run(10).frames, 10u);
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
