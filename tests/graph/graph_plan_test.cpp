// plan::ExecutionPlan on graphs: the degenerate one-branch compile is
// bit-identical to the historical linear layout (pinned over random chains
// across all five strategies), DAG plans get the stitched stage/queue
// topology the executors rely on, and plan::resize_only refuses rewired
// queues but accepts a DAG resize.

#include "core/scheduler.hpp"
#include "plan/execution_plan.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

namespace {

using namespace amp;
using core::CoreType;
using core::Stage;
using core::TaskChain;
using core::TaskDesc;
using plan::ExecutionPlan;
using plan::GraphBranch;
using plan::GraphShape;
using plan::QueueSpec;

/// Field-by-field equality of two compiled plans (worker ids, edges and
/// queue wiring included).
void expect_identical(const ExecutionPlan& a, const ExecutionPlan& b)
{
    ASSERT_EQ(a.stage_count(), b.stage_count());
    for (std::size_t s = 0; s < a.stage_count(); ++s) {
        const plan::PlanStage& sa = a.stage(s);
        const plan::PlanStage& sb = b.stage(s);
        EXPECT_EQ(sa.index, sb.index);
        EXPECT_EQ(sa.first, sb.first);
        EXPECT_EQ(sa.last, sb.last);
        EXPECT_EQ(sa.replicas, sb.replicas);
        EXPECT_EQ(sa.type, sb.type);
        EXPECT_EQ(sa.replicated, sb.replicated);
        EXPECT_EQ(sa.sequential, sb.sequential);
        EXPECT_DOUBLE_EQ(sa.service_us, sb.service_us);
        EXPECT_EQ(sa.worker_ids, sb.worker_ids);
        EXPECT_EQ(sa.branch, sb.branch);
        EXPECT_EQ(sa.preds, sb.preds);
        EXPECT_EQ(sa.succs, sb.succs);
        EXPECT_EQ(sa.in_queues, sb.in_queues);
        EXPECT_EQ(sa.out_queues, sb.out_queues);
    }
    ASSERT_EQ(a.queues().size(), b.queues().size());
    for (std::size_t q = 0; q < a.queues().size(); ++q) {
        EXPECT_EQ(a.queues()[q].index, b.queues()[q].index);
        EXPECT_EQ(a.queues()[q].producer_stage, b.queues()[q].producer_stage);
        EXPECT_EQ(a.queues()[q].consumer_stage, b.queues()[q].consumer_stage);
        EXPECT_EQ(a.queues()[q].capacity, b.queues()[q].capacity);
    }
    ASSERT_EQ(a.workers().size(), b.workers().size());
    for (std::size_t w = 0; w < a.workers().size(); ++w) {
        EXPECT_EQ(a.workers()[w].id, b.workers()[w].id);
        EXPECT_EQ(a.workers()[w].stage, b.workers()[w].stage);
        EXPECT_EQ(a.workers()[w].slot, b.workers()[w].slot);
        EXPECT_EQ(a.workers()[w].type, b.workers()[w].type);
    }
    EXPECT_EQ(a.solution(), b.solution());
    EXPECT_EQ(a.source_stage(), b.source_stage());
    EXPECT_EQ(a.sink_stage(), b.sink_stage());
    EXPECT_DOUBLE_EQ(a.period_us(), b.period_us());
    EXPECT_EQ(a.summary(), b.summary());
}

TaskChain random_chain(std::mt19937& rng, int tasks)
{
    std::uniform_real_distribution<double> weight{5.0, 120.0};
    std::bernoulli_distribution replicable{0.7};
    std::vector<TaskDesc> descs;
    for (int i = 1; i <= tasks; ++i) {
        const double big = weight(rng);
        descs.push_back(TaskDesc{"t" + std::to_string(i), big, big * 1.9,
                                 i == 1 ? false : replicable(rng)});
    }
    return TaskChain{std::move(descs)};
}

// The acceptance pin: for every strategy and a spread of random chains, the
// pre-DAG linear compile and the one-branch graph compile produce the same
// plan, field for field.
TEST(GraphPlanBitIdentity, LinearChainsCompileIdenticallyThroughTheGraphPath)
{
    std::mt19937 rng{20260808};
    std::uniform_int_distribution<int> tasks{3, 12};
    std::uniform_int_distribution<int> bigs{1, 4};
    std::uniform_int_distribution<int> littles{0, 4};

    int compiled = 0;
    for (int round = 0; round < 20; ++round) {
        const TaskChain chain = random_chain(rng, tasks(rng));
        const core::Resources budget{bigs(rng), littles(rng)};
        for (const core::Strategy strategy : core::kAllStrategies) {
            const core::ScheduleResult result =
                core::schedule(core::ScheduleRequest{chain, budget, strategy});
            if (!result.ok() || result.solution.empty())
                continue; // infeasible under this budget -- nothing to compile
            const ExecutionPlan linear = ExecutionPlan::compile(chain, result.solution);
            const ExecutionPlan graph = ExecutionPlan::compile(
                chain, GraphShape::of(chain), {result.solution});
            EXPECT_TRUE(linear.linear());
            EXPECT_TRUE(graph.linear());
            expect_identical(linear, graph);
            ++compiled;
        }
    }
    EXPECT_GT(compiled, 40) << "the sweep must exercise a real spread of solutions";
}

TEST(GraphPlanBitIdentity, ShapeOnlyCompileMatchesToo)
{
    plan::ChainShape shape;
    shape.tasks = 4;
    shape.replicable = {false, true, true, true};
    const core::Solution solution{std::vector<Stage>{{1, 1, 1, CoreType::big},
                                                     {2, 4, 3, CoreType::little}}};
    expect_identical(ExecutionPlan::compile(shape, solution),
                     ExecutionPlan::compile(GraphShape::linear(shape), {solution}));
}

/// Profiled diamond: src(1) -> {mid-a(2..3) replicable, mid-b(4)} -> sink(5).
struct Diamond {
    TaskChain chain;
    GraphShape shape;
    std::vector<core::Solution> solutions;
};

Diamond make_diamond(int mid_a_replicas = 2)
{
    Diamond d;
    std::vector<TaskDesc> descs;
    descs.push_back(TaskDesc{"src", 10.0, 20.0, false});
    descs.push_back(TaskDesc{"mid-a1", 40.0, 80.0, true});
    descs.push_back(TaskDesc{"mid-a2", 40.0, 80.0, true});
    descs.push_back(TaskDesc{"mid-b", 30.0, 60.0, false});
    descs.push_back(TaskDesc{"sink", 10.0, 20.0, false});
    d.chain = TaskChain{std::move(descs)};
    d.shape.chain = plan::ChainShape::of(d.chain);
    d.shape.branches = {
        GraphBranch{0, 1, 1, {}, {1, 2}},
        GraphBranch{1, 2, 3, {0}, {3}},
        GraphBranch{2, 4, 4, {0}, {3}},
        GraphBranch{3, 5, 5, {1, 2}, {}},
    };
    d.shape.validate();
    d.solutions = {
        core::Solution{std::vector<Stage>{{1, 1, 1, CoreType::big}}},
        core::Solution{std::vector<Stage>{{1, 2, mid_a_replicas, CoreType::big}}},
        core::Solution{std::vector<Stage>{{1, 1, 1, CoreType::little}}},
        core::Solution{std::vector<Stage>{{1, 1, 1, CoreType::big}}},
    };
    return d;
}

TEST(GraphPlanCompile, StitchesTheDiamondTopology)
{
    const Diamond d = make_diamond();
    const ExecutionPlan plan = ExecutionPlan::compile(d.chain, d.shape, d.solutions);

    EXPECT_FALSE(plan.linear());
    EXPECT_TRUE(plan.has_profile());
    ASSERT_EQ(plan.stage_count(), 4u);
    EXPECT_EQ(plan.source_stage(), 0);
    EXPECT_EQ(plan.sink_stage(), 3);

    // Stage intervals are the branch solutions offset into global task ids.
    EXPECT_EQ(plan.stage(1).first, 2);
    EXPECT_EQ(plan.stage(1).last, 3);
    EXPECT_EQ(plan.stage(1).replicas, 2);
    EXPECT_EQ(plan.stage(2).first, 4);
    EXPECT_EQ(plan.stage(2).type, CoreType::little);
    for (std::size_t s = 0; s < 4; ++s)
        EXPECT_EQ(plan.stage(s).branch, static_cast<int>(s));

    // Fan-out / fan-in stage edges.
    EXPECT_EQ(plan.stage(0).succs, (std::vector<int>{1, 2}));
    EXPECT_EQ(plan.stage(3).preds, (std::vector<int>{1, 2}));
    EXPECT_TRUE(plan.stage(0).preds.empty());
    EXPECT_TRUE(plan.stage(3).succs.empty());

    // Queues: one per edge in producer order, then the sink's drain queue.
    ASSERT_EQ(plan.queues().size(), 5u);
    const auto expect_queue = [&](int q, int producer, int consumer) {
        EXPECT_EQ(plan.queues()[static_cast<std::size_t>(q)].producer_stage, producer);
        EXPECT_EQ(plan.queues()[static_cast<std::size_t>(q)].consumer_stage, consumer);
    };
    expect_queue(0, 0, 1);
    expect_queue(1, 0, 2);
    expect_queue(2, 1, 3);
    expect_queue(3, 2, 3);
    expect_queue(4, 3, QueueSpec::kDrain);
    EXPECT_EQ(plan.stage(0).out_queues, (std::vector<int>{0, 1}));
    EXPECT_EQ(plan.stage(3).in_queues, (std::vector<int>{2, 3}));
    EXPECT_EQ(plan.stage(3).out_queues, (std::vector<int>{4}));

    // Worker ids are dense and stage-major; period is the max stage load.
    EXPECT_EQ(plan.stage(1).worker_ids, (std::vector<int>{1, 2}));
    EXPECT_EQ(plan.worker_count(), 5);
    EXPECT_DOUBLE_EQ(plan.period_us(), 60.0); // little mid-b: 60 > 80/2 > ...
}

TEST(GraphPlanCompile, RejectsMalformedBranchSolutions)
{
    Diamond d = make_diamond();
    // Wrong solution count.
    EXPECT_THROW((void)ExecutionPlan::compile(d.chain, d.shape,
                                              {d.solutions[0], d.solutions[1]}),
                 plan::PlanError);
    // A branch solution that does not cover its branch.
    d.solutions[1] = core::Solution{std::vector<Stage>{{1, 1, 1, CoreType::big}}};
    EXPECT_THROW((void)ExecutionPlan::compile(d.chain, d.shape, d.solutions),
                 plan::PlanError);
    // Replicating a branch with a sequential task.
    Diamond seq = make_diamond();
    seq.solutions[2] = core::Solution{std::vector<Stage>{{1, 1, 2, CoreType::little}}};
    EXPECT_THROW((void)ExecutionPlan::compile(seq.chain, seq.shape, seq.solutions),
                 plan::PlanError);
}

TEST(GraphPlanDelta, DagVsLinearIsIncompatibleDagResizeIsNot)
{
    const Diamond d = make_diamond();
    const ExecutionPlan dag = ExecutionPlan::compile(d.chain, d.shape, d.solutions);

    // Same task count, linear cut: the rewired queue topology must refuse.
    const core::ScheduleResult linear_result = core::schedule(
        core::ScheduleRequest{d.chain, {4, 1}, core::Strategy::herad});
    ASSERT_TRUE(linear_result.ok());
    const ExecutionPlan linear = ExecutionPlan::compile(d.chain, linear_result.solution);
    EXPECT_FALSE(plan::resize_only(dag, linear));

    // Resizing one branch stage of the SAME dag is a plain resize.
    const Diamond grown = make_diamond(3);
    const ExecutionPlan resized = ExecutionPlan::compile(grown.chain, grown.shape,
                                                         grown.solutions);
    EXPECT_TRUE(plan::resize_only(dag, resized));
    EXPECT_FALSE(resized.linear());
    EXPECT_EQ(resized.graph().branch_count(), 4);
    EXPECT_EQ(resized.stage(1).replicas, 3);
}

} // namespace
