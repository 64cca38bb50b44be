// plan::resize_only, the one swap rule: a target lands in place only when
// it differs from the running plan in replica counts alone. Tables of plan
// pairs pin each way two plans can differ; a seeded sweep over generated
// chains and HeRAD plans checks the rule against the same rule read off the
// two solutions, and against what a parked rt::Pipeline answers to retarget.

#include "plan/execution_plan.hpp"
#include "rt/pipeline.hpp"
#include "sim/generator.hpp"
#include "test_support.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

namespace {

using namespace amp;
using core::CoreType;
using core::Stage;
using plan::ExecutionPlan;
using plan::GraphBranch;
using plan::GraphShape;
using plan::SwapOutcome;

core::TaskChain five_task_chain()
{
    // t1 stateful, t2..t5 replicable.
    return amp::testing::make_chain({{100, 120, false},
                                     {60, 75, true},
                                     {60, 75, true},
                                     {60, 75, true},
                                     {60, 76, true}});
}

ExecutionPlan compile(const core::TaskChain& chain, std::vector<Stage> stages,
                      plan::PlanOptions options = {})
{
    return ExecutionPlan::compile(chain, core::Solution{std::move(stages)}, options);
}

/// [1,1] -> {branch 1, branch 2} -> [5,5], the middle branches covering
/// [2,4]: branch 1 is [2,3] when `split_branch` is 1 and [2,2] when it is
/// 2. The split branch has two tasks, cut into two one-task stages, so
/// either way the plan has the five one-task stages of a linear cut.
ExecutionPlan diamond(const core::TaskChain& chain, int split_branch)
{
    const int mid = split_branch == 1 ? 3 : 2; // branch 1's last task
    GraphShape shape;
    shape.chain = plan::ChainShape::of(chain);
    shape.branches = {
        GraphBranch{0, 1, 1, {}, {1, 2}},
        GraphBranch{1, 2, mid, {0}, {3}},
        GraphBranch{2, mid + 1, 4, {0}, {3}},
        GraphBranch{3, 5, 5, {1, 2}, {}},
    };
    const core::Solution one{std::vector<Stage>{{1, 1, 1, CoreType::big}}};
    std::vector<core::Solution> solutions{one, one, one, one};
    solutions[static_cast<std::size_t>(split_branch)] =
        core::Solution{std::vector<Stage>{{1, 1, 1, CoreType::big}, {2, 2, 1, CoreType::big}}};
    return ExecutionPlan::compile(chain, shape, solutions);
}

/// The plan every row below starts from: a stateful big stage, then four
/// replicable tasks on three little cores.
ExecutionPlan base_plan(const core::TaskChain& chain)
{
    return compile(chain, {{1, 1, 1, CoreType::big}, {2, 5, 3, CoreType::little}});
}

struct Row {
    const char* change;
    ExecutionPlan from;
    ExecutionPlan to;
    bool expected;
};

/// Checks each row both ways: the rule is symmetric.
void expect_rows(std::initializer_list<Row> rows)
{
    for (const Row& row : rows) {
        SCOPED_TRACE(row.change);
        EXPECT_EQ(plan::resize_only(row.from, row.to), row.expected)
            << row.from.summary() << " -> " << row.to.summary();
        EXPECT_EQ(plan::resize_only(row.to, row.from), row.expected) << "the rule is symmetric";
    }
}

// The PlanDiff.* names are those of the tests of the diff-and-apply algebra
// the swap rule replaced; each now pins plan::resize_only on the same kind
// of plan pairs.

TEST(PlanDiff, SelfDiffIsEmpty)
{
    const core::TaskChain chain = five_task_chain();
    const ExecutionPlan base = base_plan(chain);
    expect_rows({
        {"self", base, base, true},
        {"dag against itself", diamond(chain, 1), diamond(chain, 1), true},
    });
}

TEST(PlanDiff, ResizeAndRebindProduceCompatibleDelta)
{
    // To the old diff a rebind was a compatible delta that still needed a
    // rebuild; under the one swap rule only a resize lands in place.
    const core::TaskChain chain = five_task_chain();
    const ExecutionPlan base = base_plan(chain);
    expect_rows({
        {"grow", base, compile(chain, {{1, 1, 1, CoreType::big}, {2, 5, 4, CoreType::little}}),
         true},
        {"shrink", base,
         compile(chain, {{1, 1, 1, CoreType::big}, {2, 5, 2, CoreType::little}}), true},
        {"rebind", base,
         compile(chain, {{1, 1, 1, CoreType::little}, {2, 5, 3, CoreType::little}}), false},
        {"rebind and resize", base,
         compile(chain, {{1, 1, 1, CoreType::big}, {2, 5, 2, CoreType::big}}), false},
        {"rebind one stage, resize the other", base,
         compile(chain, {{1, 1, 1, CoreType::little}, {2, 5, 2, CoreType::little}}), false},
    });
}

TEST(PlanDiff, RecutIsIncompatible)
{
    const core::TaskChain chain = five_task_chain();
    const ExecutionPlan base = base_plan(chain);
    const std::vector<Stage> five_stages{{1, 1, 1, CoreType::big},
                                         {2, 2, 1, CoreType::big},
                                         {3, 3, 1, CoreType::big},
                                         {4, 4, 1, CoreType::big},
                                         {5, 5, 1, CoreType::big}};
    expect_rows({
        {"recut", base, compile(chain, {{1, 2, 1, CoreType::big}, {3, 5, 3, CoreType::little}}),
         false},
        {"another stage count", base,
         compile(chain, {{1, 1, 1, CoreType::big},
                         {2, 3, 1, CoreType::little},
                         {4, 5, 1, CoreType::little}}),
         false},
        {"dag against linear on the same cut", diamond(chain, 1), compile(chain, five_stages),
         false},
        {"dag rewired on the same cut", diamond(chain, 1), diamond(chain, 2), false},
    });
    // The five-stage cuts really are the same intervals: only the edges differ.
    const ExecutionPlan dag = diamond(chain, 1);
    const ExecutionPlan rewired = diamond(chain, 2);
    ASSERT_EQ(dag.stage_count(), 5u);
    ASSERT_EQ(rewired.stage_count(), 5u);
    EXPECT_EQ(dag.solution(), compile(chain, five_stages).solution());
    EXPECT_EQ(rewired.solution(), dag.solution());
    EXPECT_EQ(rewired.queues().size(), dag.queues().size());
}

TEST(PlanDiff, ChainAndQueueChangesAreIncompatible)
{
    const core::TaskChain chain = five_task_chain();
    const core::TaskChain shorter =
        amp::testing::make_chain({{100, 120, false}, {60, 75, true}, {60, 75, true}});
    const ExecutionPlan base = base_plan(chain);
    expect_rows({
        {"another task count", base,
         compile(shorter, {{1, 1, 1, CoreType::big}, {2, 3, 3, CoreType::little}}), false},
        {"another queue capacity", base,
         compile(chain, {{1, 1, 1, CoreType::big}, {2, 5, 3, CoreType::little}},
                 plan::PlanOptions{16}),
         false},
    });
}

struct Frame {
    std::uint64_t seq = 0;
    int value = 0;
};

/// One pass-through task per chain task; non-replicable tasks are stateful.
rt::TaskSequence<Frame> sequence_for(const core::TaskChain& chain)
{
    rt::TaskSequence<Frame> seq;
    for (int i = 1; i <= chain.size(); ++i)
        seq.push_back(rt::make_task<Frame>("t" + std::to_string(i), !chain.task(i).replicable,
                                           [i](Frame& f) { f.value += i; }));
    return seq;
}

/// The swap rule read off two solutions of one chain: equal stage count,
/// and every stage keeps its interval and core type.
bool same_cut_and_types(const core::Solution& a, const core::Solution& b)
{
    if (a.stage_count() != b.stage_count())
        return false;
    for (std::size_t s = 0; s < a.stage_count(); ++s)
        if (a.stages()[s].first != b.stages()[s].first || a.stages()[s].last != b.stages()[s].last
            || a.stages()[s].type != b.stages()[s].type)
            return false;
    return true;
}

/// A budget of up to (6, 6); half of them on one core type only, where a
/// one-core change most often keeps the cut.
core::Resources draw_budget(Rng& rng)
{
    const bool one_type = rng.bernoulli(0.5);
    for (;;) {
        core::Resources r{static_cast<int>(rng.uniform_int(0, 6)),
                          static_cast<int>(rng.uniform_int(0, 6))};
        if (one_type)
            (rng.bernoulli(0.5) ? r.big : r.little) = 0;
        if (r.total() > 0)
            return r;
    }
}

TEST(PlanResizeOnly, SeededSweepMatchesSolutionsAndRetarget)
{
    int outcomes[3] = {0, 0, 0}; // none, frame, rebuild_required
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        Rng rng{seed};
        sim::GeneratorConfig gen;
        gen.num_tasks = static_cast<int>(rng.uniform_int(2, 30));
        gen.stateless_ratio = rng.uniform_real(0.0, 1.0);
        const core::TaskChain chain = sim::generate_chain(gen, rng);

        const core::Resources from = draw_budget(rng);
        core::Resources to = from;
        switch (rng.uniform_int(0, 3)) {
        case 0: break; // the same budget
        case 1:
        case 2: // one core more or less of one type
            (rng.bernoulli(0.5) ? to.big : to.little) += rng.bernoulli(0.5) ? 1 : -1;
            if (to.big < 0 || to.little < 0 || to.total() == 0)
                to = from;
            break;
        default: to = draw_budget(rng); break;
        }
        const core::Solution a = amp::testing::solve(core::Strategy::herad, chain, from);
        const core::Solution b = amp::testing::solve(core::Strategy::herad, chain, to);
        ASSERT_FALSE(a.empty());
        ASSERT_FALSE(b.empty());
        const ExecutionPlan before = ExecutionPlan::compile(chain, a);
        const ExecutionPlan after = ExecutionPlan::compile(chain, b);

        SCOPED_TRACE("seed " + std::to_string(seed) + ": " + before.summary() + " -> "
                     + after.summary());
        const bool resizes = plan::resize_only(before, after);
        EXPECT_EQ(resizes, same_cut_and_types(a, b));

        const SwapOutcome expected = !resizes ? SwapOutcome::rebuild_required
            : a == b                          ? SwapOutcome::none
                                              : SwapOutcome::frame;
        auto seq = sequence_for(chain);
        rt::Pipeline<Frame> pipeline{seq, before, rt::PipelineConfig{}};
        ASSERT_EQ(pipeline.run(4).frames, 4u); // materialized, then parked
        const auto running = pipeline.execution_plan();
        const SwapOutcome outcome = pipeline.retarget(after);
        EXPECT_EQ(outcome, expected) << to_string(outcome) << " vs " << to_string(expected);
        ++outcomes[static_cast<int>(outcome)];
        if (outcome == SwapOutcome::frame) {
            EXPECT_EQ(pipeline.execution_plan()->solution(), b) << "the target is published";
            EXPECT_EQ(pipeline.live_workers(), after.worker_count());
        } else {
            EXPECT_EQ(pipeline.execution_plan(), running) << "the pipeline is untouched";
            EXPECT_EQ(pipeline.live_workers(), before.worker_count());
        }
        EXPECT_EQ(pipeline.run_from(4, 8).frames, 4u);
    }
    // The sweep reaches every outcome.
    EXPECT_GT(outcomes[0], 0);
    EXPECT_GT(outcomes[1], 0);
    EXPECT_GT(outcomes[2], 0);
}

} // namespace
