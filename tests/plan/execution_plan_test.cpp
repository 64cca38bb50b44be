// ExecutionPlan::compile round-trips and validation: every strategy's
// solution on random chains compiles into a plan whose structure matches the
// solution exactly, and malformed solutions fail loudly with PlanError.

#include "plan/execution_plan.hpp"
#include "sim/generator.hpp"
#include "test_support.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace {

using namespace amp;
using core::CoreType;
using core::Stage;

TEST(ExecutionPlanCompile, RoundTripsEveryStrategyOnRandomChains)
{
    for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 1234ULL}) {
        Rng rng{seed};
        sim::GeneratorConfig gen;
        gen.num_tasks = 12;
        const core::TaskChain chain = sim::generate_chain(gen, rng);
        const core::Resources budget{3, 4};

        for (const core::Strategy strategy : core::kAllStrategies) {
            const core::Solution solution = amp::testing::solve(strategy, chain, budget);
            if (solution.empty())
                continue; // infeasible for this strategy/budget: nothing to compile

            const plan::ExecutionPlan p = plan::ExecutionPlan::compile(chain, solution);

            ASSERT_EQ(p.stage_count(), solution.stage_count());
            EXPECT_EQ(p.task_count(), chain.size());
            EXPECT_TRUE(p.has_profile());
            EXPECT_EQ(p.solution(), solution);

            int expected_first = 1;
            int next_id = 0;
            for (const plan::PlanStage& st : p.stages()) {
                EXPECT_EQ(st.first, expected_first) << "stages must tile the chain";
                expected_first = st.last + 1;
                ASSERT_EQ(static_cast<std::size_t>(st.replicas), st.worker_ids.size());
                for (const int id : st.worker_ids)
                    EXPECT_EQ(id, next_id++) << "worker ids are dense and stage-major";
                EXPECT_EQ(st.replicated, st.replicas > 1);
                if (st.replicated) {
                    EXPECT_FALSE(st.sequential) << "replicated stages must be replicable";
                }
                EXPECT_EQ(st.sequential, !chain.interval_replicable(st.first, st.last));
                EXPECT_DOUBLE_EQ(st.service_us,
                                 chain.interval_sum(st.first, st.last, st.type));
            }
            EXPECT_EQ(expected_first, chain.size() + 1) << "plan covers the whole chain";
            EXPECT_EQ(p.worker_count(), next_id);
            EXPECT_EQ(p.next_worker_id(), next_id);

            ASSERT_EQ(p.queues().size(), p.stage_count());
            for (std::size_t q = 0; q + 1 < p.queues().size(); ++q) {
                EXPECT_EQ(p.queues()[q].producer_stage, static_cast<int>(q));
                EXPECT_EQ(p.queues()[q].consumer_stage, static_cast<int>(q) + 1);
            }
            EXPECT_EQ(p.queues().back().consumer_stage, plan::QueueSpec::kDrain);

            EXPECT_NEAR(p.period_us(), solution.period(chain), 1e-6)
                << "plan period must match the scheduler's model";
            EXPECT_FALSE(p.summary().empty());
        }
    }
}

TEST(ExecutionPlanCompile, ShapeCompileHasNoProfile)
{
    const core::TaskChain chain =
        amp::testing::make_chain({{10, 20, false}, {10, 20, true}, {10, 20, true}});
    const core::Solution solution{
        std::vector<Stage>{{1, 1, 1, CoreType::big}, {2, 3, 2, CoreType::little}}};

    const plan::ExecutionPlan p =
        plan::ExecutionPlan::compile(plan::ChainShape::of(chain), solution);
    EXPECT_FALSE(p.has_profile());
    EXPECT_EQ(p.stage_count(), 2u);
    for (const plan::PlanStage& st : p.stages())
        EXPECT_DOUBLE_EQ(st.service_us, 0.0);
    EXPECT_DOUBLE_EQ(p.period_us(), 0.0);
}

TEST(ExecutionPlanCompile, RejectsMalformedSolutions)
{
    const core::TaskChain chain =
        amp::testing::make_chain({{10, 20, false}, {10, 20, true}, {10, 20, true}});

    // Empty solution.
    EXPECT_THROW((void)plan::ExecutionPlan::compile(chain, core::Solution{}), plan::PlanError);

    // Gap between stages.
    EXPECT_THROW((void)plan::ExecutionPlan::compile(
                     chain, core::Solution{std::vector<Stage>{{1, 1, 1, CoreType::big},
                                                              {3, 3, 1, CoreType::big}}}),
                 plan::PlanError);

    // Stage interval past the end of the chain.
    EXPECT_THROW((void)plan::ExecutionPlan::compile(
                     chain, core::Solution{std::vector<Stage>{{1, 4, 1, CoreType::big}}}),
                 plan::PlanError);

    // A stage with no cores.
    EXPECT_THROW((void)plan::ExecutionPlan::compile(
                     chain, core::Solution{std::vector<Stage>{{1, 3, 0, CoreType::big}}}),
                 plan::PlanError);

    // Replicating an interval that contains the sequential task 1.
    EXPECT_THROW((void)plan::ExecutionPlan::compile(
                     chain, core::Solution{std::vector<Stage>{{1, 2, 2, CoreType::big},
                                                              {3, 3, 1, CoreType::big}}}),
                 plan::PlanError);

    // Solution that stops before the last task.
    EXPECT_THROW((void)plan::ExecutionPlan::compile(
                     chain, core::Solution{std::vector<Stage>{{1, 2, 1, CoreType::big}}}),
                 plan::PlanError);

    // PlanError derives from std::invalid_argument, the executors' historic
    // validation error type.
    EXPECT_THROW((void)plan::ExecutionPlan::compile(chain, core::Solution{}),
                 std::invalid_argument);
}

TEST(ExecutionPlanCompile, ClampsZeroQueueCapacityLikeTheQueues)
{
    const core::TaskChain chain = amp::testing::uniform_chain(2, 10.0, true);
    const core::Solution solution{
        std::vector<Stage>{{1, 2, 1, CoreType::big}}};
    const plan::ExecutionPlan p =
        plan::ExecutionPlan::compile(chain, solution, plan::PlanOptions{0});
    EXPECT_EQ(p.options().queue_capacity, 1u);
    EXPECT_EQ(p.queues().front().capacity, 1u);
}

} // namespace
