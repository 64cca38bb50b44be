#include "dsim/simulator.hpp"

#include "core/scheduler.hpp"
#include "obs/schema.hpp"
#include "rt/controller.hpp"
#include "svc/solver_service.hpp"

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

    auto config = small_config();
    const auto plain = dsim::simulate(chain, solution, config);
    config.faults.budget = budget;
    const auto faulty = dsim::simulate(chain, solution, config);

    EXPECT_TRUE(faulty.schedulable);
    EXPECT_TRUE(faulty.recoveries.empty());
    EXPECT_EQ(faulty.frames_dropped, 0u);
    EXPECT_DOUBLE_EQ(faulty.period_us, plain.period_us)
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

    auto config = small_config();
    config.faults.budget = budget;
    config.faults.failures =
        dsim::random_failures(0xfa17, 2, config.warmup_frames, config.frames,
                              solution.stage_count());

    const auto first = dsim::simulate(chain, solution, config);
    const auto second = dsim::simulate(chain, solution, config);

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
    EXPECT_DOUBLE_EQ(first.period_us, second.period_us);
}

// The simulator's decisions are exactly the runtime controller's: feeding
// the same loss sequence to an rt::Controller reproduces every solution.
TEST(FailureSim, MirrorsRuntimeReschedulerDecisions)
{
    const core::TaskChain chain = make_chain(6);
    const core::Resources budget{3, 2};
    const core::Solution solution =
        core::schedule(core::ScheduleRequest{chain, budget, core::Strategy::herad}).solution;
    ASSERT_FALSE(solution.empty());

    auto config = small_config();
    config.faults.budget = budget;
    config.faults.failures = dsim::random_failures(99, 3, config.warmup_frames, config.frames,
                                                   solution.stage_count());

    const auto result = dsim::simulate(chain, solution, config);
    ASSERT_TRUE(result.schedulable);
    ASSERT_EQ(result.recoveries.size(), 3u);

    rt::Controller twin{chain, budget};
    for (const auto& record : result.recoveries) {
        (void)twin.loss({record.lost_type});
        const core::Solution expected = twin.solution();
        EXPECT_EQ(twin.budget(), record.resources_after);
        EXPECT_EQ(expected, record.new_solution)
            << "dsim must take the decision the runtime would take";
        EXPECT_EQ(record.new_solution,
                  core::schedule(core::Strategy::herad, chain, record.resources_after))
            << "a loss is one HeRAD solve at the degraded budget";
    }
    EXPECT_EQ(result.final_solution, result.recoveries.back().new_solution);
}

// The whole record of one loss replay, pinned bit for bit: the period and
// fps, every RecoveryRecord field, the final solution and the drops. The
// same replay on the plan svc::SolverService::solve_planned returns for the
// same request gives the same record.
TEST(FailureSim, ReplayMatchesThePinnedRecord)
{
    using core::CoreType;
    using core::Stage;
    const core::TaskChain chain = make_chain(6);
    const core::Resources budget{3, 2};
    const core::ScheduleRequest request{chain, budget, core::Strategy::herad};
    const core::Solution solution = core::schedule(request).solution;
    ASSERT_EQ(solution, (core::Solution{{Stage{1, 5, 3, CoreType::big},
                                         Stage{6, 6, 2, CoreType::little}}}));

    auto config = small_config();
    config.faults.budget = budget;
    config.faults.failures = dsim::random_failures(99, 3, config.warmup_frames, config.frames,
                                                   solution.stage_count());
    config.faults.frame_swap_us = 100.0;

    // Every loss recuts the stages, so none is a frame swap.
    const std::vector<dsim::RecoveryRecord> recoveries{
        {.frame = 1241,
         .stage = 1,
         .lost_type = CoreType::little,
         .resources_after = {3, 1},
         .new_solution = core::Solution{{Stage{1, 1, 1, CoreType::little},
                                         Stage{2, 6, 3, CoreType::big}}},
         .downtime_us = 250.0,
         .frames_dropped = 1},
        {.frame = 1321,
         .stage = 1,
         .lost_type = CoreType::big,
         .resources_after = {2, 1},
         .new_solution = core::Solution{{Stage{1, 5, 2, CoreType::big},
                                         Stage{6, 6, 1, CoreType::little}}},
         .downtime_us = 250.0,
         .frames_dropped = 1},
        {.frame = 2422,
         .stage = 0,
         .lost_type = CoreType::big,
         .resources_after = {1, 1},
         .new_solution = core::Solution{{Stage{1, 2, 1, CoreType::little},
                                         Stage{3, 6, 1, CoreType::big}}},
         .downtime_us = 250.0,
         .frames_dropped = 1},
    };
    const auto expect_pinned = [&](const dsim::SimulationResult& result) {
        EXPECT_EQ(result.period_us, 0x1.4b193b67a86bep+6);
        EXPECT_EQ(result.fps, 0x1.7987f5432b2f7p+13);
        EXPECT_TRUE(result.recoveries == recoveries);
        EXPECT_EQ(result.final_solution, recoveries.back().new_solution);
        EXPECT_EQ(result.frames_dropped, 3u);
        EXPECT_TRUE(result.schedulable);
    };
    expect_pinned(dsim::simulate(chain, solution, config));

    svc::SolverService service{{.workers = 1}};
    const svc::PlannedSchedule planned = service.solve_planned(request);
    ASSERT_TRUE(planned.ok());
    expect_pinned(dsim::simulate(*planned.plan, config));
}

TEST(FailureSim, ReportsUnschedulableWhenNoCoreRemains)
{
    const core::TaskChain chain = make_chain(3);
    const core::Resources budget{1, 0};
    const core::Solution solution =
        core::schedule(core::ScheduleRequest{chain, budget, core::Strategy::otac_big}).solution;
    ASSERT_FALSE(solution.empty());

    obs::Sink sink{obs::SinkConfig{.metrics = true, .trace = false}};
    auto config = small_config();
    config.sink = &sink;
    config.faults.budget = budget;
    config.faults.failures.push_back(dsim::SimFailure{500, 0});

    const auto result = dsim::simulate(chain, solution, config);
    EXPECT_FALSE(result.schedulable) << "losing the only core leaves nothing to run on";
    ASSERT_EQ(result.recoveries.size(), 1u);
    EXPECT_EQ(result.recoveries[0].resources_after, (core::Resources{0, 0}));

    // The run ends at the loss and still records its totals, like
    // rt::Pipeline::run_from does for a degraded run.
    const obs::MetricsSnapshot metrics = sink.metrics().snapshot();
    ASSERT_EQ(metrics.counters.count(obs::schema::kFramesDelivered), 1u);
    EXPECT_EQ(metrics.counters.at(obs::schema::kFramesDelivered), 500u)
        << "the frames that departed before the loss";
    ASSERT_EQ(metrics.counters.count(obs::schema::kFramesDropped), 1u);
    EXPECT_EQ(metrics.counters.at(obs::schema::kFramesDropped), 1u);
    ASSERT_EQ(metrics.gauges.count(obs::schema::kRunFps), 1u);
    EXPECT_GT(result.fps, 0.0);
    EXPECT_EQ(metrics.gauges.at(obs::schema::kRunFps), result.fps);
}

// Each loss drops the frame its core held: two losses due at one frame drop
// that frame and the next, so every frame of the run is either delivered or
// dropped, never both.
TEST(FailureSim, SameFrameLossesEachDropTheirOwnFrame)
{
    const core::TaskChain chain = make_chain(4);
    const core::Resources budget{3, 3};
    const core::Solution solution =
        core::schedule(core::ScheduleRequest{chain, budget, core::Strategy::herad}).solution;
    ASSERT_FALSE(solution.empty());

    obs::Sink sink{obs::SinkConfig{.metrics = true, .trace = false}};
    auto config = small_config();
    config.frames = 1000;
    config.sink = &sink;
    config.faults.budget = budget;
    config.faults.failures = {dsim::SimFailure{500, 0}, dsim::SimFailure{500, 0}};

    const auto result = dsim::simulate(chain, solution, config);
    EXPECT_TRUE(result.schedulable);
    ASSERT_EQ(result.recoveries.size(), 2u);
    EXPECT_EQ(result.recoveries[0].frame, 500u);
    EXPECT_EQ(result.recoveries[1].frame, 501u);
    for (const dsim::RecoveryRecord& record : result.recoveries)
        EXPECT_EQ(record.frames_dropped, 1u);
    EXPECT_EQ(result.frames_dropped, 2u);

    const obs::MetricsSnapshot metrics = sink.metrics().snapshot();
    EXPECT_EQ(metrics.counters.at(obs::schema::kFramesDelivered)
                  + metrics.counters.at(obs::schema::kFramesDropped),
              1000u);
}

TEST(FailureSim, RejectsMalformedFaultInput)
{
    // Two branches of two tasks each, the first feeding the second: a graph
    // plan, not a linear one.
    const core::TaskChain chain = make_chain(4);
    plan::GraphShape graph;
    graph.chain = plan::ChainShape::of(chain);
    graph.branches = {plan::GraphBranch{0, 1, 2, {}, {1}}, plan::GraphBranch{1, 3, 4, {0}, {}}};
    const core::Solution branch{{core::Stage{1, 2, 1, core::CoreType::big}}};
    const plan::ExecutionPlan dag = plan::ExecutionPlan::compile(chain, graph, {branch, branch});
    ASSERT_FALSE(dag.linear());

    auto config = small_config();
    config.faults.budget = {4, 4};
    config.faults.failures.push_back(dsim::SimFailure{500, 0});
    EXPECT_THROW((void)dsim::simulate(dag, config), std::invalid_argument)
        << "losses replay on linear plans only";

    const core::Resources budget{3, 2};
    const core::Solution solution =
        core::schedule(core::ScheduleRequest{chain, budget, core::Strategy::herad}).solution;
    ASSERT_FALSE(solution.empty());
    const core::Resources used = solution.used();
    for (const core::Resources short_budget :
         {core::Resources{used.big - 1, used.little}, core::Resources{used.big, used.little - 1}}) {
        config.faults.budget = short_budget;
        EXPECT_THROW((void)dsim::simulate(chain, solution, config), std::invalid_argument)
            << "budget (" << short_budget.big << ", " << short_budget.little
            << ") is below the plan's used cores";
    }

    config.faults.failures.clear();
    config.faults.budget = {};
    EXPECT_NO_THROW((void)dsim::simulate(chain, solution, config))
        << "an empty loss list ignores the budget";
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

    auto config = small_config();
    dsim::FailureModel& faults = config.faults;
    faults.budget = budget;
    faults.detection_us = 200.0;
    faults.reschedule_us = 1000.0;
    faults.failures.push_back(dsim::SimFailure{500, 1}); // a little from stage 1

    // Frame swap not modelled: detection + drain and rebuild.
    const auto drained = dsim::simulate(chain, solution, config);
    ASSERT_TRUE(drained.schedulable);
    ASSERT_EQ(drained.recoveries.size(), 1u);
    EXPECT_FALSE(drained.recoveries[0].frame_swap_applied);
    EXPECT_DOUBLE_EQ(drained.recoveries[0].downtime_us, 200.0 + 1000.0);

    // Frame swap modelled: the resize-only delta takes the cheaper path.
    faults.frame_swap_us = 100.0;
    const auto swapped = dsim::simulate(chain, solution, config);
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

    auto config = small_config();
    dsim::FailureModel& faults = config.faults;
    faults.budget = budget;
    faults.detection_us = 200.0;
    faults.reschedule_us = 1000.0;
    faults.frame_swap_us = 100.0;
    faults.failures.push_back(dsim::SimFailure{500, 0}); // the big from stage 0

    const auto result = dsim::simulate(chain, solution, config);
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

    auto config = small_config();
    const double healthy = dsim::simulate(chain, solution, config).period_us;

    config.faults.budget = budget;
    config.faults.failures.push_back(dsim::SimFailure{config.warmup_frames + 10, 0});
    const auto result = dsim::simulate(chain, solution, config);
    ASSERT_TRUE(result.schedulable);
    EXPECT_GT(result.period_us, 0.0);
    EXPECT_GE(result.period_us, healthy * 0.99)
        << "running most of the stream on fewer cores cannot beat the healthy period";
}

} // namespace
