// Frame-granular in-flight hot-swap: a Pipeline::retarget issued while a
// segment runs lands resize-only changes mid-segment (no drain -- spawned
// workers join the live stream, retired workers finish their in-flight
// frame and exit), and run_with_recovery takes that path on a worker kill
// whose degraded optimum keeps the healthy cut on the same core types.

#include "plan/execution_plan.hpp"
#include "rt/fault.hpp"
#include "rt/pipeline.hpp"
#include "rt/rescheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace amp;
using core::CoreType;
using core::Resources;
using core::Stage;
using core::TaskChain;
using core::TaskDesc;
using std::chrono::microseconds;
using std::chrono::milliseconds;

struct Frame {
    std::uint64_t seq = 0;
    int value = 0;
};

rt::TaskSequence<Frame> make_sequence(int n, int sleep_us = 0)
{
    rt::TaskSequence<Frame> seq;
    for (int i = 1; i <= n; ++i)
        seq.push_back(rt::make_task<Frame>("t" + std::to_string(i), i == 1,
                                           [i, sleep_us](Frame& f) {
                                               if (sleep_us > 0 && i == 1)
                                                   std::this_thread::sleep_for(
                                                       microseconds{sleep_us});
                                               f.value += i;
                                           }));
    return seq;
}

/// All-little chain whose degraded optimum keeps the healthy cut on the
/// SAME core types: on R = (0, 4) the optimum is [t1]x1L | [t2-t5]x3L
/// (period 301/3) and after losing one little it stays
/// [t1]x1L | [t2-t5]x2L (period 301/2) -- stage 1 merely resized, nothing
/// rebound, so the loss delta is resize-only by construction.
TaskChain resize_only_chain()
{
    std::vector<TaskDesc> tasks;
    tasks.push_back(TaskDesc{"t1", 100.0, 90.0, false});
    const double littles[] = {75.0, 75.0, 75.0, 76.0};
    for (int i = 2; i <= 5; ++i)
        tasks.push_back(TaskDesc{"t" + std::to_string(i), 60.0, littles[i - 2], true});
    return TaskChain{std::move(tasks)};
}

/// Mixed-type sibling (the PR-4 hot-swap chain): its kill recovery keeps
/// the cut but rebinds stage 0 big -> little, which is delta-compatible yet
/// NOT resize-only.
TaskChain rebind_chain()
{
    std::vector<TaskDesc> tasks;
    tasks.push_back(TaskDesc{"t1", 100.0, 120.0, false});
    const double littles[] = {75.0, 75.0, 75.0, 76.0};
    for (int i = 2; i <= 5; ++i)
        tasks.push_back(TaskDesc{"t" + std::to_string(i), 60.0, littles[i - 2], true});
    return TaskChain{std::move(tasks)};
}

plan::ExecutionPlan compile_two_stage(const TaskChain& chain, CoreType first_type,
                                      int replicas)
{
    return plan::ExecutionPlan::compile(
        chain, core::Solution{std::vector<Stage>{{1, 1, 1, first_type},
                                                 {2, 5, replicas, CoreType::little}}});
}

TEST(PlanDeltaResizeOnly, ClassifiesResizeRebindAndRecut)
{
    const TaskChain chain = rebind_chain();
    const plan::ExecutionPlan base = compile_two_stage(chain, CoreType::big, 2);

    // Pure resize: one stage grows, nothing rebound.
    const plan::PlanDelta resize =
        plan::diff(base, compile_two_stage(chain, CoreType::big, 3));
    ASSERT_TRUE(resize.compatible) << resize.reason;
    EXPECT_EQ(resize.rebound, 0);
    EXPECT_EQ(resize.spawned, 1);
    EXPECT_TRUE(resize.resize_only());

    // Same cut but stage 0 rebound big -> little: compatible, not resize-only.
    const plan::PlanDelta rebind =
        plan::diff(base, compile_two_stage(chain, CoreType::little, 2));
    ASSERT_TRUE(rebind.compatible) << rebind.reason;
    EXPECT_EQ(rebind.rebound, 1);
    EXPECT_FALSE(rebind.resize_only());

    // A recut is incompatible, so never resize-only either.
    const plan::ExecutionPlan recut = plan::ExecutionPlan::compile(
        chain, core::Solution{std::vector<Stage>{{1, 2, 1, CoreType::big},
                                                 {3, 5, 2, CoreType::little}}});
    const plan::PlanDelta incompatible = plan::diff(base, recut);
    EXPECT_FALSE(incompatible.compatible);
    EXPECT_FALSE(incompatible.resize_only());

    // The no-op delta is trivially resize-only.
    EXPECT_TRUE(plan::diff(base, base).resize_only());
}

TEST(PipelineFrameSwap, RefusesNonResizeOnlyDeltas)
{
    const TaskChain chain = rebind_chain();
    auto seq = make_sequence(5);
    rt::Pipeline<Frame> pipeline{seq, compile_two_stage(chain, CoreType::big, 2),
                                 rt::PipelineConfig{}};
    const auto base = pipeline.execution_plan();
    plan::SwapOutcome outcome = plan::SwapOutcome::none;
    const rt::RunResult result = pipeline.run(50, [&](Frame& f) {
        if (f.seq == 10) // the output thread: a segment is in flight
            outcome = pipeline.retarget(compile_two_stage(chain, CoreType::little, 2));
    });
    EXPECT_EQ(result.frames, 50u);
    EXPECT_EQ(outcome, plan::SwapOutcome::rebuild_required)
        << "a rebound delta must be declined mid-segment, not applied";
    EXPECT_EQ(pipeline.execution_plan(), base) << "a declined swap must not mutate the plan";
}

// The tentpole path: grow and then shrink the replicated stage while a
// segment is in flight. Queues and untouched workers survive, every frame
// is delivered exactly once and in order, and the worker census ends where
// the final plan says it should.
TEST(PipelineFrameSwap, GrowsAndShrinksMidSegment)
{
    constexpr std::uint64_t kFrames = 400;
    const TaskChain chain = resize_only_chain();
    auto seq = make_sequence(5, /*sleep_us=*/150);

    rt::PipelineConfig config;
    rt::Pipeline<Frame> pipeline{seq, compile_two_stage(chain, CoreType::little, 2), config};

    // Retargets issued from the output thread land while the segment runs.
    std::vector<std::uint64_t> delivered;
    const rt::RunResult result = pipeline.run(kFrames, [&](Frame& f) {
        EXPECT_EQ(f.value, 1 + 2 + 3 + 4 + 5) << "every task ran exactly once";
        delivered.push_back(f.seq);
        if (f.seq == 100) {
            EXPECT_EQ(pipeline.retarget(compile_two_stage(chain, CoreType::little, 3)),
                      plan::SwapOutcome::frame);
            EXPECT_EQ(pipeline.live_workers(), 4) << "the spawned replica joins the live segment";
        }
        if (f.seq == 200) {
            EXPECT_EQ(pipeline.retarget(compile_two_stage(chain, CoreType::little, 2)),
                      plan::SwapOutcome::frame);
        }
    });

    EXPECT_EQ(result.frames, kFrames);
    EXPECT_EQ(result.frames_dropped, 0u) << "an in-flight swap never drops frames";
    ASSERT_EQ(delivered.size(), kFrames);
    for (std::size_t i = 0; i < delivered.size(); ++i)
        EXPECT_EQ(delivered[i], i);
    EXPECT_EQ(pipeline.live_workers(), 3) << "back to 1 + 2 workers after the shrink";
    EXPECT_EQ(pipeline.spawned_workers(), 4) << "exactly one replica was ever spawned";
}

// TSan stress target: hammer the in-flight path with alternating grow and
// shrink swaps while the stream runs, racing the swapper against workers,
// the watchdog and segment teardown.
TEST(PipelineFrameSwap, SurvivesRepeatedMidSegmentResizes)
{
    constexpr std::uint64_t kFrames = 1200;
    const TaskChain chain = resize_only_chain();
    auto seq = make_sequence(5, /*sleep_us=*/50);

    rt::PipelineConfig config;
    std::vector<std::uint64_t> delivered;
    const auto collect = [&](Frame& f) { delivered.push_back(f.seq); };

    rt::Pipeline<Frame> pipeline{seq, compile_two_stage(chain, CoreType::little, 2), config};

    std::atomic<bool> done{false};
    int applied = 0;
    std::thread swapper{[&] {
        int replicas = 2;
        while (!done.load()) {
            replicas = replicas == 2 ? 3 : 2;
            const plan::SwapOutcome outcome =
                pipeline.retarget(compile_two_stage(chain, CoreType::little, replicas));
            if (outcome == plan::SwapOutcome::frame)
                ++applied;
            std::this_thread::sleep_for(milliseconds{2});
        }
    }};

    const rt::RunResult result = pipeline.run(kFrames, collect);
    done.store(true);
    swapper.join();

    EXPECT_EQ(result.frames, kFrames);
    EXPECT_EQ(result.frames_dropped, 0u);
    ASSERT_EQ(delivered.size(), kFrames);
    for (std::size_t i = 0; i < delivered.size(); ++i)
        EXPECT_EQ(delivered[i], i);
    EXPECT_GT(applied, 0) << "the stress run must actually exercise the swap path";
}

/// Kill stage 0's only worker mid-stream and recover.
rt::RecoveryReport run_kill(const TaskChain& chain, Resources budget,
                            std::vector<std::uint64_t>* delivered = nullptr)
{
    constexpr std::uint64_t kFrames = 100;
    auto seq = make_sequence(5);
    rt::Rescheduler rescheduler{chain, budget};

    rt::FaultInjector injector;
    injector.add(rt::FaultSpec{rt::FaultKind::kill, 20, 0, 0, 1, milliseconds{0}});

    rt::PipelineConfig config;
    config.faults = &injector;
    config.heartbeat_timeout = milliseconds{50};

    const rt::RecoveryReport report = rt::run_with_recovery<Frame>(
        seq, rescheduler, kFrames, config,
        [&](Frame& f) {
            if (delivered)
                delivered->push_back(f.seq);
        });

    EXPECT_TRUE(report.completed);
    EXPECT_EQ(report.recoveries, 1);
    EXPECT_EQ(report.frame_swaps + report.rebuild_swaps, report.recoveries);
    EXPECT_EQ(report.total.frames + report.total.frames_dropped, kFrames);
    EXPECT_EQ(report.total.stream_end, kFrames);
    EXPECT_GT(report.recovery_latency_seconds, 0.0);
    return report;
}

TEST(RunWithRecoveryFrameSwap, ResizeOnlyKillSwapsWithoutDraining)
{
    std::vector<std::uint64_t> delivered;
    const rt::RecoveryReport report =
        run_kill(resize_only_chain(), Resources{0, 4}, &delivered);
    EXPECT_EQ(report.frame_swaps, 1) << "a resize-only loss must take the in-flight path";
    EXPECT_EQ(report.rebuild_swaps, 0);
    ASSERT_EQ(report.solutions.size(), 2u);
    for (std::size_t i = 1; i < delivered.size(); ++i)
        EXPECT_LT(delivered[i - 1], delivered[i]) << "stream order across the frame swap";
}

TEST(RunWithRecoveryFrameSwap, ReboundLossFallsBackToTheDrainPath)
{
    // The degraded optimum keeps the cut but rebinds stage 0 big -> little,
    // so the in-flight handler declines, the run drains and the pipeline is
    // rebuilt -- from the solution the handler already computed (no second
    // batch).
    std::vector<std::uint64_t> delivered;
    const rt::RecoveryReport report = run_kill(rebind_chain(), Resources{1, 3}, &delivered);
    EXPECT_EQ(report.frame_swaps, 0) << "a rebound delta never frame-swaps";
    EXPECT_EQ(report.rebuild_swaps, 1);
    for (std::size_t i = 1; i < delivered.size(); ++i)
        EXPECT_LT(delivered[i - 1], delivered[i]);
}

} // namespace
