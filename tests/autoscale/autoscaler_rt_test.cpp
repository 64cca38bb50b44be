// rt::Autoscaler on a live pipeline: deterministic feed() landing grow and
// shrink as frame-granular in-flight swaps (zero dropped frames), the
// monitor-hook sampler, the arbiter quota opt-in wiring, and a TSan stress
// run racing the autoscaler against an independent swapper, the watchdog
// and segment teardown.

#include "rt/autoscaler.hpp"

#include "plan/execution_plan.hpp"
#include "rt/pipeline.hpp"
#include "svc/solver_service.hpp"

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

/// All-little chain whose HeRAD optimum keeps one cut across every pool in
/// [(0,2), (0,4)]: [t1]x1L | [t2-t5]x(littles-1)L. Every autoscale delta is
/// therefore resize-only by construction (tests/plan/frame_swap_test.cpp
/// pins the same structure).
TaskChain resize_only_chain()
{
    std::vector<TaskDesc> tasks;
    tasks.push_back(TaskDesc{"t1", 100.0, 90.0, false});
    const double littles[] = {75.0, 75.0, 75.0, 76.0};
    for (int i = 2; i <= 5; ++i)
        tasks.push_back(TaskDesc{"t" + std::to_string(i), 60.0, littles[i - 2], true});
    return TaskChain{std::move(tasks)};
}

rt::AutoscalePolicy live_policy()
{
    rt::AutoscalePolicy policy;
    policy.grow_above = 0.85;
    policy.shrink_below = 0.40;
    policy.patience = 2;
    policy.cooldown_ns = 0; // tests drive virtual timestamps explicitly
    policy.min_pool = {0, 2};
    policy.max_pool = {0, 4};
    policy.grow_first = CoreType::little;
    return policy;
}

svc::PlannedSchedule plan_for(svc::SolverService& service, const TaskChain& chain,
                              Resources pool)
{
    const svc::PlannedSchedule planned =
        service.solve_planned(core::ScheduleRequest{chain, pool, core::Strategy::herad});
    EXPECT_TRUE(planned.ok());
    return planned;
}

TEST(Autoscaler, FeedLandsGrowAndShrinkAsInFlightFrameSwaps)
{
    constexpr std::uint64_t kFrames = 400;
    const TaskChain chain = resize_only_chain();
    auto seq = make_sequence(5, /*sleep_us=*/150);
    svc::SolverService service{svc::ServiceConfig{}};

    rt::Pipeline<Frame> pipeline{seq, *plan_for(service, chain, {0, 3}).plan,
                                 rt::PipelineConfig{}};

    rt::AutoscalerConfig config;
    config.policy = live_policy();
    config.service = &service;
    std::vector<Resources> resizes;
    config.on_resize = [&](Resources pool) { resizes.push_back(pool); };
    rt::Autoscaler<Frame> autoscaler{pipeline, chain, {0, 3}, config};

    // Feeds issued from the output thread land while the segment runs.
    std::vector<std::uint64_t> delivered;
    const rt::RunResult result = pipeline.run(kFrames, [&](Frame& f) {
        EXPECT_EQ(f.value, 1 + 2 + 3 + 4 + 5);
        delivered.push_back(f.seq);
        if (f.seq == 100) {
            // Two hot windows: patience reached, grow (0,3) -> (0,4) lands live.
            EXPECT_EQ(autoscaler.feed(1.5, 1), rt::ScaleDecision::hold);
            EXPECT_EQ(autoscaler.feed(1.5, 2), rt::ScaleDecision::grow);
            EXPECT_EQ(autoscaler.current(), (Resources{0, 4}));
            EXPECT_EQ(pipeline.live_workers(), 4);
        }
        if (f.seq == 200) {
            // Two idle windows: shrink back to (0,3).
            EXPECT_EQ(autoscaler.feed(0.1, 3), rt::ScaleDecision::hold);
            EXPECT_EQ(autoscaler.feed(0.1, 4), rt::ScaleDecision::shrink);
            EXPECT_EQ(autoscaler.current(), (Resources{0, 3}));
        }
    });

    EXPECT_EQ(result.frames, kFrames);
    EXPECT_EQ(result.frames_dropped, 0u) << "autoscale swaps must never drop frames";
    ASSERT_EQ(delivered.size(), kFrames);
    for (std::size_t i = 0; i < delivered.size(); ++i)
        EXPECT_EQ(delivered[i], i);

    const rt::AutoscalerStats stats = autoscaler.stats();
    EXPECT_EQ(stats.samples, 4u);
    EXPECT_EQ(stats.grows, 1u);
    EXPECT_EQ(stats.shrinks, 1u);
    EXPECT_EQ(stats.frame_swaps, 2u);
    EXPECT_EQ(stats.noop_resizes, 0u) << "both plans differ, so neither resize was a noop";
    EXPECT_GE(stats.warm_solves, 1u) << "re-solves ride the retained frontier";
    ASSERT_EQ(resizes.size(), 2u);
    EXPECT_EQ(resizes[0], (Resources{0, 4}));
    EXPECT_EQ(resizes[1], (Resources{0, 3}));
}

TEST(Autoscaler, ClampsAndDeclinedSwapsHoldThePool)
{
    const TaskChain chain = resize_only_chain();
    auto seq = make_sequence(5);
    svc::SolverService service{svc::ServiceConfig{}};
    rt::Pipeline<Frame> pipeline{seq, *plan_for(service, chain, {0, 4}).plan,
                                 rt::PipelineConfig{}};

    rt::AutoscalerConfig config;
    config.policy = live_policy();
    config.service = &service;
    rt::Autoscaler<Frame> autoscaler{pipeline, chain, {0, 4}, config};

    // Already at max_pool: the grow decision is absorbed by the clamp.
    EXPECT_EQ(autoscaler.feed(2.0, 1), rt::ScaleDecision::hold);
    EXPECT_EQ(autoscaler.feed(2.0, 2), rt::ScaleDecision::hold);
    EXPECT_EQ(autoscaler.current(), (Resources{0, 4}));
    EXPECT_EQ(autoscaler.stats().clamped, 1u);

    // A pipeline cut unlike any re-solve: the shrink's retarget is a recut,
    // so the pipeline declines it (counted, no mutation) and the pool holds.
    auto recut_seq = make_sequence(5);
    rt::Pipeline<Frame> recut{
        recut_seq,
        plan::ExecutionPlan::compile(chain, core::Solution{std::vector<Stage>{
                                                {1, 2, 1, CoreType::little},
                                                {3, 5, 3, CoreType::little}}}),
        rt::PipelineConfig{}};
    const auto recut_plan = recut.execution_plan();
    rt::Autoscaler<Frame> declined{recut, chain, {0, 4}, config};
    EXPECT_EQ(declined.feed(0.1, 1), rt::ScaleDecision::hold);
    EXPECT_EQ(declined.feed(0.1, 2), rt::ScaleDecision::hold);
    EXPECT_EQ(declined.current(), (Resources{0, 4}));
    EXPECT_EQ(declined.stats().declined, 1u);
    EXPECT_EQ(recut.execution_plan(), recut_plan);

    // On the parked pipeline the resize-only shrink lands in place before
    // the next segment: a frame swap.
    rt::Autoscaler<Frame> parked{pipeline, chain, {0, 4}, config};
    EXPECT_EQ(parked.feed(0.1, 1), rt::ScaleDecision::hold);
    EXPECT_EQ(parked.feed(0.1, 2), rt::ScaleDecision::shrink);
    EXPECT_EQ(parked.current(), (Resources{0, 3}));
    EXPECT_EQ(parked.stats().frame_swaps, 1u);
    EXPECT_EQ(pipeline.execution_plan()->worker_count(), 3);
}

TEST(Autoscaler, MonitorHookSamplesUtilizationFromTheWatchdog)
{
    constexpr std::uint64_t kFrames = 200;
    const TaskChain chain = resize_only_chain();
    auto seq = make_sequence(5, /*sleep_us=*/100);
    svc::SolverService service{svc::ServiceConfig{}};

    rt::PipelineConfig pipeline_config;
    pipeline_config.overload.enabled = true; // runs the monitor hook
    pipeline_config.overload.poll = milliseconds{2};
    // The monitor feeds the brownout controller at most 1.0, so it never
    // enters brownout and never sheds: every frame is delivered however
    // loaded the machine is.
    pipeline_config.overload.brownout.enter_pressure = 2.0;
    rt::Pipeline<Frame> pipeline{seq, *plan_for(service, chain, {0, 3}).plan, pipeline_config};

    rt::AutoscalerConfig config;
    config.policy = live_policy();
    // A generous patience keeps the wall-clock-driven sampler from actually
    // resizing: this test pins only the sampling wire-up.
    config.policy.patience = 1'000'000;
    config.service = &service;
    rt::Autoscaler<Frame> autoscaler{pipeline, chain, {0, 3}, config};
    autoscaler.attach();

    const rt::RunResult result = pipeline.run(kFrames, [](Frame&) {});
    autoscaler.detach();

    EXPECT_EQ(result.frames, kFrames);
    EXPECT_GT(autoscaler.stats().samples, 0u)
        << "the overload monitor must feed utilization windows";
    EXPECT_EQ(autoscaler.current(), (Resources{0, 3}));
}

// TSan stress: the autoscaler's watchdog-thread feed path racing an
// independent in-flight swapper (the shape of a concurrent recovery swap),
// the stream's workers and segment teardown. Ordered delivery and a zero
// drop count prove the swap serialization holds under contention.
TEST(Autoscaler, StressSurvivesRacingSwapsAndTeardown)
{
    constexpr std::uint64_t kFrames = 1200;
    const TaskChain chain = resize_only_chain();
    auto seq = make_sequence(5, /*sleep_us=*/50);
    svc::SolverService service{svc::ServiceConfig{}};

    rt::Pipeline<Frame> pipeline{seq, *plan_for(service, chain, {0, 3}).plan,
                                 rt::PipelineConfig{}};

    rt::AutoscalerConfig config;
    config.policy = live_policy();
    config.policy.patience = 1;
    config.service = &service;
    rt::Autoscaler<Frame> autoscaler{pipeline, chain, {0, 3}, config};

    std::atomic<bool> done{false};
    std::thread feeder{[&] {
        std::int64_t tick = 1;
        bool hot = true;
        while (!done.load()) {
            // Alternate saturated and idle windows: every feed decides.
            (void)autoscaler.feed(hot ? 2.0 : 0.05, tick++);
            hot = !hot;
            std::this_thread::sleep_for(milliseconds{2});
        }
    }};
    std::thread swapper{[&] {
        // A second actor (recovery-shaped) swapping the SAME pipeline:
        // resize stage 1 between 2 and 3 replicas underneath the autoscaler.
        const svc::PlannedSchedule small = plan_for(service, chain, {0, 3});
        const svc::PlannedSchedule big = plan_for(service, chain, {0, 4});
        bool use_big = true;
        while (!done.load()) {
            (void)pipeline.retarget(use_big ? *big.plan : *small.plan);
            use_big = !use_big;
            std::this_thread::sleep_for(milliseconds{3});
        }
    }};

    std::vector<std::uint64_t> delivered;
    const rt::RunResult result = pipeline.run(kFrames, [&](Frame& f) {
        delivered.push_back(f.seq);
    });
    done.store(true);
    feeder.join();
    swapper.join();

    EXPECT_EQ(result.frames, kFrames);
    EXPECT_EQ(result.frames_dropped, 0u);
    ASSERT_EQ(delivered.size(), kFrames);
    for (std::size_t i = 0; i < delivered.size(); ++i)
        EXPECT_EQ(delivered[i], i);
    EXPECT_GT(autoscaler.stats().samples, 0u);
}

} // namespace
