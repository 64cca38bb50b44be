// Pipeline::retarget: the outcome table over {parked, live} x {identical,
// resize-only grow, resize-only shrink, rebind, recut} (every
// rebuild_required leaves the pipeline untouched); an identical plan still
// refills a fenced worker's slot; a retarget from the monitor hook while
// run_from tears a segment down stays on the live path; a worker spawned in
// flight and retired before its first wake-up still settles its segment;
// and the next segment start joins workers retired in flight instead of
// leaking their threads.

#include "core/scheduler.hpp"
#include "plan/execution_plan.hpp"
#include "rt/fault.hpp"
#include "rt/pipeline.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>

namespace {

using namespace amp;
using core::CoreType;
using core::Resources;
using core::Stage;
using core::TaskChain;
using core::TaskDesc;
using plan::SwapOutcome;
using std::chrono::microseconds;

struct Frame {
    std::uint64_t seq = 0;
    int value = 0;
};

/// t1 stateful (optionally sleeping `sleep_us` per frame), t2..t5 stateless.
rt::TaskSequence<Frame> make_sequence(int sleep_us = 0)
{
    rt::TaskSequence<Frame> seq;
    for (int i = 1; i <= 5; ++i)
        seq.push_back(rt::make_task<Frame>("t" + std::to_string(i), i == 1,
                                           [i, sleep_us](Frame& f) {
                                               if (sleep_us > 0 && i == 1)
                                                   std::this_thread::sleep_for(
                                                       microseconds{sleep_us});
                                               f.value += i;
                                           }));
    return seq;
}

TaskChain five_task_chain(double t1_us, double little_us)
{
    std::vector<TaskDesc> tasks;
    tasks.push_back(TaskDesc{"t1", t1_us, t1_us, false});
    for (int i = 2; i <= 5; ++i)
        tasks.push_back(TaskDesc{"t" + std::to_string(i), little_us, little_us, true});
    return TaskChain{std::move(tasks)};
}

/// Two stages: [1, cut] x1 on `first_type`, [cut+1, 5] x`replicas` little.
plan::ExecutionPlan two_stage(const TaskChain& chain, int cut, CoreType first_type,
                              int replicas)
{
    return plan::ExecutionPlan::compile(
        chain, core::Solution{std::vector<Stage>{{1, cut, 1, first_type},
                                                 {cut + 1, 5, replicas, CoreType::little}}});
}

/// What a rebuild_required (or none) retarget must leave untouched.
struct Census {
    std::shared_ptr<const plan::ExecutionPlan> plan;
    int live = 0;
    int spawned = 0;
};

Census census(const rt::Pipeline<Frame>& pipeline)
{
    return Census{pipeline.execution_plan(), pipeline.live_workers(),
                  pipeline.spawned_workers()};
}

/// Delivers [first, end) and checks every frame arrived once, in order.
void expect_segment(rt::Pipeline<Frame>& pipeline, std::uint64_t first, std::uint64_t end,
                    const std::function<void(Frame&)>& also = {})
{
    std::uint64_t next = first;
    const rt::RunResult result = pipeline.run_from(first, end, [&](Frame& f) {
        EXPECT_EQ(f.seq, next++);
        EXPECT_EQ(f.value, 1 + 2 + 3 + 4 + 5) << "every task ran exactly once";
        if (also)
            also(f);
    });
    EXPECT_EQ(result.frames, end - first);
    EXPECT_EQ(result.frames_dropped, 0u);
}

TEST(PipelineRetarget, OutcomeTable)
{
    struct Row {
        const char* change;
        int cut;             ///< target stage-0 interval end (1 = base cut)
        CoreType first_type; ///< target stage-0 core type
        int replicas;        ///< target stage-1 replicas
        SwapOutcome expected; ///< parked and live alike
    };
    // Base plan: [1,1]x1B | [2,5]x2L.
    const Row kTable[] = {
        {"identical", 1, CoreType::big, 2, SwapOutcome::none},
        {"grow", 1, CoreType::big, 3, SwapOutcome::frame},
        {"shrink", 1, CoreType::big, 1, SwapOutcome::frame},
        {"rebind", 1, CoreType::little, 2, SwapOutcome::rebuild_required},
        {"recut", 2, CoreType::big, 2, SwapOutcome::rebuild_required},
    };

    const TaskChain chain = five_task_chain(100.0, 75.0);
    for (const Row& row : kTable) {
        const plan::ExecutionPlan target = two_stage(chain, row.cut, row.first_type, row.replicas);
        for (const bool live : {false, true}) {
            SCOPED_TRACE(std::string{row.change} + " / " + (live ? "live" : "parked"));
            auto seq = make_sequence();
            rt::Pipeline<Frame> pipeline{seq, two_stage(chain, 1, CoreType::big, 2),
                                         rt::PipelineConfig{}};
            expect_segment(pipeline, 0, 10); // materialized, then parked
            const Census before = census(pipeline);

            std::optional<SwapOutcome> outcome;
            Census after;
            const auto retarget = [&] {
                outcome = pipeline.retarget(target);
                after = census(pipeline);
            };
            if (live) // from the output thread: run_from is in flight by construction
                expect_segment(pipeline, 10, 60, [&](Frame& f) {
                    if (f.seq == 10)
                        retarget();
                });
            else
                retarget();

            ASSERT_TRUE(outcome.has_value());
            EXPECT_EQ(*outcome, row.expected)
                << to_string(*outcome) << " vs " << to_string(row.expected);
            if (row.expected == SwapOutcome::frame) {
                EXPECT_EQ(after.plan->solution(), target.solution());
                EXPECT_EQ(after.live, target.worker_count());
            } else {
                EXPECT_EQ(after.plan.get(), before.plan.get()) << "same plan snapshot";
                EXPECT_EQ(after.live, before.live);
                EXPECT_EQ(after.spawned, before.spawned);
            }
            // Whatever the outcome, the pipeline keeps streaming.
            expect_segment(pipeline, 60, 80);
        }
    }
}

// A fenced worker leaves its plan slot empty, so retargeting onto the very
// same plan is not a no-op: it refills the slot. Recovery relies on this
// when the re-solve on the shrunken budget returns the plan already running.
TEST(PipelineRetarget, IdenticalPlanRefillsAFencedSlot)
{
    const TaskChain chain = five_task_chain(100.0, 75.0);
    auto seq = make_sequence(/*sleep_us=*/100);
    rt::FaultInjector injector; // kills worker 2, stage 1's second replica
    injector.add(rt::FaultSpec{rt::FaultKind::kill, 5, 0, 2, 1, std::chrono::milliseconds{0}});
    rt::PipelineConfig config;
    config.faults = &injector;
    config.heartbeat_timeout = std::chrono::milliseconds{200};
    rt::Pipeline<Frame> pipeline{seq, two_stage(chain, 1, CoreType::big, 2), config};

    const rt::RunResult degraded = pipeline.run(200);
    ASSERT_EQ(degraded.losses.size(), 1u);
    EXPECT_EQ(degraded.stream_end, 200u) << "the surviving replica carries the stage";
    EXPECT_EQ(pipeline.live_workers(), 2);

    EXPECT_EQ(pipeline.retarget(*pipeline.execution_plan()), SwapOutcome::frame);
    EXPECT_EQ(pipeline.live_workers(), 3);
    EXPECT_EQ(pipeline.retarget(*pipeline.execution_plan()), SwapOutcome::none);
    expect_segment(pipeline, 200, 260);
}

// The monitor hook blocks the watchdog until the final frame is delivered,
// then retargets: run_from is tearing the segment down (waiting for workers
// to park, or joining this very thread). The retarget must land live -- the
// between-segment path would join threads from the watchdog and rewrite
// stage specs under workers that have not parked yet.
TEST(PipelineRetarget, MonitorHookDuringTeardownTakesTheLivePath)
{
    constexpr std::uint64_t kFrames = 60;
    const TaskChain chain = five_task_chain(100.0, 75.0);
    const plan::ExecutionPlan grown = two_stage(chain, 1, CoreType::big, 3);
    auto seq = make_sequence();
    rt::PipelineConfig config;
    rt::Pipeline<Frame> pipeline{seq, two_stage(chain, 1, CoreType::big, 2), config};

    std::mutex mutex;
    std::condition_variable cv;
    bool hook_entered = false;
    bool last_delivered = false;
    std::optional<SwapOutcome> outcome;
    pipeline.set_monitor_hook([&](double) {
        if (outcome)
            return;
        std::unique_lock lock{mutex};
        hook_entered = true;
        cv.notify_all();
        cv.wait(lock, [&] { return last_delivered; });
        outcome = pipeline.retarget(grown);
    });
    expect_segment(pipeline, 0, kFrames, [&](Frame& f) {
        std::unique_lock lock{mutex};
        if (f.seq == 0) // hold the stream until the hook is parked inside the run
            cv.wait(lock, [&] { return hook_entered; });
        if (f.seq + 1 == kFrames) {
            last_delivered = true;
            cv.notify_all();
        }
    });

    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(*outcome, SwapOutcome::frame) << to_string(*outcome);
    EXPECT_EQ(pipeline.live_workers(), 4);
    pipeline.set_monitor_hook({});
    expect_segment(pipeline, kFrames, 2 * kFrames); // the late spawn runs the next segment
}

/// t1 sequential (200/200 us), t2..t5 replicable (60 us): HeRAD maps it to
/// [1,1]x1L | [2,5]x1L on (0,2) and [1,1]x1L | [2,5]x2L on (0,3).
plan::ExecutionPlan herad_plan(const TaskChain& chain, Resources pool)
{
    const core::ScheduleResult result =
        core::schedule(core::ScheduleRequest{chain, pool, core::Strategy::herad});
    EXPECT_TRUE(result.ok());
    return plan::ExecutionPlan::compile(chain, result.solution);
}

// Regression: growing a one-replica stage in flight and shrinking it
// straight back used to hang run() -- the shrink retired the spawned worker
// before its thread first ran, and the worker exited without parking.
TEST(PipelineRetarget, GrowThenShrinkInFlightSettlesTheSpawnedWorker)
{
    constexpr std::uint64_t kSegment = 300;
    constexpr int kSegments = 50;
    const TaskChain chain = five_task_chain(200.0, 60.0);
    const plan::ExecutionPlan small = herad_plan(chain, {0, 2});
    const plan::ExecutionPlan grown = herad_plan(chain, {0, 3});
    ASSERT_EQ(small.solution(), two_stage(chain, 1, CoreType::little, 1).solution())
        << small.summary();
    ASSERT_EQ(grown.solution(), two_stage(chain, 1, CoreType::little, 2).solution())
        << grown.summary();

    auto seq = make_sequence();
    rt::Pipeline<Frame> pipeline{seq, small, rt::PipelineConfig{}};
    for (int s = 0; s < kSegments; ++s) {
        const std::uint64_t first = static_cast<std::uint64_t>(s) * kSegment;
        expect_segment(pipeline, first, first + kSegment, [&](Frame& f) {
            if (f.seq == first) {
                EXPECT_EQ(pipeline.retarget(grown), SwapOutcome::frame);
                EXPECT_EQ(pipeline.retarget(small), SwapOutcome::frame);
            }
        });
    }
    EXPECT_EQ(pipeline.live_workers(), 2);
    EXPECT_EQ(pipeline.spawned_workers(), 2 + kSegments);
}

/// VmSize of this process in KiB (0 when /proc is unavailable).
std::size_t vm_size_kib()
{
    std::FILE* status = std::fopen("/proc/self/status", "r");
    if (status == nullptr)
        return 0;
    char line[256];
    std::size_t kib = 0;
    while (std::fgets(line, sizeof line, status) != nullptr)
        if (std::strncmp(line, "VmSize:", 7) == 0)
            kib = std::strtoull(line + 7, nullptr, 10);
    std::fclose(status);
    return kib;
}

// Every in-flight grow+shrink cycle retires one worker thread. The next
// segment start joins it, so its stack is released (and reused); left
// unjoined, each retired thread keeps a whole default-size stack mapped.
TEST(PipelineRetarget, SegmentStartJoinsWorkersRetiredInFlight)
{
    constexpr std::uint64_t kSegment = 300;
    constexpr int kSegments = 50;
    const TaskChain chain = five_task_chain(200.0, 60.0);
    const plan::ExecutionPlan small = two_stage(chain, 1, CoreType::little, 1);
    const plan::ExecutionPlan grown = two_stage(chain, 1, CoreType::little, 2);
    auto seq = make_sequence(/*sleep_us=*/20);
    rt::Pipeline<Frame> pipeline{seq, small, rt::PipelineConfig{}};
    expect_segment(pipeline, 0, 10);

    pthread_attr_t attr;
    std::size_t stack_bytes = 0;
    ASSERT_EQ(pthread_attr_init(&attr), 0);
    ASSERT_EQ(pthread_attr_getstacksize(&attr, &stack_bytes), 0);
    pthread_attr_destroy(&attr);
    const std::size_t before = vm_size_kib();
    if (before == 0)
        GTEST_SKIP() << "/proc/self/status unavailable";

    for (int s = 0; s < kSegments; ++s) {
        const std::uint64_t first = 10 + static_cast<std::uint64_t>(s) * kSegment;
        expect_segment(pipeline, first, first + kSegment, [&](Frame& f) {
            if (f.seq == first) {
                EXPECT_EQ(pipeline.retarget(grown), SwapOutcome::frame);
            } else if (f.seq == first + kSegment / 2) {
                EXPECT_EQ(pipeline.retarget(small), SwapOutcome::frame);
            }
        });
    }
    const std::size_t after = vm_size_kib();
    const std::size_t growth_kib = after > before ? after - before : 0;
    const std::size_t leak_kib = kSegments * stack_bytes / 1024;
    EXPECT_LT(growth_kib, leak_kib / 4)
        << "VmSize grew " << growth_kib << " KiB over " << kSegments
        << " grow+shrink cycles; unjoined workers would cost ~" << leak_kib << " KiB";
    EXPECT_EQ(pipeline.spawned_workers(), 2 + kSegments);
}

} // namespace
