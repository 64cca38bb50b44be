#include "rt/fault.hpp"

#include "obs/schema.hpp"
#include "obs/sink.hpp"
#include "plan/execution_plan.hpp"
#include "plan/graph_shape.hpp"
#include "rt/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace amp::rt;
using amp::core::CoreType;
using amp::core::Solution;
using amp::core::Stage;

using std::chrono::milliseconds;

struct Frame {
    std::uint64_t seq = 0;
    int value = 0;
};

/// n stateless tasks; task i adds i to the value.
TaskSequence<Frame> make_sequence(int n)
{
    TaskSequence<Frame> seq;
    for (int i = 1; i <= n; ++i)
        seq.push_back(make_task<Frame>("t" + std::to_string(i), false,
                                       [i](Frame& f) { f.value += i; }));
    return seq;
}

// -- injector semantics ----------------------------------------------------

TEST(FaultInjector, SameSeedSamePlan)
{
    RandomFaultConfig config;
    config.frames = 500;
    config.tasks = 6;
    config.workers = 4;
    config.transients = 3;
    config.stalls = 2;
    config.kills = 1;
    const auto a = FaultInjector::random_plan(42, config).plan();
    const auto b = FaultInjector::random_plan(42, config).plan();
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.size(), 6u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].frame, b[i].frame);
        EXPECT_EQ(a[i].task, b[i].task);
        EXPECT_EQ(a[i].worker, b[i].worker);
        EXPECT_EQ(a[i].count, b[i].count);
        EXPECT_LT(a[i].frame, config.frames);
        if (a[i].kind == FaultKind::transient) {
            EXPECT_GE(a[i].task, 1);
            EXPECT_LE(a[i].task, config.tasks);
        } else {
            EXPECT_GE(a[i].worker, 0);
            EXPECT_LT(a[i].worker, config.workers);
        }
    }
}

TEST(FaultInjector, TransientMatchesExactFrameAndConsumesCount)
{
    FaultInjector injector;
    injector.add(FaultSpec{FaultKind::transient, 7, 2, -1, 2, milliseconds{0}});
    EXPECT_EQ(injector.pending(), 2u);
    EXPECT_FALSE(injector.should_throw(1, 7)) << "other task";
    EXPECT_FALSE(injector.should_throw(2, 6)) << "other frame";
    EXPECT_TRUE(injector.should_throw(2, 7));
    EXPECT_TRUE(injector.should_throw(2, 7)) << "count = 2: second attempt also throws";
    EXPECT_FALSE(injector.should_throw(2, 7)) << "budget consumed";
    EXPECT_EQ(injector.pending(), 0u);
    EXPECT_FALSE(injector.has_liveness_faults());
}

TEST(FaultInjector, LivenessFaultsFireOnFirstFrameAtOrAfterTrigger)
{
    FaultInjector injector;
    injector.add(FaultSpec{FaultKind::stall, 10, 0, 1, 1, milliseconds{30}});
    injector.add(FaultSpec{FaultKind::kill, 20, 0, 2, 1, milliseconds{0}});
    EXPECT_TRUE(injector.has_liveness_faults());

    EXPECT_EQ(injector.stall_before(1, 9).count(), 0) << "before the trigger frame";
    EXPECT_EQ(injector.stall_before(0, 10).count(), 0) << "other worker";
    EXPECT_EQ(injector.stall_before(1, 12).count(), 30)
        << "a replica may skip the exact trigger frame";
    EXPECT_EQ(injector.stall_before(1, 13).count(), 0) << "one-shot";

    EXPECT_FALSE(injector.should_kill(2, 19));
    EXPECT_TRUE(injector.should_kill(2, 25));
    EXPECT_FALSE(injector.should_kill(2, 26)) << "one-shot";
    EXPECT_FALSE(injector.has_liveness_faults());
}

// -- pipeline under injection ---------------------------------------------

// Acceptance (a): a transient task fault is retried and the run completes
// with zero frame loss.
TEST(FaultPipeline, TransientFaultRetriedWithZeroFrameLoss)
{
    auto seq = make_sequence(3);
    const Solution solution{{Stage{1, 1, 1, CoreType::big}, Stage{2, 2, 2, CoreType::big},
                             Stage{3, 3, 1, CoreType::big}}};
    FaultInjector injector;
    injector.add(FaultSpec{FaultKind::transient, 7, 2, -1, 2, milliseconds{0}});

    PipelineConfig config;
    config.faults = &injector;
    config.max_task_retries = 3;

    Pipeline<Frame> pipeline{seq, solution, config};
    std::vector<Frame> outputs;
    const auto result = pipeline.run(50, [&](Frame& f) { outputs.push_back(f); });

    EXPECT_EQ(result.frames, 50u);
    EXPECT_EQ(result.frames_dropped, 0u) << "retry must absorb the fault without frame loss";
    EXPECT_EQ(result.retries, 2u) << "the fault threw on two consecutive attempts";
    EXPECT_EQ(result.stream_end, 50u);
    EXPECT_FALSE(result.degraded());
    EXPECT_EQ(injector.pending(), 0u);
    ASSERT_EQ(outputs.size(), 50u);
    for (std::size_t i = 0; i < outputs.size(); ++i) {
        EXPECT_EQ(outputs[i].seq, i);
        EXPECT_EQ(outputs[i].value, 1 + 2 + 3)
            << "payload restored before each retry: no double-processing";
    }
}

TEST(FaultPipeline, ExhaustedRetryBudgetPropagatesTheFault)
{
    auto seq = make_sequence(2);
    FaultInjector injector;
    injector.add(FaultSpec{FaultKind::transient, 3, 1, -1, 5, milliseconds{0}});
    PipelineConfig config;
    config.faults = &injector;
    config.max_task_retries = 1;
    Pipeline<Frame> pipeline{seq, Solution{{Stage{1, 2, 1, CoreType::big}}}, config};
    EXPECT_THROW((void)pipeline.run(20), TransientTaskFault);
}

/// Two tasks for a replicated stage 1. Task 2 sleeps, so both stage-1
/// replicas draw frames: with a trivial task one replica can take the
/// whole stream, and a stall aimed at worker 1 never fires.
TaskSequence<Frame> make_replica_sequence()
{
    auto seq = make_sequence(1);
    seq.push_back(make_task<Frame>("t2", false, [](Frame& f) {
        std::this_thread::sleep_for(std::chrono::microseconds{50});
        f.value += 2;
    }));
    return seq;
}

/// Workers in stage-major order: 0 = source, 1 and 2 = stage-1 replicas.
const Solution kReplicatedStage1{
    {Stage{1, 1, 1, CoreType::big}, Stage{2, 2, 2, CoreType::little}}};

TEST(FaultPipeline, StalledReplicaIsFencedAndStreamContinues)
{
    auto seq = make_replica_sequence();
    FaultInjector injector;
    injector.add(FaultSpec{FaultKind::stall, 5, 0, 1, 1, milliseconds{800}});

    PipelineConfig config;
    config.faults = &injector;
    config.heartbeat_timeout = milliseconds{150};

    Pipeline<Frame> pipeline{seq, kReplicatedStage1, config};
    const auto result = pipeline.run(60);

    ASSERT_TRUE(result.degraded());
    ASSERT_EQ(result.losses.size(), 1u);
    EXPECT_EQ(result.losses[0].worker, 1);
    EXPECT_EQ(result.losses[0].stage, 1);
    EXPECT_EQ(result.losses[0].type, CoreType::little);
    EXPECT_GE(result.failure_seconds, 0.0);
    EXPECT_EQ(result.frames_dropped, 1u) << "only the frame the stalled worker held is lost";
    EXPECT_EQ(result.frames + result.frames_dropped, 60u)
        << "the surviving replica carries the stream to the end";
    EXPECT_EQ(result.stream_end, 60u);
}

// The monitor pass and the fence scan share the watchdog's tick: an
// installed hook keeps sampling while a replica stalls, across its fence,
// and the pass exports each queue's depth when metrics are on.
TEST(FaultPipeline, MonitorHookKeepsSamplingAcrossAFence)
{
    using Clock = std::chrono::steady_clock;
    constexpr std::uint64_t kFrames = 3000;
    auto seq = make_replica_sequence();
    FaultInjector injector;
    injector.add(FaultSpec{FaultKind::stall, 5, 0, 1, 1, milliseconds{800}});
    amp::obs::Sink sink{amp::obs::SinkConfig{true, false, 1, 8}};

    PipelineConfig config;
    config.faults = &injector;
    config.heartbeat_timeout = milliseconds{150};
    config.sink = &sink;

    Pipeline<Frame> pipeline{seq, kReplicatedStage1, config};
    std::vector<Clock::time_point> calls; // written by the watchdog, read after run()
    pipeline.set_monitor_hook([&](double) { calls.push_back(Clock::now()); });
    const Clock::time_point before_run = Clock::now();
    const auto result = pipeline.run(kFrames);

    ASSERT_EQ(result.losses.size(), 1u);
    EXPECT_EQ(result.frames + result.frames_dropped, kFrames);
    // failure_seconds counts from the segment start, which lies between
    // before_run and the first call (the watchdog starts after it), so both
    // bounds err toward failing.
    ASSERT_FALSE(calls.empty());
    const auto failure = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(result.failure_seconds));
    EXPECT_TRUE(std::any_of(calls.begin(), calls.end(),
                            [&](Clock::time_point t) { return t < before_run + failure; }))
        << "no monitor pass before the fence";
    EXPECT_TRUE(std::any_of(calls.begin(), calls.end(),
                            [&](Clock::time_point t) { return t > calls.front() + failure; }))
        << "no monitor pass after the fence";
    EXPECT_NE(sink.render_prometheus().find("amp_queue_depth"), std::string::npos);
    EXPECT_EQ(sink.metrics().counter(amp::obs::schema::kFramesDropped).value(),
              result.frames_dropped)
        << "every tombstone is counted";
}

TEST(FaultPipeline, KilledSoleWorkerTriggersGracefulDrain)
{
    auto seq = make_sequence(2);
    const Solution solution{{Stage{1, 1, 1, CoreType::big}, Stage{2, 2, 1, CoreType::big}}};
    FaultInjector injector;
    injector.add(FaultSpec{FaultKind::kill, 10, 0, 1, 1, milliseconds{0}});

    PipelineConfig config;
    config.faults = &injector;
    config.heartbeat_timeout = milliseconds{100};

    Pipeline<Frame> pipeline{seq, solution, config};
    std::vector<std::uint64_t> delivered;
    const auto result = pipeline.run(200, [&](Frame& f) { delivered.push_back(f.seq); });

    ASSERT_TRUE(result.degraded());
    ASSERT_EQ(result.losses.size(), 1u);
    EXPECT_EQ(result.losses[0].stage, 1);
    EXPECT_LT(result.stream_end, 200u) << "the stream was cut short, not completed";
    EXPECT_EQ(result.frames + result.frames_dropped, result.stream_end)
        << "every position before stream_end was delivered or tombstoned";
    EXPECT_GE(result.frames_dropped, 1u) << "at least the held frame is lost";
    for (std::size_t i = 0; i < delivered.size(); ++i)
        EXPECT_EQ(delivered[i], i) << "delivered frames stay contiguous and ordered";
}

/// Two stateless tasks; task 1 sleeps, so both replicas of a replicated
/// source stage draw frames and a kill aimed at either one fires.
TaskSequence<Frame> make_slow_source_sequence()
{
    TaskSequence<Frame> seq;
    seq.push_back(make_task<Frame>("t1", false, [](Frame& f) {
        std::this_thread::sleep_for(std::chrono::microseconds{50});
        f.value += 1;
    }));
    seq.push_back(make_task<Frame>("t2", false, [](Frame& f) { f.value += 2; }));
    return seq;
}

/// Workers in stage-major order: 0 and 1 = source replicas, 2 = stage 1.
const Solution kReplicatedSource{
    {Stage{1, 1, 2, CoreType::big}, Stage{2, 2, 1, CoreType::big}}};

/// Every position before the run's stream_end was delivered or
/// tombstoned, and the delivered frames are 0, 1, 2, ... with no gap.
void expect_contiguous_prefix(const RunResult& result,
                              const std::vector<std::uint64_t>& delivered)
{
    EXPECT_EQ(result.frames + result.frames_dropped, result.stream_end);
    for (std::size_t i = 0; i < delivered.size(); ++i)
        EXPECT_EQ(delivered[i], i) << "delivered frames stay contiguous and ordered";
}

// Stage 1 loses its only worker behind a two-replica source: the drain
// stops both replicas, the last one out closes the stream after every
// position the two claimed, and the run returns cut short.
TEST(FaultPipeline, ReplicatedSourceIsCutShortByADeadStage)
{
    constexpr std::uint64_t kFrames = 300;
    auto seq = make_slow_source_sequence();
    FaultInjector injector;
    injector.add(FaultSpec{FaultKind::kill, 10, 0, 2, 1, milliseconds{0}});
    PipelineConfig config;
    config.faults = &injector;
    config.heartbeat_timeout = milliseconds{100};

    Pipeline<Frame> pipeline{seq, kReplicatedSource, config};
    std::vector<std::uint64_t> delivered;
    const auto result = pipeline.run(kFrames, [&](Frame& f) { delivered.push_back(f.seq); });

    ASSERT_EQ(result.losses.size(), 1u);
    EXPECT_EQ(result.losses[0].worker, 2);
    EXPECT_EQ(result.losses[0].stage, 1);
    EXPECT_LT(result.stream_end, kFrames) << "the stream was cut short, not completed";
    EXPECT_GE(result.frames_dropped, 1u) << "at least the held frame is lost";
    expect_contiguous_prefix(result, delivered);
}

// One source replica dies holding a frame: the fence tombstones that frame
// and its sibling carries the stream to the end.
TEST(FaultPipeline, KilledSourceReplicaLeavesOneTombstone)
{
    constexpr std::uint64_t kFrames = 200;
    auto seq = make_slow_source_sequence();
    FaultInjector injector;
    injector.add(FaultSpec{FaultKind::kill, 5, 0, 1, 1, milliseconds{0}});
    PipelineConfig config;
    config.faults = &injector;
    config.heartbeat_timeout = milliseconds{100};

    Pipeline<Frame> pipeline{seq, kReplicatedSource, config};
    std::vector<std::uint64_t> delivered;
    const auto result = pipeline.run(kFrames, [&](Frame& f) { delivered.push_back(f.seq); });

    ASSERT_EQ(result.losses.size(), 1u);
    EXPECT_EQ(result.losses[0].worker, 1);
    EXPECT_EQ(result.losses[0].stage, 0);
    const std::uint64_t held = result.losses[0].held_frame;
    EXPECT_GE(held, 5u);
    EXPECT_LT(held, kFrames);
    EXPECT_EQ(result.frames_dropped, 1u) << "only the held frame is lost";
    EXPECT_EQ(result.frames, kFrames - 1);
    EXPECT_EQ(result.stream_end, kFrames);
    std::vector<std::uint64_t> expected;
    for (std::uint64_t s = 0; s < kFrames; ++s)
        if (s != held)
            expected.push_back(s);
    EXPECT_EQ(delivered, expected) << "every frame but the held one, in order";
}

// A DAG plan src -> {a, b} -> sink whose fan-in sink loses its only
// worker: the scavenger pops the sink's two inputs through the FanInGate
// and the run returns cut short, in order.
TEST(FaultPipeline, DeadFanInStageDrainsThroughTheGate)
{
    constexpr std::uint64_t kFrames = 300;
    auto seq = make_sequence(4);
    amp::plan::GraphShape shape;
    shape.chain = amp::plan::ChainShape{4, {true, true, true, true}};
    shape.branches = {
        amp::plan::GraphBranch{0, 1, 1, {}, {1, 2}},
        amp::plan::GraphBranch{1, 2, 2, {0}, {3}},
        amp::plan::GraphBranch{2, 3, 3, {0}, {3}},
        amp::plan::GraphBranch{3, 4, 4, {1, 2}, {}},
    };
    const Solution one_big{{Stage{1, 1, 1, CoreType::big}}};
    FaultInjector injector;
    // Workers in stage-major order: 0 = src, 1 = a, 2 = b, 3 = sink.
    injector.add(FaultSpec{FaultKind::kill, 10, 0, 3, 1, milliseconds{0}});
    PipelineConfig config;
    config.faults = &injector;
    config.heartbeat_timeout = milliseconds{100};

    Pipeline<Frame> pipeline{
        seq, amp::plan::ExecutionPlan::compile(shape, {one_big, one_big, one_big, one_big}),
        config};
    std::vector<std::uint64_t> delivered;
    const auto result = pipeline.run(kFrames, [&](Frame& f) { delivered.push_back(f.seq); });

    ASSERT_EQ(result.losses.size(), 1u);
    EXPECT_EQ(result.losses[0].stage, 3);
    EXPECT_LT(result.stream_end, kFrames) << "the stream was cut short, not completed";
    EXPECT_GE(result.frames_dropped, 1u) << "at least the held frame is lost";
    expect_contiguous_prefix(result, delivered);
}

TEST(FaultPipeline, LivenessFaultsRequireTheWatchdog)
{
    auto seq = make_sequence(2);
    FaultInjector injector;
    injector.add(FaultSpec{FaultKind::kill, 0, 0, 0, 1, milliseconds{0}});
    PipelineConfig config;
    config.faults = &injector; // heartbeat_timeout left at zero
    EXPECT_THROW((Pipeline<Frame>{seq, Solution{{Stage{1, 2, 1, CoreType::big}}}, config}),
                 std::invalid_argument);
}

// -- exceptions on the watchdog ------------------------------------------

// The monitor hook runs on the watchdog thread: its throw ends the run and
// run() rethrows it, as it does a task's, and the pipeline runs on.
TEST(FaultPipeline, ThrowingMonitorHookEndsTheRunAndRethrows)
{
    auto seq = make_replica_sequence();
    Pipeline<Frame> pipeline{seq, kReplicatedStage1};
    int calls = 0; // written by the watchdog, read after run()
    pipeline.set_monitor_hook([&](double) {
        if (++calls == 3)
            throw std::invalid_argument{"monitor hook"};
    });
    // The stream outlasts three 2 ms ticks by far: only the throw ends it.
    EXPECT_THROW((void)pipeline.run(100'000), std::invalid_argument);
    EXPECT_EQ(calls, 3);

    const auto result = pipeline.run(100);
    EXPECT_EQ(result.frames, 100u);
    EXPECT_EQ(result.stream_end, 100u);
}

// The loss handler runs on the watchdog thread inside a fence: its throw
// ends the run and run() rethrows it.
TEST(FaultPipeline, ThrowingLossHandlerEndsTheRunAndRethrows)
{
    auto seq = make_sequence(2);
    const Solution solution{{Stage{1, 1, 1, CoreType::big}, Stage{2, 2, 1, CoreType::big}}};
    FaultInjector injector;
    injector.add(FaultSpec{FaultKind::kill, 10, 0, 1, 1, milliseconds{0}});
    PipelineConfig config;
    config.faults = &injector;
    config.heartbeat_timeout = milliseconds{100};

    Pipeline<Frame> pipeline{seq, solution, config};
    std::vector<WorkerLoss> losses; // written by the watchdog, read after run()
    pipeline.set_loss_handler([&](const WorkerLoss& loss) -> bool {
        losses.push_back(loss);
        throw std::runtime_error{"loss handler"};
    });
    // Frame 10 never reaches the drain: only the fence can end the run.
    EXPECT_THROW((void)pipeline.run(200), std::runtime_error);
    ASSERT_EQ(losses.size(), 1u);
    EXPECT_EQ(losses[0].worker, 1);
    EXPECT_EQ(losses[0].held_frame, 10u);
}

} // namespace
