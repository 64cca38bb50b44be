// DAG plans end to end on the real runtime: fan-out copies every envelope
// to all successor queues, the fan-in gate merges by sequence number with
// zero reordering, rt and dsim produce trace-equal executions of one DAG
// plan, and a resize-only delta lands on a branch stage mid-flight without
// draining the stream.

#include "dsim/simulator.hpp"
#include "dvbs2/graph_workloads.hpp"
#include "dvbs2/profiles.hpp"
#include "obs/schema.hpp"
#include "obs/sink.hpp"
#include "plan/execution_plan.hpp"
#include "rt/pipeline.hpp"
#include "svc/graph_schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <tuple>
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
using std::chrono::microseconds;
using std::chrono::milliseconds;

// ---------------------------------------------------------------------------
// Fan-out / fan-in execution on the DVB-S2 A/B decode diamond.

TEST(GraphPipeline, AbDecodeDiamondMergesEveryFrameInOrder)
{
    constexpr std::uint64_t kFrames = 300;
    const dvbs2::PlatformProfile profile = dvbs2::mac_studio_profile();
    const dvbs2::GraphWorkload workload = dvbs2::ab_decode_workload(profile);

    svc::GraphScheduleRequest request;
    request.chain = workload.chain;
    request.shape = workload.shape;
    request.resources = {4, 2};
    svc::SolverService service{{.workers = 1}};
    const svc::GraphSchedule schedule = svc::schedule_graph(request, service);
    ASSERT_TRUE(schedule.ok) << schedule.error;

    auto sequence = dvbs2::graph_sequence(workload);
    rt::Pipeline<dvbs2::GraphFrame> pipeline{sequence, schedule.plan, rt::PipelineConfig{}};

    // Every task stamps its global-id bit; the merge unions them, so a
    // delivered frame proves both decode paths ran. `accum` additionally
    // counts the front branch twice -- once per copy.
    const int n = workload.chain.size();
    const std::uint64_t all_tasks =
        n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
    double expected_accum = 0.0;
    for (const GraphBranch& branch : workload.shape.branches) {
        const double weight = branch.index == 0 ? 2.0 : 1.0; // front is copied to A and B
        for (int i = branch.first; i <= branch.last; ++i)
            expected_accum += weight * static_cast<double>(i);
    }

    std::vector<std::uint64_t> delivered;
    const rt::RunResult result =
        pipeline.run(kFrames, [&](dvbs2::GraphFrame& frame) {
            EXPECT_EQ(frame.visited, all_tasks) << "every task ran on frame " << frame.seq;
            EXPECT_DOUBLE_EQ(frame.accum, expected_accum);
            delivered.push_back(frame.seq);
        });

    EXPECT_EQ(result.frames, kFrames);
    EXPECT_EQ(result.frames_dropped, 0u);
    ASSERT_EQ(delivered.size(), kFrames);
    for (std::size_t i = 0; i < delivered.size(); ++i)
        EXPECT_EQ(delivered[i], i) << "zero reordered frames at the fan-in merge";
}

// ---------------------------------------------------------------------------
// rt-vs-dsim trace equality on one shared DAG plan.

struct Frame {
    std::uint64_t seq = 0;
};

/// (event name, frame, stage, phase) -- everything but time and track.
using EventKey = std::tuple<std::string, std::uint64_t, std::int32_t, char>;

std::vector<EventKey> collect_events(const obs::TraceRecorder& recorder)
{
    std::vector<EventKey> keys;
    for (std::size_t track = 0; track < recorder.track_count(); ++track)
        for (const obs::TraceEvent& event : recorder.events(track))
            keys.emplace_back(recorder.name(event.name_id), event.frame, event.stage,
                              static_cast<char>(event.phase));
    std::sort(keys.begin(), keys.end());
    return keys;
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

rt::TaskSequence<Frame> diamond_sequence(const Diamond& d, int source_sleep_us = 0)
{
    rt::TaskSequence<Frame> sequence;
    for (int i = 1; i <= d.chain.size(); ++i)
        sequence.push_back(rt::make_task<Frame>(
            d.chain.task(i).name, !d.chain.task(i).replicable,
            [i, source_sleep_us](Frame&) {
                if (source_sleep_us > 0 && i == 1)
                    std::this_thread::sleep_for(microseconds{source_sleep_us});
            }));
    return sequence;
}

TEST(GraphPipeline, PipelineAndSimulatorExecuteTheSameDagPlan)
{
    constexpr std::uint64_t kFrames = 8;
    const Diamond d = make_diamond();
    const ExecutionPlan shared = ExecutionPlan::compile(d.chain, d.shape, d.solutions);
    ASSERT_FALSE(shared.linear());

    obs::Sink real_sink;
    rt::PipelineConfig config;
    config.sink = &real_sink;
    auto sequence = diamond_sequence(d);
    rt::Pipeline<Frame> pipeline{sequence, shared, config};
    const rt::RunResult result = pipeline.run(kFrames, {});
    ASSERT_EQ(result.frames, kFrames);

    obs::Sink sim_sink;
    dsim::SimulationConfig sim_config;
    sim_config.frames = kFrames;
    sim_config.warmup_frames = 1;
    sim_config.sink = &sim_sink;
    (void)dsim::simulate(shared, sim_config);

    const std::vector<EventKey> real_events = collect_events(real_sink.trace());
    const std::vector<EventKey> sim_events = collect_events(sim_sink.trace());
    ASSERT_FALSE(real_events.empty());
    EXPECT_EQ(real_events, sim_events);
    EXPECT_EQ(real_events.size(), kFrames * shared.stage_count())
        << "one stage-crossing event per frame per stage, fan-in merged";

    const obs::TraceRecorder& real = real_sink.trace();
    const obs::TraceRecorder& sim = sim_sink.trace();
    ASSERT_EQ(real.track_count(), sim.track_count());
    EXPECT_EQ(real.track_count(), static_cast<std::size_t>(shared.worker_count()) + 1);
    for (std::size_t t = 0; t < real.track_count(); ++t)
        EXPECT_EQ(real.track_name(t), sim.track_name(t));

    EXPECT_EQ(real_sink.metrics().snapshot().counters.at(obs::schema::kFramesDelivered),
              kFrames);
    EXPECT_EQ(sim_sink.metrics().snapshot().counters.at(obs::schema::kFramesDelivered),
              kFrames);
}

TEST(GraphPipeline, SimulatedDagThroughputTracksTheBottleneckStage)
{
    const Diamond d = make_diamond();
    const ExecutionPlan plan = ExecutionPlan::compile(d.chain, d.shape, d.solutions);

    dsim::SimulationConfig config;
    config.frames = 4000;
    config.warmup_frames = 400;
    config.overhead.adaptor_crossing_us = 0.0;
    config.overhead.service_inflation = 0.0;
    config.overhead.jitter_cv = 0.0;
    config.overhead.replication_penalty = 0.0;
    config.overhead.little_replication_penalty = 0.0;
    const dsim::SimulationResult result = dsim::simulate(plan, config);

    // Bottleneck: mid-b on a little core, 60 us -- the parallel mid-a pair
    // at 80/2 = 40 us must not gate the stream.
    EXPECT_NEAR(result.period_us, 60.0, 1e-6);
    EXPECT_NEAR(result.fps, 1e6 / 60.0, 1.0);
}

// ---------------------------------------------------------------------------
// Resize-only in-flight swap landing on a branch stage, no drain.

TEST(GraphPipeline, ResizeOnlySwapLandsOnABranchStageWithoutDraining)
{
    constexpr std::uint64_t kFrames = 400;
    const Diamond base = make_diamond(2);
    auto sequence = diamond_sequence(base, /*source_sleep_us=*/150);

    rt::Pipeline<Frame> pipeline{
        sequence, ExecutionPlan::compile(base.chain, base.shape, base.solutions),
        rt::PipelineConfig{}};

    // Retargets issued from the output thread land while the segment runs.
    const Diamond grown = make_diamond(3);
    std::vector<std::uint64_t> delivered;
    const rt::RunResult result = pipeline.run(kFrames, [&](Frame& f) {
        delivered.push_back(f.seq);
        if (f.seq == 100) {
            EXPECT_EQ(pipeline.retarget(
                          ExecutionPlan::compile(grown.chain, grown.shape, grown.solutions)),
                      plan::SwapOutcome::frame);
            EXPECT_EQ(pipeline.live_workers(), 6) << "the spawned branch replica joins live";
        }
        if (f.seq == 200) {
            EXPECT_EQ(pipeline.retarget(
                          ExecutionPlan::compile(base.chain, base.shape, base.solutions)),
                      plan::SwapOutcome::frame);
        }
    });

    EXPECT_EQ(result.frames, kFrames);
    EXPECT_EQ(result.frames_dropped, 0u) << "an in-flight swap never drops frames";
    ASSERT_EQ(delivered.size(), kFrames);
    for (std::size_t i = 0; i < delivered.size(); ++i)
        EXPECT_EQ(delivered[i], i);
    EXPECT_EQ(pipeline.live_workers(), 5) << "back to the base census after the shrink";
    EXPECT_FALSE(pipeline.execution_plan()->linear())
        << "the swapped plan is still the DAG";
}

} // namespace
