// The acceptance contract of obs/schema.hpp: a real rt::Pipeline run and a
// dsim::simulate run of the SAME chain and schedule produce traces that are
// identical event-by-event in names, frame ids, stage ids and phases --
// only timestamps (wall-clock vs. virtual) and track assignment (the
// runtime's replicated-stage workers race for frames; the simulator uses
// frame % r) may differ.

#include "dsim/simulator.hpp"
#include "obs/schema.hpp"
#include "obs/sink.hpp"
#include "rt/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

namespace {

using namespace amp;

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

TEST(TraceEquality, RealAndSimulatedRunsEmitTheSameSchema)
{
    // Three tasks, the first stateful; on R = (2, 1) HeRAD pipelines and
    // replicates, so the trace covers sequential AND replicated stages.
    std::vector<core::TaskDesc> descs;
    rt::TaskSequence<Frame> sequence;
    for (int i = 1; i <= 3; ++i) {
        const double w = 10.0 + i;
        descs.push_back(core::TaskDesc{"t" + std::to_string(i), w, 2.0 * w, i != 1});
        sequence.push_back(rt::make_task<Frame>("t" + std::to_string(i), i == 1, [](Frame&) {}));
    }
    const core::TaskChain chain{std::move(descs)};
    const core::Solution solution =
        core::schedule(core::ScheduleRequest{chain, {2, 1}, core::Strategy::herad}).solution;

    constexpr std::uint64_t kFrames = 8;

    obs::Sink real_sink;
    rt::PipelineConfig config;
    config.sink = &real_sink;
    rt::Pipeline<Frame> pipeline{sequence, solution, config};
    const rt::RunResult result = pipeline.run(kFrames, {});
    ASSERT_EQ(result.frames, kFrames);

    obs::Sink sim_sink;
    dsim::SimulationConfig sim_config;
    sim_config.frames = kFrames;
    sim_config.warmup_frames = 1;
    sim_config.sink = &sim_sink;
    (void)dsim::simulate(chain, solution, sim_config);

    const std::vector<EventKey> real_events = collect_events(real_sink.trace());
    const std::vector<EventKey> sim_events = collect_events(sim_sink.trace());
    ASSERT_FALSE(real_events.empty());
    EXPECT_EQ(real_events, sim_events);
    // One span per (frame, stage), every event a complete span.
    EXPECT_EQ(real_events.size(), kFrames * solution.stage_count());

    // Track layout: both sides name one track per worker plus a watchdog.
    const obs::TraceRecorder& real = real_sink.trace();
    const obs::TraceRecorder& sim = sim_sink.trace();
    ASSERT_EQ(real.track_count(), sim.track_count());
    std::vector<std::string> real_tracks, sim_tracks;
    for (std::size_t t = 0; t < real.track_count(); ++t) {
        real_tracks.push_back(real.track_name(t));
        sim_tracks.push_back(sim.track_name(t));
    }
    EXPECT_EQ(real_tracks, sim_tracks);

    // Metric families: everything the simulator emits, the runtime also
    // emits (the runtime adds liveness-only series like heartbeats).
    const obs::MetricsSnapshot real_metrics = real_sink.metrics().snapshot();
    const obs::MetricsSnapshot sim_metrics = sim_sink.metrics().snapshot();
    for (const auto& [name, value] : sim_metrics.counters)
        EXPECT_TRUE(real_metrics.counters.count(name) == 1) << "missing counter " << name;
    for (const auto& [name, value] : sim_metrics.gauges)
        EXPECT_TRUE(real_metrics.gauges.count(name) == 1) << "missing gauge " << name;
    for (const auto& [name, value] : sim_metrics.histograms)
        EXPECT_TRUE(real_metrics.histograms.count(name) == 1) << "missing histogram " << name;
    EXPECT_EQ(real_metrics.counters.at(obs::schema::kFramesDelivered), kFrames);
    EXPECT_EQ(sim_metrics.counters.at(obs::schema::kFramesDelivered), kFrames);
}

TEST(TraceEquality, SimulatedFailureEmitsFenceAndTombstone)
{
    // The loss replay mirrors the watchdog's fence/tombstone instants
    // on its own watchdog track, exactly like rt::Pipeline::fence.
    std::vector<core::TaskDesc> descs;
    for (int i = 1; i <= 3; ++i)
        descs.push_back(core::TaskDesc{"t" + std::to_string(i), 10.0, 20.0, i != 1});
    const core::TaskChain chain{std::move(descs)};
    const core::Resources budget{2, 1};
    const core::Solution solution =
        core::schedule(core::ScheduleRequest{chain, budget, core::Strategy::herad}).solution;

    obs::Sink sink;
    dsim::SimulationConfig config;
    config.frames = 50;
    config.warmup_frames = 5;
    config.sink = &sink;
    config.faults.budget = budget;
    config.faults.failures.push_back(dsim::SimFailure{20, 0});
    const auto result = dsim::simulate(chain, solution, config);
    ASSERT_TRUE(result.schedulable);
    ASSERT_EQ(result.recoveries.size(), 1u);

    const std::vector<EventKey> events = collect_events(sink.trace());
    const auto count_named = [&events](const char* name) {
        return std::count_if(events.begin(), events.end(), [name](const EventKey& key) {
            return std::get<0>(key) == name;
        });
    };
    EXPECT_EQ(count_named(obs::schema::kFence), 1);
    EXPECT_EQ(count_named(obs::schema::kTombstone), 1);
    EXPECT_EQ(sink.metrics().snapshot().counters.at(obs::schema::kWorkersFenced), 1u);
    // The hot-swap opened a second track group: old epoch + new epoch.
    EXPECT_GT(sink.trace().track_count(), solution.used().total() + 1u);
}

} // namespace
