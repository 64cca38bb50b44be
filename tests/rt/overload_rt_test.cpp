// Runtime-side overload protection: OrderedQueue watermarks and shedding,
// the closed-vs-stale push outcome split, the BrownoutController state
// machine, and the pipeline's end-to-end frame shedder
// (docs/FAULT_MODEL.md, "Overload model").

#include "rt/brownout.hpp"
#include "rt/ordered_queue.hpp"
#include "rt/pipeline.hpp"
#include "rt/rescheduler.hpp"

#include "obs/schema.hpp"
#include "obs/sink.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

namespace {

using namespace amp::rt;
using amp::core::CoreType;
using amp::core::Solution;
using amp::core::Stage;

TEST(OrderedQueueOverload, ClosedAndStaleAreDistinguishable)
{
    OrderedQueue<int> queue{4};
    queue.push(Envelope<int>::data(0, 0));
    ASSERT_TRUE(queue.pop().has_value());

    // Same producer mistake, two different answers: a stale frame means
    // "drop this one, keep producing", an aborted queue means "park".
    auto stale = Envelope<int>::data(0, 1);
    EXPECT_EQ(queue.try_push_for(stale, std::chrono::milliseconds{1}),
              OrderedQueue<int>::PushOutcome::stale);

    queue.abort();
    auto next = Envelope<int>::data(1, 2);
    EXPECT_EQ(queue.try_push_for(next, std::chrono::milliseconds{1}),
              OrderedQueue<int>::PushOutcome::closed);
}

TEST(OrderedQueueOverload, CongestedLatchesWithHysteresis)
{
    OrderedQueue<int> queue{8};
    queue.set_watermarks(4, 2);
    for (std::uint64_t seq = 0; seq < 4; ++seq)
        queue.push(Envelope<int>::data(seq, 0));
    EXPECT_TRUE(queue.congested()) << "reached the high watermark";
    ASSERT_TRUE(queue.pop().has_value());
    EXPECT_TRUE(queue.congested()) << "still latched between the watermarks";
    ASSERT_TRUE(queue.pop().has_value());
    EXPECT_FALSE(queue.congested()) << "released at the low watermark";
    queue.push(Envelope<int>::data(4, 0));
    EXPECT_FALSE(queue.congested()) << "stays released until high is reached again";
}

TEST(OrderedQueueOverload, WatermarksDisabledMeansNeverCongested)
{
    OrderedQueue<int> queue{2};
    queue.push(Envelope<int>::data(0, 0));
    queue.push(Envelope<int>::data(1, 0));
    EXPECT_FALSE(queue.congested());
}

TEST(OrderedQueueOverload, ShedOldestTombstonesOldestDataFirst)
{
    OrderedQueue<int> queue{8};
    for (std::uint64_t seq = 0; seq < 4; ++seq)
        queue.push(Envelope<int>::data(seq, static_cast<int>(seq) + 10));
    EXPECT_EQ(queue.shed_oldest(2), 2u);
    EXPECT_EQ(queue.buffered(), 4u) << "shedding keeps the stream contiguous";

    // The two oldest frames come out as tombstones, the rest intact.
    for (std::uint64_t seq = 0; seq < 4; ++seq) {
        const auto envelope = queue.pop();
        ASSERT_TRUE(envelope.has_value());
        EXPECT_EQ(envelope->seq, seq);
        EXPECT_EQ(envelope->dropped, seq < 2) << "seq " << seq;
        if (seq >= 2) {
            EXPECT_EQ(envelope->payload, static_cast<int>(seq) + 10);
        }
    }
}

TEST(OrderedQueueOverload, ShedOldestSkipsTombstonesAndEndOfStream)
{
    OrderedQueue<int> queue{8};
    queue.push(Envelope<int>::tombstone(0));
    queue.push(Envelope<int>::data(1, 11));
    queue.push(Envelope<int>::end_of_stream(2));
    EXPECT_EQ(queue.shed_oldest(10), 1u) << "only the data frame is sheddable";
    EXPECT_EQ(queue.shed_oldest(10), 0u) << "idempotent until new data arrives";
    const auto first = queue.pop();
    ASSERT_TRUE(first.has_value());
    EXPECT_TRUE(first->dropped);
    const auto second = queue.pop();
    ASSERT_TRUE(second.has_value());
    EXPECT_TRUE(second->dropped);
    EXPECT_FALSE(second->end);
}

// -- brownout controller --------------------------------------------------

TEST(Brownout, PatienceGatesEntryAndExit)
{
    BrownoutController controller{BrownoutPolicy{0.75, 0.50, 3, 2}};
    EXPECT_FALSE(controller.feed(0.9));
    EXPECT_FALSE(controller.feed(0.9));
    EXPECT_FALSE(controller.feed(0.6)) << "a dip resets the entry streak";
    EXPECT_FALSE(controller.feed(0.9));
    EXPECT_FALSE(controller.feed(0.9));
    EXPECT_TRUE(controller.feed(0.9)) << "third consecutive high sample enters";
    EXPECT_EQ(controller.entries(), 1u);

    EXPECT_TRUE(controller.feed(0.4));
    EXPECT_TRUE(controller.feed(0.7)) << "a spike resets the exit streak";
    EXPECT_TRUE(controller.feed(0.4));
    EXPECT_FALSE(controller.feed(0.4)) << "second consecutive low sample exits";
    EXPECT_EQ(controller.entries(), 1u);
}

TEST(Brownout, MidBandSamplesResetBothStreaks)
{
    // 0.6 is neither >= enter (0.75) nor <= exit (0.5): it must not count
    // toward either transition.
    BrownoutController controller{BrownoutPolicy{0.75, 0.50, 2, 2}};
    EXPECT_FALSE(controller.feed(0.8));
    EXPECT_FALSE(controller.feed(0.6));
    EXPECT_FALSE(controller.feed(0.8));
    EXPECT_TRUE(controller.feed(0.8));
    EXPECT_TRUE(controller.feed(0.4));
    EXPECT_TRUE(controller.feed(0.6));
    EXPECT_TRUE(controller.feed(0.4));
    EXPECT_FALSE(controller.feed(0.4));
}

TEST(Brownout, IsAPureFunctionOfTheSampleSequence)
{
    const std::vector<double> samples = {0.1, 0.9, 0.8, 0.95, 0.7, 0.3, 0.2,
                                         0.1, 0.85, 0.9, 0.9, 0.4, 0.4, 0.4};
    std::vector<bool> first;
    std::vector<bool> second;
    BrownoutController a{BrownoutPolicy{0.8, 0.5, 2, 3}};
    BrownoutController b{BrownoutPolicy{0.8, 0.5, 2, 3}};
    for (const double sample : samples)
        first.push_back(a.feed(sample));
    for (const double sample : samples)
        second.push_back(b.feed(sample));
    EXPECT_EQ(first, second);
    EXPECT_EQ(a.entries(), b.entries());
}

TEST(Brownout, DegenerateConfigIsClampedNotUB)
{
    // exit above enter would oscillate; non-positive patience would enter
    // on the first sample of noise.
    BrownoutController controller{BrownoutPolicy{0.5, 0.9, 0, -3}};
    EXPECT_EQ(controller.policy().exit_pressure, controller.policy().enter_pressure);
    EXPECT_TRUE(controller.feed(0.6)) << "patience clamps to 1";
    EXPECT_FALSE(controller.feed(0.2));
}

// -- pipeline integration -------------------------------------------------

struct Frame {
    std::uint64_t seq = 0;
    int value = 0;
};

// A fast producer feeding a deliberately slow consumer: the inter-stage
// queue saturates, the monitor browns out and sheds. Assertions are
// timing-tolerant (shedding must happen and must be fully accounted for;
// the exact count is machine-dependent).
TEST(PipelineOverload, ShedsFramesUnderSustainedBackpressureAndCountsEveryOne)
{
    TaskSequence<Frame> seq;
    seq.push_back(make_task<Frame>("produce", false, [](Frame& f) { f.value = 1; }));
    seq.push_back(make_task<Frame>("consume", true, [](Frame&) {
        std::this_thread::sleep_for(std::chrono::milliseconds{2});
    }));
    const Solution solution{{Stage{1, 1, 1, CoreType::big}, Stage{2, 2, 1, CoreType::big}}};

    amp::obs::Sink sink{amp::obs::SinkConfig{true, false, 1, 8}};
    PipelineConfig config;
    config.queue_capacity = 4;
    config.sink = &sink;
    config.overload.enabled = true;
    config.overload.brownout = BrownoutPolicy{0.5, 0.25, 1, 1};
    config.overload.shed_batch = 2;
    config.overload.poll = std::chrono::milliseconds{1};

    constexpr std::uint64_t kFrames = 120;
    Pipeline<Frame> pipeline{seq, solution, config};
    std::uint64_t delivered = 0;
    const RunResult result = pipeline.run(kFrames, [&](Frame&) { ++delivered; });

    EXPECT_EQ(result.frames, delivered);
    EXPECT_EQ(result.frames + result.frames_dropped, kFrames)
        << "every stream position is delivered or tombstoned, never lost";
    EXPECT_GT(result.frames_shed, 0u) << "sustained 2ms/frame backpressure must shed";
    EXPECT_LE(result.frames_shed, result.frames_dropped)
        << "shed frames are a subset of dropped frames";
    EXPECT_GE(result.brownout_entries, 1u);

    // Zero silent drops: the obs counters agree exactly with the result.
    EXPECT_EQ(sink.metrics().counter(amp::obs::schema::kFramesShed).value(),
              result.frames_shed);
    EXPECT_EQ(sink.metrics().counter(amp::obs::schema::kBrownoutEntries).value(),
              result.brownout_entries);
    EXPECT_EQ(sink.metrics().counter(amp::obs::schema::kFramesDropped).value(),
              result.frames_dropped);
}

// run_with_recovery merges per-run RunResults into RecoveryReport::total;
// the shed/brownout tallies must survive that merge, or sheds that the obs
// counters record would vanish from the report (a silent-drop in the
// accounting itself).
TEST(PipelineOverload, RecoveryReportMergesShedAccounting)
{
    using amp::core::Resources;
    using amp::core::TaskChain;
    using amp::core::TaskDesc;

    // Two stateful tasks force a two-stage cut, so there is an inter-stage
    // queue to congest; the slow consumer stage sheds under backpressure.
    std::vector<TaskDesc> descs;
    descs.push_back(TaskDesc{"produce", 100.0, 120.0, false});
    descs.push_back(TaskDesc{"consume", 100.0, 120.0, false});
    const TaskChain chain{std::move(descs)};
    Rescheduler rescheduler{chain, Resources{2, 0}};

    TaskSequence<Frame> seq;
    seq.push_back(make_task<Frame>("produce", true, [](Frame& f) { f.value = 1; }));
    seq.push_back(make_task<Frame>("consume", true, [](Frame&) {
        std::this_thread::sleep_for(std::chrono::milliseconds{2});
    }));

    amp::obs::Sink sink{amp::obs::SinkConfig{true, false, 1, 8}};
    PipelineConfig config;
    config.queue_capacity = 4;
    config.sink = &sink;
    config.overload.enabled = true;
    config.overload.brownout = BrownoutPolicy{0.5, 0.25, 1, 1};
    config.overload.poll = std::chrono::milliseconds{1};

    constexpr std::uint64_t kFrames = 120;
    const RecoveryReport report =
        run_with_recovery<Frame>(seq, rescheduler, kFrames, config, {});

    EXPECT_TRUE(report.completed);
    EXPECT_EQ(report.total.frames + report.total.frames_dropped, kFrames);
    EXPECT_GT(report.total.frames_shed, 0u);
    EXPECT_EQ(report.total.frames_shed,
              sink.metrics().counter(amp::obs::schema::kFramesShed).value());
    EXPECT_EQ(report.total.brownout_entries,
              sink.metrics().counter(amp::obs::schema::kBrownoutEntries).value());
}

TEST(PipelineOverload, DisabledPolicyNeverSheds)
{
    TaskSequence<Frame> seq;
    seq.push_back(make_task<Frame>("produce", false, [](Frame& f) { f.value = 1; }));
    seq.push_back(make_task<Frame>("consume", true, [](Frame&) {
        std::this_thread::sleep_for(std::chrono::microseconds{200});
    }));
    const Solution solution{{Stage{1, 1, 1, CoreType::big}, Stage{2, 2, 1, CoreType::big}}};
    PipelineConfig config;
    config.queue_capacity = 4;

    Pipeline<Frame> pipeline{seq, solution, config};
    const RunResult result = pipeline.run(60, [](Frame&) {});
    EXPECT_EQ(result.frames, 60u);
    EXPECT_EQ(result.frames_shed, 0u);
    EXPECT_EQ(result.frames_dropped, 0u);
    EXPECT_EQ(result.brownout_entries, 0u);
}

} // namespace
