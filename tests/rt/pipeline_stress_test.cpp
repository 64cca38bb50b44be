// Stress and throughput-behaviour tests of the pipeline runtime.

#include "rt/pipeline.hpp"

#include "rt/core_emulator.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace {

using namespace amp::rt;
using amp::core::CoreType;
using amp::core::Solution;
using amp::core::Stage;

struct Frame {
    std::uint64_t seq = 0;
    std::uint64_t checksum = 0;
};

TEST(PipelineStress, ManyFramesManyStages)
{
    TaskSequence<Frame> seq;
    for (int t = 1; t <= 8; ++t)
        seq.push_back(make_task<Frame>("t" + std::to_string(t), t % 3 == 0,
                                       [t](Frame& f) { f.checksum = f.checksum * 31 + t; }));
    const Solution solution{{
        Stage{1, 2, 2, CoreType::big},
        Stage{3, 3, 1, CoreType::big},
        Stage{4, 5, 3, CoreType::little},
        Stage{6, 6, 1, CoreType::big},
        Stage{7, 8, 2, CoreType::big},
    }};
    Pipeline<Frame> pipeline{seq, solution};
    std::uint64_t expected_checksum = 0;
    {
        Frame probe;
        for (int t = 1; t <= 8; ++t)
            probe.checksum = probe.checksum * 31 + t;
        expected_checksum = probe.checksum;
    }
    std::atomic<std::uint64_t> bad{0};
    const auto result = pipeline.run(5000, [&](Frame& f) {
        if (f.checksum != expected_checksum)
            bad.fetch_add(1);
    });
    EXPECT_EQ(result.frames, 5000u);
    EXPECT_EQ(bad.load(), 0u);
}

TEST(PipelineStress, ThroughputScalesWithReplication)
{
    // One heavy replicable task: 4 workers should be meaningfully faster
    // than 1 even on a single-core host? No -- on a single-core host they
    // cannot run in parallel. Instead verify via sleeping tasks, where
    // replication overlaps the waits regardless of core count.
    auto build = [] {
        TaskSequence<Frame> seq;
        seq.push_back(make_task<Frame>("sleepy", false, [](Frame&) {
            std::this_thread::sleep_for(std::chrono::milliseconds{2});
        }));
        return seq;
    };
    auto seq_solo = build();
    Pipeline<Frame> solo{seq_solo, Solution{{Stage{1, 1, 1, CoreType::big}}}};
    const auto solo_result = solo.run(60);

    auto seq_replicated = build();
    Pipeline<Frame> replicated{seq_replicated, Solution{{Stage{1, 1, 4, CoreType::big}}}};
    const auto replicated_result = replicated.run(60);

    EXPECT_GT(replicated_result.fps(), solo_result.fps() * 2.0)
        << "4 replicas should overlap the per-frame waits";
}

/// Forwards every after_task to a SlowdownEmulator and records the core
/// type, the task's own cost and the time spent inside the emulator.
class RecordingEmulator final : public CoreEmulator {
public:
    struct Call {
        CoreType type;
        std::chrono::nanoseconds elapsed;
        std::chrono::nanoseconds spent;
    };

    explicit RecordingEmulator(double factor)
        : inner_(factor)
    {
    }

    void after_task(int task_index, CoreType worker_type,
                    std::chrono::nanoseconds elapsed) override
    {
        const auto begin = std::chrono::steady_clock::now();
        inner_.after_task(task_index, worker_type, elapsed);
        const auto spent = std::chrono::steady_clock::now() - begin;
        std::lock_guard lock{mutex_};
        calls_.push_back(Call{worker_type, elapsed, spent});
    }

    std::vector<Call> take()
    {
        std::lock_guard lock{mutex_};
        return std::exchange(calls_, {});
    }

private:
    SlowdownEmulator inner_;
    std::mutex mutex_;
    std::vector<Call> calls_;
};

// The factor-4 emulator must spin a little worker for 3x each task's cost
// and leave a big worker alone. A spin to a deadline can only overrun, so
// the lower bound on the time spent holds under any host load.
TEST(PipelineStress, EmulatorSlowsLittleStages)
{
    auto build = [] {
        TaskSequence<Frame> seq;
        seq.push_back(make_task<Frame>("spin", false, [](Frame&) {
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::microseconds{300};
            while (std::chrono::steady_clock::now() < deadline) {
            }
        }));
        return seq;
    };
    RecordingEmulator emulator{4.0};
    PipelineConfig config;
    config.emulator = &emulator;

    auto seq_little = build();
    Pipeline<Frame> on_little{seq_little, Solution{{Stage{1, 1, 1, CoreType::little}}},
                              config};
    ASSERT_EQ(on_little.run(100).frames, 100u);
    const auto little_calls = emulator.take();
    ASSERT_EQ(little_calls.size(), 100u);
    for (const auto& call : little_calls) {
        EXPECT_EQ(call.type, CoreType::little);
        EXPECT_GE(call.spent, 3 * call.elapsed) << "factor-4 emulation spins 3x the task";
    }

    auto seq_big = build();
    Pipeline<Frame> on_big{seq_big, Solution{{Stage{1, 1, 1, CoreType::big}}}, config};
    ASSERT_EQ(on_big.run(100).frames, 100u);
    const auto big_calls = emulator.take();
    ASSERT_EQ(big_calls.size(), 100u);
    for (const auto& call : big_calls)
        EXPECT_EQ(call.type, CoreType::big);
}

TEST(PipelineStress, BackToBackRunsAccumulateState)
{
    TaskSequence<Frame> seq;
    auto counter = std::make_shared<std::uint64_t>(0);
    seq.push_back(make_task<Frame>("count", true, [counter](Frame&) { ++*counter; }));
    Pipeline<Frame> pipeline{seq, Solution{{Stage{1, 1, 1, CoreType::big}}}};
    (void)pipeline.run(10);
    (void)pipeline.run(15);
    EXPECT_EQ(*counter, 25u) << "stateful tasks persist across runs";
}

TEST(PipelineStress, ZeroFramesCompletesImmediately)
{
    TaskSequence<Frame> seq;
    seq.push_back(make_task<Frame>("noop", false, [](Frame&) {}));
    Pipeline<Frame> pipeline{seq, Solution{{Stage{1, 1, 2, CoreType::big}}}};
    const auto result = pipeline.run(0);
    EXPECT_EQ(result.frames, 0u);
}

} // namespace
