// Randomized end-to-end property test of the runtime: for random chains and
// the schedules every strategy produces for them, pipelined execution must
// deliver exactly the sequential results, in order.

#include "core/scheduler.hpp"
#include "rt/pipeline.hpp"
#include "sim/generator.hpp"

#include <gtest/gtest.h>

namespace {

using namespace amp;

struct Frame {
    std::uint64_t seq = 0;
    std::uint64_t digest = 0;
};

/// Builds a runtime chain matching the scheduling chain's replicability:
/// each task folds its index and the frame seq into a digest.
rt::TaskSequence<Frame> runtime_twin(const core::TaskChain& chain)
{
    rt::TaskSequence<Frame> seq;
    for (int t = 1; t <= chain.size(); ++t) {
        seq.push_back(rt::make_task<Frame>(
            "t" + std::to_string(t), !chain.replicable(t),
            [t](Frame& f) { f.digest = f.digest * 1099511628211ULL + (f.seq ^ (t * 2654435761ULL)); }));
    }
    return seq;
}

std::vector<std::uint64_t> sequential_digests(const core::TaskChain& chain,
                                              std::uint64_t frames)
{
    auto twin = runtime_twin(chain);
    std::vector<std::uint64_t> digests(frames);
    for (std::uint64_t f = 0; f < frames; ++f) {
        Frame frame;
        frame.seq = f;
        for (int t = 1; t <= twin.size(); ++t)
            twin.task(t).process(frame);
        digests[f] = frame.digest;
    }
    return digests;
}

class PipelineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineFuzz, EveryStrategyScheduleExecutesFaithfully)
{
    Rng rng{GetParam()};
    sim::GeneratorConfig config;
    config.num_tasks = 10 + static_cast<int>(rng.uniform_int(0, 8));
    config.stateless_ratio = 0.2 + 0.6 * rng.uniform_real(0.0, 1.0);
    const auto chain = sim::generate_chain(config, rng);
    const core::Resources machine{2 + static_cast<int>(rng.uniform_int(0, 3)),
                                  2 + static_cast<int>(rng.uniform_int(0, 3))};

    constexpr std::uint64_t kFrames = 64;
    const auto expected = sequential_digests(chain, kFrames);

    for (const core::Strategy strategy : core::kAllStrategies) {
        const auto solution =
            core::schedule(core::ScheduleRequest{chain, machine, strategy}).solution;
        ASSERT_FALSE(solution.empty()) << core::to_string(strategy);
        auto twin = runtime_twin(chain);
        rt::PipelineConfig pipeline_config;
        pipeline_config.queue_capacity = 1 + static_cast<std::size_t>(rng.uniform_int(0, 4));
        rt::Pipeline<Frame> pipeline{twin, solution, pipeline_config};
        std::vector<std::uint64_t> actual;
        const auto result = pipeline.run(kFrames, [&](Frame& f) {
            actual.push_back(f.digest);
        });
        ASSERT_EQ(result.frames, kFrames) << core::to_string(strategy);
        ASSERT_EQ(actual, expected)
            << core::to_string(strategy) << " with " << solution.decomposition();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzz,
                         ::testing::Values(0x1111, 0x2222, 0x3333, 0x4444, 0x5555, 0x6666),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                             return "seed_" + std::to_string(info.param);
                         });

} // namespace
