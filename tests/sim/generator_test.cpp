#include "sim/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace {

using namespace amp::sim;
using amp::core::CoreType;

TEST(Generator, ProducesRequestedSize)
{
    amp::Rng rng{1};
    const auto chain = generate_chain({.num_tasks = 20}, rng);
    EXPECT_EQ(chain.size(), 20);
}

TEST(Generator, WeightsWithinBounds)
{
    amp::Rng rng{2};
    GeneratorConfig config;
    config.num_tasks = 200;
    const auto chain = generate_chain(config, rng);
    for (int i = 1; i <= chain.size(); ++i) {
        const double wb = chain.weight(i, CoreType::big);
        const double wl = chain.weight(i, CoreType::little);
        EXPECT_GE(wb, 1.0);
        EXPECT_LE(wb, 100.0);
        EXPECT_DOUBLE_EQ(wb, std::floor(wb)) << "big weights are integers";
        EXPECT_DOUBLE_EQ(wl, std::floor(wl)) << "little weights use ceiling rounding";
        EXPECT_GE(wl, wb) << "slowdown >= 1 means little is never faster";
        EXPECT_LE(wl, std::ceil(wb * 5.0));
    }
}

TEST(Generator, ExactStatelessRatio)
{
    amp::Rng rng{3};
    for (const double sr : {0.2, 0.5, 0.8}) {
        const auto chain = generate_chain({.num_tasks = 20, .stateless_ratio = sr}, rng);
        EXPECT_EQ(chain.replicable_count(), static_cast<int>(std::lround(sr * 20)));
    }
}

TEST(Generator, DeterministicForSeed)
{
    amp::Rng rng_a{7};
    amp::Rng rng_b{7};
    const auto a = generate_chain({}, rng_a);
    const auto b = generate_chain({}, rng_b);
    ASSERT_EQ(a.size(), b.size());
    for (int i = 1; i <= a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.weight(i, CoreType::big), b.weight(i, CoreType::big));
        EXPECT_DOUBLE_EQ(a.weight(i, CoreType::little), b.weight(i, CoreType::little));
        EXPECT_EQ(a.replicable(i), b.replicable(i));
    }
}

TEST(Generator, ReplicablePositionsVary)
{
    // The replicable subset must not always be a prefix: check that over
    // many chains every position is sometimes replicable.
    amp::Rng rng{11};
    std::vector<int> hits(20, 0);
    for (int c = 0; c < 200; ++c) {
        const auto chain = generate_chain({.num_tasks = 20, .stateless_ratio = 0.5}, rng);
        for (int i = 1; i <= 20; ++i)
            hits[static_cast<std::size_t>(i - 1)] += chain.replicable(i) ? 1 : 0;
    }
    for (const int h : hits) {
        EXPECT_GT(h, 50);
        EXPECT_LT(h, 150);
    }
}

// FNV-1a over the bytes of every task's w_big, w_little and flag: a
// digest local to this test, independent of TaskChain's own.
std::uint64_t draws_digest(const amp::core::TaskChain& chain)
{
    std::uint64_t hash = 14695981039346656037ull;
    const auto fold = [&](std::uint64_t value) {
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (value >> (8 * byte)) & 0xffull;
            hash *= 1099511628211ull;
        }
    };
    for (int i = 1; i <= chain.size(); ++i) {
        const auto& t = chain.task(i);
        fold(std::bit_cast<std::uint64_t>(t.w_big));
        fold(std::bit_cast<std::uint64_t>(t.w_little));
        fold(t.replicable ? 1u : 0u);
    }
    return hash;
}

// Every draw of these seeds is pinned, so a change to the generator or to
// the chain it builds keeps every experiment's chains, and through them
// every schedule and golden output, bit for bit.
TEST(Generator, PinnedDrawsMatchTheParent)
{
    struct Pin {
        std::uint64_t seed;
        WeightDistribution distribution;
        int tasks;
        std::uint64_t digest;
    };
    constexpr Pin kPins[] = {
        {1, WeightDistribution::uniform, 1, 0xdc19c3b71ef2233eull},
        {1, WeightDistribution::uniform, 20, 0xd93be02ddaabee02ull},
        {1, WeightDistribution::uniform, 64, 0x456fce4b5ed64b08ull},
        {1, WeightDistribution::bimodal, 1, 0xfd65ac6c588c5f08ull},
        {1, WeightDistribution::bimodal, 20, 0x40b814495ce5ac95ull},
        {1, WeightDistribution::bimodal, 64, 0x479eb66faf22cf22ull},
        {1, WeightDistribution::lognormal, 1, 0x629c835b6c9222a0ull},
        {1, WeightDistribution::lognormal, 20, 0x190c1d53b2ed479bull},
        {1, WeightDistribution::lognormal, 64, 0x09c7a902856aa3adull},
        {42, WeightDistribution::uniform, 1, 0x85d8e4c2abf78ea9ull},
        {42, WeightDistribution::uniform, 20, 0x00e079c60780df1aull},
        {42, WeightDistribution::uniform, 64, 0x358449bc6a697118ull},
        {42, WeightDistribution::bimodal, 1, 0xe1f61c6132e75c4full},
        {42, WeightDistribution::bimodal, 20, 0x192e0aa6734becd4ull},
        {42, WeightDistribution::bimodal, 64, 0x62c5443037ea420aull},
        {42, WeightDistribution::lognormal, 1, 0xd6ac53fc34736cb6ull},
        {42, WeightDistribution::lognormal, 20, 0x9b2b04371055b571ull},
        {42, WeightDistribution::lognormal, 64, 0xa3e0b5cd964693b7ull},
        {777, WeightDistribution::uniform, 1, 0xa9877715046affaaull},
        {777, WeightDistribution::uniform, 20, 0xf9529085699b4bebull},
        {777, WeightDistribution::uniform, 64, 0x7497d715c3af6384ull},
        {777, WeightDistribution::bimodal, 1, 0x56a9f7f99dc2d74bull},
        {777, WeightDistribution::bimodal, 20, 0x4f18fa6ee30e4ec6ull},
        {777, WeightDistribution::bimodal, 64, 0x39e58877179d74bbull},
        {777, WeightDistribution::lognormal, 1, 0xf777dab2a7a73faeull},
        {777, WeightDistribution::lognormal, 20, 0x1100ad85157f6c2cull},
        {777, WeightDistribution::lognormal, 64, 0xd8a8fbc6fe8746feull},
    };
    for (const Pin& pin : kPins) {
        SCOPED_TRACE("seed " + std::to_string(pin.seed) + ", distribution "
                     + std::to_string(static_cast<int>(pin.distribution)) + ", n "
                     + std::to_string(pin.tasks));
        amp::Rng rng{pin.seed};
        const auto chain =
            generate_chain({.num_tasks = pin.tasks, .distribution = pin.distribution}, rng);
        ASSERT_EQ(chain.size(), pin.tasks);
        for (int i = 1; i <= chain.size(); ++i)
            EXPECT_EQ(chain.task(i).name, "tau" + std::to_string(i));
        EXPECT_EQ(chain.replicable_count(), static_cast<int>(std::lround(0.5 * pin.tasks)));
        EXPECT_EQ(draws_digest(chain), pin.digest);
    }
}

TEST(Generator, RejectsBadConfig)
{
    amp::Rng rng{1};
    EXPECT_THROW((void)generate_chain({.num_tasks = 0}, rng), std::invalid_argument);
    EXPECT_THROW((void)generate_chain({.weight_min = 5, .weight_max = 4}, rng),
                 std::invalid_argument);
    EXPECT_THROW((void)generate_chain({.slowdown_min = 0.5}, rng), std::invalid_argument);
    EXPECT_THROW((void)generate_chain({.stateless_ratio = 1.5}, rng), std::invalid_argument);
}

} // namespace

namespace {

using namespace amp::sim;

TEST(Generator, BimodalProducesHeavyTail)
{
    amp::Rng rng{21};
    GeneratorConfig config;
    config.num_tasks = 400;
    config.distribution = WeightDistribution::bimodal;
    const auto chain = generate_chain(config, rng);
    int heavy = 0;
    for (int i = 1; i <= chain.size(); ++i)
        heavy += chain.weight(i, amp::core::CoreType::big) > 100.0 ? 1 : 0;
    EXPECT_GT(heavy, 20) << "roughly 15% of tasks should be 10x heavy";
    EXPECT_LT(heavy, 100);
}

TEST(Generator, LognormalStaysPositiveAndSkewed)
{
    amp::Rng rng{22};
    GeneratorConfig config;
    config.num_tasks = 400;
    config.distribution = WeightDistribution::lognormal;
    const auto chain = generate_chain(config, rng);
    double mean = 0.0;
    std::vector<double> weights;
    for (int i = 1; i <= chain.size(); ++i) {
        const double w = chain.weight(i, amp::core::CoreType::big);
        EXPECT_GE(w, 1.0);
        weights.push_back(w);
        mean += w;
    }
    mean /= chain.size();
    std::sort(weights.begin(), weights.end());
    const double median = weights[weights.size() / 2];
    EXPECT_GT(mean, median) << "right-skewed: mean above median";
}

TEST(Generator, DistributionsKeepSlowdownContract)
{
    amp::Rng rng{23};
    for (const auto distribution :
         {WeightDistribution::bimodal, WeightDistribution::lognormal}) {
        GeneratorConfig config;
        config.num_tasks = 100;
        config.distribution = distribution;
        const auto chain = generate_chain(config, rng);
        for (int i = 1; i <= chain.size(); ++i) {
            EXPECT_GE(chain.weight(i, amp::core::CoreType::little),
                      chain.weight(i, amp::core::CoreType::big));
        }
    }
}

} // namespace
