// Tests of the extension features beyond the paper's core algorithms:
// FERTAC's big-first preference.

#include "core/fertac.hpp"
#include "sim/generator.hpp"
#include "test_support.hpp"

#include <gtest/gtest.h>

namespace {

using namespace amp::core;
using amp::testing::solve;

TEST(FertacBigFirst, PrefersBigCoresWhenTheySuffice)
{
    // Weights identical on both types: big-first grabs big cores where the
    // paper's little-first FERTAC grabs little ones.
    std::vector<TaskDesc> tasks;
    for (int i = 0; i < 4; ++i)
        tasks.push_back({"t" + std::to_string(i + 1), 10.0, 10.0, false});
    const TaskChain chain{std::move(tasks)};

    const Solution little_first = solve(Strategy::fertac, chain, {4, 4});
    const Solution big_first =
        solve(Strategy::fertac, chain, {4, 4}, {.preference = FertacPreference::big_first});
    ASSERT_FALSE(little_first.empty());
    ASSERT_FALSE(big_first.empty());
    EXPECT_EQ(little_first.used(CoreType::big), 0);
    EXPECT_EQ(big_first.used(CoreType::little), 0);
    EXPECT_DOUBLE_EQ(little_first.period(chain), big_first.period(chain));
}

TEST(FertacBigFirst, BothVariantsStayValidOnRandomChains)
{
    amp::Rng rng{0xb1f};
    amp::sim::GeneratorConfig config;
    config.num_tasks = 15;
    for (int trial = 0; trial < 30; ++trial) {
        const auto chain = amp::sim::generate_chain(config, rng);
        for (const auto preference :
             {FertacPreference::little_first, FertacPreference::big_first}) {
            const Solution sol = solve(Strategy::fertac, chain, {3, 3}, {.preference = preference});
            ASSERT_FALSE(sol.empty());
            ASSERT_TRUE(sol.is_well_formed(chain));
            ASSERT_LE(sol.used(CoreType::big), 3);
            ASSERT_LE(sol.used(CoreType::little), 3);
        }
    }
}

} // namespace
