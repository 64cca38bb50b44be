#include "core/scheduler.hpp"

#include "test_support.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <string_view>

namespace {

using namespace amp::core;
using amp::testing::make_chain;

TEST(Scheduler, ParseStrategyAcceptsAliases)
{
    EXPECT_EQ(parse_strategy("herad"), Strategy::herad);
    EXPECT_EQ(parse_strategy("HeRAD"), Strategy::herad);
    EXPECT_EQ(parse_strategy("2catac"), Strategy::twocatac);
    EXPECT_EQ(parse_strategy("twocatac"), Strategy::twocatac);
    EXPECT_EQ(parse_strategy("fertac"), Strategy::fertac);
    EXPECT_EQ(parse_strategy("otac-b"), Strategy::otac_big);
    EXPECT_EQ(parse_strategy("otac-l"), Strategy::otac_little);
    EXPECT_THROW((void)parse_strategy("nonsense"), std::invalid_argument);
}

TEST(Scheduler, ToStringMatchesPaperNames)
{
    EXPECT_STREQ(to_string(Strategy::herad), "HeRAD");
    EXPECT_STREQ(to_string(Strategy::twocatac), "2CATAC");
    EXPECT_STREQ(to_string(Strategy::fertac), "FERTAC");
    EXPECT_STREQ(to_string(Strategy::otac_big), "OTAC (B)");
    EXPECT_STREQ(to_string(Strategy::otac_little), "OTAC (L)");
}

TEST(Scheduler, DispatchRunsEveryStrategy)
{
    const auto chain = make_chain({{10, 20, false}, {30, 60, true}, {5, 9, true}});
    for (const Strategy strategy : kAllStrategies) {
        const Solution sol = schedule(strategy, chain, {2, 2});
        ASSERT_FALSE(sol.empty()) << to_string(strategy);
        EXPECT_TRUE(sol.is_well_formed(chain)) << to_string(strategy);
    }
}

TEST(Scheduler, OtacVariantsIgnoreOtherCoreType)
{
    const auto chain = make_chain({{10, 20, true}, {10, 20, true}});
    const Solution big = schedule(Strategy::otac_big, chain, {2, 2});
    EXPECT_EQ(big.used(CoreType::little), 0);
    const Solution little = schedule(Strategy::otac_little, chain, {2, 2});
    EXPECT_EQ(little.used(CoreType::big), 0);
}

// Degenerate chains every strategy must handle.
class DegenerateChains : public ::testing::TestWithParam<Strategy> {};

TEST_P(DegenerateChains, SingleTask)
{
    const auto chain = make_chain({{10, 20, false}});
    const Solution sol = schedule(GetParam(), chain, {2, 2});
    ASSERT_FALSE(sol.empty());
    EXPECT_EQ(sol.stage_count(), 1u);
    EXPECT_TRUE(sol.is_well_formed(chain));
}

TEST_P(DegenerateChains, AllSequential)
{
    const auto chain = amp::testing::uniform_chain(6, 10.0, false);
    const Solution sol = schedule(GetParam(), chain, {3, 3});
    ASSERT_FALSE(sol.empty());
    EXPECT_TRUE(sol.is_well_formed(chain));
    for (const auto& stage : sol.stages())
        EXPECT_EQ(stage.cores, 1) << "sequential stages never replicate";
}

TEST_P(DegenerateChains, AllReplicable)
{
    const auto chain = amp::testing::uniform_chain(6, 10.0, true);
    const Solution sol = schedule(GetParam(), chain, {3, 3});
    ASSERT_FALSE(sol.empty());
    EXPECT_TRUE(sol.is_well_formed(chain));
}

TEST_P(DegenerateChains, ExtremeWeightSkew)
{
    const auto chain = make_chain({{1, 1, true}, {10000, 50000, true}, {1, 5, true}});
    const Solution sol = schedule(GetParam(), chain, {3, 3});
    ASSERT_FALSE(sol.empty());
    EXPECT_TRUE(sol.is_well_formed(chain));
}

TEST_P(DegenerateChains, SingleCoreTotal)
{
    const auto chain = make_chain({{5, 9, true}, {7, 14, false}});
    const Strategy strategy = GetParam();
    const Resources budget =
        strategy == Strategy::otac_little ? Resources{0, 1} : Resources{1, 0};
    const Solution sol = schedule(strategy, chain, budget);
    ASSERT_FALSE(sol.empty());
    EXPECT_EQ(sol.stage_count(), 1u) << "one core forces a single stage";
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, DegenerateChains,
                         ::testing::ValuesIn(kAllStrategies),
                         [](const ::testing::TestParamInfo<Strategy>& info) {
                             switch (info.param) {
                             case Strategy::herad: return "HeRAD";
                             case Strategy::twocatac: return "TwoCATAC";
                             case Strategy::fertac: return "FERTAC";
                             case Strategy::otac_big: return "OTACB";
                             case Strategy::otac_little: return "OTACL";
                             }
                             return "unknown";
                         });

TEST(Scheduler, ToKeyRoundTripsThroughParseStrategy)
{
    for (const Strategy strategy : kAllStrategies)
        EXPECT_EQ(parse_strategy(to_key(strategy)), strategy) << to_key(strategy);
}

TEST(Scheduler, ParseStrategyIsCaseAndSpaceInsensitive)
{
    // Both spelling families round-trip in any casing: to_key's machine
    // names and to_string's display names ("OTAC (B)" -- spaces ignored).
    for (const Strategy strategy : kAllStrategies) {
        std::string shouty = to_key(strategy);
        for (char& c : shouty)
            c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
        EXPECT_EQ(parse_strategy(shouty), strategy) << shouty;
        EXPECT_EQ(parse_strategy(to_string(strategy)), strategy) << to_string(strategy);
    }
    EXPECT_EQ(parse_strategy("  He RAD  "), Strategy::herad);
}

TEST(Scheduler, ParseStrategyThrowsTypedErrorCarryingTheInput)
{
    try {
        (void)parse_strategy("heradx");
        FAIL() << "expected StrategyParseError";
    } catch (const StrategyParseError& error) {
        EXPECT_EQ(error.name(), "heradx");
        EXPECT_NE(std::string_view{error.what()}.find("heradx"), std::string_view::npos);
    }
    // ...and stays an invalid_argument for pre-existing catch sites.
    EXPECT_THROW((void)parse_strategy(""), std::invalid_argument);
}

TEST(Scheduler, TryParseStrategyReturnsNulloptInsteadOfThrowing)
{
    EXPECT_EQ(try_parse_strategy("OtAc-L"), Strategy::otac_little);
    EXPECT_EQ(try_parse_strategy("nonsense"), std::nullopt);
    EXPECT_EQ(try_parse_strategy(""), std::nullopt);
    EXPECT_EQ(try_parse_strategy(std::string(1000, 'h')), std::nullopt)
        << "overlong names are unknown, not an allocation hazard";
}

TEST(Scheduler, RequestApiReportsInvalidRequests)
{
    const auto chain = make_chain({{10, 20, true}});
    EXPECT_EQ(schedule(ScheduleRequest{TaskChain{}, {2, 2}, Strategy::herad}).error,
              ScheduleError::invalid_request);
    EXPECT_EQ(schedule(ScheduleRequest{chain, {0, 0}, Strategy::herad}).error,
              ScheduleError::invalid_request);
    EXPECT_EQ(schedule(ScheduleRequest{chain, {-1, 2}, Strategy::herad}).error,
              ScheduleError::invalid_request);
    EXPECT_EQ(schedule(ScheduleRequest{chain, {0, 4}, Strategy::otac_big}).error,
              ScheduleError::invalid_request);
    EXPECT_EQ(schedule(ScheduleRequest{chain, {4, 0}, Strategy::otac_little}).error,
              ScheduleError::invalid_request);
    // Failed requests carry an empty solution.
    EXPECT_TRUE(schedule(ScheduleRequest{chain, {0, 0}, Strategy::herad}).solution.empty());
}

TEST(Scheduler, RequestApiTimesAndValidatesSuccessfulSolves)
{
    const auto chain = make_chain({{10, 20, false}, {30, 60, true}, {5, 9, true}});
    for (const Strategy strategy : kAllStrategies) {
        const ScheduleResult result = schedule(ScheduleRequest{chain, {2, 2}, strategy});
        ASSERT_TRUE(result.ok()) << to_key(strategy);
        EXPECT_FALSE(result.cache_hit) << "core::schedule never touches a cache";
        EXPECT_GT(result.solve_ns, 0u) << to_key(strategy);
        EXPECT_TRUE(result.solution.is_well_formed(chain)) << to_key(strategy);
    }
}

TEST(Scheduler, ConvenienceWrapperMatchesRequestApi)
{
    const auto chain = make_chain({{10, 20, false}, {30, 60, true}, {5, 9, true},
                                   {12, 25, true}, {4, 8, false}});
    for (const Strategy strategy : kAllStrategies) {
        const Solution via_wrapper = schedule(strategy, chain, {3, 2});
        const Solution via_request =
            schedule(ScheduleRequest{chain, {3, 2}, strategy}).solution;
        EXPECT_EQ(via_wrapper, via_request) << to_key(strategy);
    }
}

TEST(Scheduler, DefaultOptionsCompareEqual)
{
    EXPECT_EQ(ScheduleOptions{}, ScheduleOptions{});
    ScheduleOptions unpruned;
    unpruned.prune = false;
    EXPECT_NE(unpruned, ScheduleOptions{});
    EXPECT_NE(unpruned.key_bits(), ScheduleOptions{}.key_bits());
}

} // namespace
