// Cache identity of energy-objective solves (docs/ENERGY.md): the widened
// 16-bit option encoding, the energy fingerprint field, key distinctness
// over the full option space, and bit-identical cached vs cold answers.

#include "svc/pareto.hpp"
#include "svc/solution_cache.hpp"
#include "svc/solver_service.hpp"

#include "test_support.hpp"

#include <gtest/gtest.h>

#include <set>
#include <type_traits>
#include <vector>

namespace {

using namespace amp;
using amp::testing::make_chain;

core::ScheduleOptions options_from_bits(unsigned bits)
{
    core::ScheduleOptions options;
    options.merge_stages = (bits & 1u) != 0;
    options.prune = (bits & 2u) != 0;
    options.preference = (bits & 4u) != 0 ? core::FertacPreference::big_first
                                          : core::FertacPreference::little_first;
    if ((bits & 8u) != 0) {
        options.objective = core::Objective::min_energy_under_period;
        options.target_period = 25.0;
    }
    return options;
}

TEST(EnergyCacheKey, DistinctAcrossEveryOptionCombination)
{
    // All 16 combinations of the four encoded options must produce 16
    // distinct cache keys -- the objective flag sits at bit 4, the one that
    // motivated widening key_bits() from uint8_t.
    const auto chain = make_chain({{10, 20, true}, {5, 9, false}});
    std::vector<svc::CacheKey> keys;
    std::set<std::uint16_t> bit_patterns;
    for (unsigned bits = 0; bits < 16; ++bits) {
        core::ScheduleRequest request{chain, {2, 2}, core::Strategy::herad,
                                      options_from_bits(bits)};
        keys.push_back(svc::key_of(request));
        bit_patterns.insert(request.options.key_bits());
    }
    for (std::size_t i = 0; i < keys.size(); ++i)
        for (std::size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_NE(keys[i], keys[j]) << "combinations " << i << " and " << j;
    EXPECT_EQ(bit_patterns.size(), 16u);
}

TEST(EnergyCacheKey, OptionEncodingIsSixteenBitsWide)
{
    // The encoding (and the CacheKey field carrying it) must be uint16_t:
    // assigning the full pattern through the key round-trips unclipped.
    static_assert(std::is_same_v<decltype(core::ScheduleOptions{}.key_bits()), std::uint16_t>);
    static_assert(std::is_same_v<decltype(svc::CacheKey{}.options), std::uint16_t>);
    svc::CacheKey key;
    key.options = 0x1ff; // would truncate to 0xff under the old uint8_t field
    EXPECT_EQ(key.options, 0x1ffu);
}

TEST(EnergyCacheKey, ContinuousObjectiveParametersSeparateEntries)
{
    const auto chain = make_chain({{10, 20, true}, {5, 9, false}});
    core::ScheduleRequest request{chain, {2, 2}, core::Strategy::herad};
    request.options.objective = core::Objective::min_energy_under_period;
    request.options.target_period = 25.0;
    const svc::CacheKey base = svc::key_of(request);
    EXPECT_NE(base.energy, 0u);

    core::ScheduleRequest other_target = request;
    other_target.options.target_period = 30.0;
    EXPECT_NE(base, svc::key_of(other_target));

    core::ScheduleRequest other_watts = request;
    other_watts.options.power.big_watts = 5.0;
    EXPECT_NE(base, svc::key_of(other_watts));

    core::ScheduleRequest other_idle = request;
    other_idle.options.power.idle_watts = 0.7;
    EXPECT_NE(base, svc::key_of(other_idle));

    // min_period requests ignore the continuous parameters entirely: the
    // energy field stays 0 no matter what they hold, so sweep callers that
    // leave stale values in options never fragment the cache.
    core::ScheduleRequest min_period = request;
    min_period.options.objective = core::Objective::min_period;
    EXPECT_EQ(svc::key_of(min_period).energy, 0u);
    core::ScheduleRequest min_period_other = min_period;
    min_period_other.options.target_period = 99.0;
    min_period_other.options.power.big_watts = 9.0;
    EXPECT_EQ(svc::key_of(min_period), svc::key_of(min_period_other));
}

TEST(EnergyCacheKey, EnergyWeightsChangeChainIdentity)
{
    core::TaskChain plain{{core::TaskDesc{"a", 10, 20, true},
                           core::TaskDesc{"b", 5, 9, false}}};
    core::TaskChain weighted{{core::TaskDesc{"a", 10, 20, true, 2.5},
                              core::TaskDesc{"b", 5, 9, false}}};
    const svc::CacheKey a =
        svc::key_of(core::ScheduleRequest{plain, {2, 2}, core::Strategy::herad});
    const svc::CacheKey b =
        svc::key_of(core::ScheduleRequest{weighted, {2, 2}, core::Strategy::herad});
    EXPECT_NE(a, b) << "energy weights change what an energy solve returns";
}

TEST(EnergyCache, CachedEnergySolveIsBitIdenticalToCold)
{
    svc::ServiceConfig config;
    config.workers = 2;
    svc::SolverService service{config};

    const auto chain = make_chain({{10, 20, false}, {8, 16, true}, {5, 9, false}});
    core::ScheduleRequest request{chain, {2, 2}, core::Strategy::herad};
    request.options.objective = core::Objective::min_energy_under_period;
    request.options.target_period = 30.0;

    const core::ScheduleResult cold = service.solve(request);
    ASSERT_TRUE(cold.ok());
    EXPECT_FALSE(cold.cache_hit);

    const core::ScheduleResult cached = service.solve(request);
    ASSERT_TRUE(cached.ok());
    EXPECT_TRUE(cached.cache_hit);
    EXPECT_EQ(cached.solution, cold.solution);

    // A re-solve after clearing the cache reproduces the same bits.
    service.clear_cache();
    const core::ScheduleResult recold = service.solve(request);
    ASSERT_TRUE(recold.ok());
    EXPECT_FALSE(recold.cache_hit);
    EXPECT_EQ(recold.solution, cold.solution);

    // The energy solve and the min-period solve of the same chain live in
    // different entries: neither lookup is answered with the other's result.
    core::ScheduleRequest min_period = request;
    min_period.options.objective = core::Objective::min_period;
    const core::ScheduleResult fastest = service.solve(min_period);
    ASSERT_TRUE(fastest.ok());
    EXPECT_FALSE(fastest.cache_hit);
}

TEST(EnergyPareto, SweepReturnsOnePointPerTargetAndCaches)
{
    svc::ServiceConfig config;
    config.workers = 2;
    svc::SolverService service{config};
    const auto chain = make_chain({{10, 20, false}, {8, 16, true}, {5, 9, false}});
    const core::PowerModel power{4.0, 1.0, 0.1};

    const core::Solution fastest =
        amp::testing::solve(core::Strategy::herad, chain, {2, 2});
    ASSERT_FALSE(fastest.empty());
    const double p_star = fastest.period(chain);
    const std::vector<double> targets{p_star * 0.5, p_star, p_star * 1.5, p_star * 2.0};

    const auto points =
        svc::energy_pareto_sweep(service, chain, {2, 2}, power, targets);
    ASSERT_EQ(points.size(), targets.size());
    EXPECT_FALSE(points[0].ok) << "half the optimal period is unreachable";
    for (std::size_t i = 1; i < points.size(); ++i) {
        EXPECT_TRUE(points[i].ok);
        EXPECT_LE(points[i].period, targets[i] * (1.0 + 1e-9));
        EXPECT_GT(points[i].energy_per_item, 0.0);
    }
    // Looser targets never cost more energy (the curve is monotone).
    for (std::size_t i = 2; i < points.size(); ++i)
        EXPECT_LE(points[i].energy_per_item, points[i - 1].energy_per_item + 1e-9);

    // A repeated sweep is answered from the cache, point for point.
    const auto again =
        svc::energy_pareto_sweep(service, chain, {2, 2}, power, targets);
    ASSERT_EQ(again.size(), points.size());
    for (std::size_t i = 0; i < again.size(); ++i) {
        EXPECT_TRUE(again[i].cache_hit) << "target " << targets[i];
        EXPECT_EQ(again[i].solution, points[i].solution);
    }
}

} // namespace
