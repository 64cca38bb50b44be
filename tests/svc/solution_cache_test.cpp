#include "svc/solution_cache.hpp"

#include "test_support.hpp"

#include <gtest/gtest.h>

namespace {

using namespace amp;
using amp::testing::make_chain;

core::ScheduleRequest request_for(const core::TaskChain& chain, core::Resources resources,
                                  core::Strategy strategy)
{
    return core::ScheduleRequest{chain, resources, strategy};
}

TEST(CacheKey, DistinguishesEveryRequestField)
{
    const auto chain_a = make_chain({{10, 20, true}, {5, 9, false}});
    const auto chain_b = make_chain({{10, 21, true}, {5, 9, false}});

    const svc::CacheKey base = svc::key_of(request_for(chain_a, {2, 2}, core::Strategy::herad));
    EXPECT_EQ(base, svc::key_of(request_for(chain_a, {2, 2}, core::Strategy::herad)));
    EXPECT_NE(base, svc::key_of(request_for(chain_b, {2, 2}, core::Strategy::herad)));
    EXPECT_NE(base, svc::key_of(request_for(chain_a, {2, 3}, core::Strategy::herad)));
    EXPECT_NE(base, svc::key_of(request_for(chain_a, {3, 2}, core::Strategy::herad)));
    EXPECT_NE(base, svc::key_of(request_for(chain_a, {2, 2}, core::Strategy::fertac)));

    core::ScheduleRequest no_merge = request_for(chain_a, {2, 2}, core::Strategy::herad);
    no_merge.options.merge_stages = false;
    EXPECT_NE(base, svc::key_of(no_merge));

    core::ScheduleRequest energy = request_for(chain_a, {2, 2}, core::Strategy::herad);
    energy.options.objective = core::Objective::min_energy_under_period;
    energy.options.target_period = 25.0;
    EXPECT_NE(base, svc::key_of(energy));
    core::ScheduleRequest other_target = energy;
    other_target.options.target_period = 26.0;
    EXPECT_NE(svc::key_of(energy), svc::key_of(other_target));
    core::ScheduleRequest other_power = energy;
    other_power.options.power.little_watts = 0.5;
    EXPECT_NE(svc::key_of(energy), svc::key_of(other_power));
}

TEST(CacheKey, ChainIdentityIsBothDigestsPlusTaskCount)
{
    // A primary-fingerprint collision alone must not make two keys equal:
    // the key also carries the independent second digest and the task
    // count, so a silent wrong-chain hit needs all three to coincide.
    const auto chain = make_chain({{10, 20, true}, {5, 9, false}});
    const svc::CacheKey base = svc::key_of(request_for(chain, {2, 2}, core::Strategy::herad));
    EXPECT_EQ(base.chain_fingerprint, chain.fingerprint());
    EXPECT_EQ(base.chain_fingerprint2, chain.fingerprint2());
    EXPECT_EQ(base.chain_tasks, chain.size());

    svc::CacheKey fp2_collision = base;
    fp2_collision.chain_fingerprint2 ^= 1;
    EXPECT_NE(base, fp2_collision);

    svc::CacheKey count_collision = base;
    count_collision.chain_tasks += 1;
    EXPECT_NE(base, count_collision);
}

TEST(CacheKey, OptionBitsCoverEveryOption)
{
    core::ScheduleOptions options;
    const auto bits = [](core::ScheduleOptions o) { return o.key_bits(); };
    const std::uint16_t base = bits(options);
    options.merge_stages = false;
    EXPECT_NE(bits(options), base);
    options = {};
    options.prune = false;
    EXPECT_NE(bits(options), base);
    options = {};
    options.preference = core::FertacPreference::big_first;
    EXPECT_NE(bits(options), base);
    options = {};
    options.objective = core::Objective::min_energy_under_period;
    EXPECT_NE(bits(options), base);
}

TEST(SolutionCache, GetReturnsPutResultWithHitFlag)
{
    svc::SolutionCache cache{8, 2};
    const auto chain = make_chain({{10, 20, true}, {5, 9, false}});
    const auto request = request_for(chain, {2, 2}, core::Strategy::herad);
    const svc::CacheKey key = svc::key_of(request);

    EXPECT_FALSE(cache.get(key).has_value());
    const core::ScheduleResult solved = core::schedule(request);
    cache.put(key, solved);

    const auto cached = cache.get(key);
    ASSERT_TRUE(cached.has_value());
    EXPECT_TRUE(cached->result.cache_hit);
    EXPECT_EQ(cached->result.solution, solved.solution);
    EXPECT_EQ(cached->result.error, solved.error);

    const svc::CacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(SolutionCache, EvictsLeastRecentlyUsedWithinShard)
{
    // One shard so the LRU order is global and observable.
    svc::SolutionCache cache{2, 1};
    const auto chain = make_chain({{10, 20, true}});
    const auto key_for = [&](int big) {
        return svc::key_of(request_for(chain, {big, 1}, core::Strategy::fertac));
    };
    const core::ScheduleResult result =
        core::schedule(request_for(chain, {1, 1}, core::Strategy::fertac));

    cache.put(key_for(1), result);
    cache.put(key_for(2), result);
    ASSERT_TRUE(cache.get(key_for(1)).has_value()); // 1 becomes most recent
    cache.put(key_for(3), result);                  // evicts 2

    EXPECT_TRUE(cache.get(key_for(1)).has_value());
    EXPECT_FALSE(cache.get(key_for(2)).has_value());
    EXPECT_TRUE(cache.get(key_for(3)).has_value());
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(SolutionCache, ShardCountClampedToCapacity)
{
    // capacity < shards: without clamping, 16 one-entry shards could hold
    // 16 entries, four times the configured budget.
    svc::SolutionCache cache{4, 16};
    const auto chain = make_chain({{10, 20, true}});
    const core::ScheduleResult result =
        core::schedule(request_for(chain, {1, 1}, core::Strategy::fertac));
    for (int big = 1; big <= 32; ++big)
        cache.put(svc::key_of(request_for(chain, {big, 1}, core::Strategy::fertac)), result);
    EXPECT_LE(cache.stats().entries, 4u);
    EXPECT_GT(cache.stats().entries, 0u);
}

TEST(SolutionCache, ZeroCapacityDisablesCaching)
{
    svc::SolutionCache cache{0, 4};
    EXPECT_FALSE(cache.enabled());
    const auto chain = make_chain({{10, 20, true}});
    const auto request = request_for(chain, {1, 1}, core::Strategy::herad);
    cache.put(svc::key_of(request), core::schedule(request));
    EXPECT_FALSE(cache.get(svc::key_of(request)).has_value());
    EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(SolutionCache, ClearEmptiesEveryShard)
{
    svc::SolutionCache cache{16, 4};
    const auto chain = make_chain({{10, 20, true}});
    const core::ScheduleResult result =
        core::schedule(request_for(chain, {1, 1}, core::Strategy::fertac));
    for (int big = 1; big <= 8; ++big)
        cache.put(svc::key_of(request_for(chain, {big, 1}, core::Strategy::fertac)), result);
    EXPECT_GT(cache.stats().entries, 0u);
    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_FALSE(
        cache.get(svc::key_of(request_for(chain, {1, 1}, core::Strategy::fertac))).has_value());
}

} // namespace
