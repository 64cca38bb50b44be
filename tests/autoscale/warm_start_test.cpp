// Warm-start equivalence sweep (ISSUE 8, satellite 4): the incremental
// HeRAD fast path must be BIT-identical to a cold solve -- same period, same
// stage list, same tie-breaks -- for random chains under every resize delta,
// and the WarmStart hint must be a pure accelerator for every strategy (it
// never changes what any of the five computes, only how fast HeRAD does).

#include "core/herad.hpp"
#include "core/scheduler.hpp"
#include "sim/generator.hpp"
#include "svc/solver_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

namespace {

using namespace amp::core;
namespace sim = amp::sim;
namespace svc = amp::svc;

constexpr Strategy kAllStrategies[] = {Strategy::herad, Strategy::twocatac, Strategy::fertac,
                                       Strategy::otac_big, Strategy::otac_little};

TaskChain random_chain(int n, std::uint64_t seed)
{
    sim::GeneratorConfig config;
    config.num_tasks = n;
    amp::Rng rng{seed};
    return sim::generate_chain(config, rng);
}

/// Cold reference at `target` vs warm re-solve from a frontier computed at
/// `base`, for one chain and option set. Returns the warm result for
/// further chaining.
ScheduleResult expect_warm_equals_cold(const TaskChain& chain, Resources base, Resources target,
                                       ScheduleOptions options = {})
{
    ScheduleRequest seed_request{chain, base, Strategy::herad, options};
    seed_request.warm.keep_frontier = true;
    const ScheduleResult seeded = schedule(seed_request);
    EXPECT_TRUE(seeded.ok());
    EXPECT_NE(seeded.frontier, nullptr) << "keep_frontier must retain a frontier";
    EXPECT_FALSE(seeded.warm_start) << "nothing to reuse on the first solve";

    ScheduleRequest warm_request{chain, target, Strategy::herad, options};
    warm_request.warm.frontier = seeded.frontier;
    const ScheduleResult warm = schedule(warm_request);

    const ScheduleResult cold = schedule(ScheduleRequest{chain, target, Strategy::herad, options});
    EXPECT_EQ(warm.error, cold.error);
    EXPECT_EQ(warm.solution, cold.solution)
        << "warm re-solve " << base.big << "/" << base.little << " -> " << target.big << "/"
        << target.little << " diverged from the cold solve";
    if (warm.ok()) {
        EXPECT_TRUE(warm.warm_start) << "a matching frontier must take the incremental path";
        EXPECT_NE(warm.frontier, nullptr);
    }
    return warm;
}

TEST(WarmStart, ResizeSweepIsBitIdenticalToCold)
{
    // Random chains x both axes x grow and shrink deltas, including the
    // corners (to/from one core) and diagonal moves.
    const int sizes[] = {4, 9, 16, 24};
    const Resources bases[] = {{2, 2}, {3, 1}, {1, 4}, {4, 4}};
    std::uint64_t seed = 1;
    for (const int n : sizes) {
        const TaskChain chain = random_chain(n, 0xA5CA1E + seed++);
        for (const Resources base : bases) {
            for (const int db : {-2, -1, 0, 1, 2}) {
                for (const int dl : {-2, -1, 0, 1, 2}) {
                    const Resources target{base.big + db, base.little + dl};
                    if (target.big < 0 || target.little < 0 || target.total() < 1)
                        continue;
                    expect_warm_equals_cold(chain, base, target);
                }
            }
        }
    }
}

TEST(WarmStart, SweepHoldsUnderEveryHeradOptionSet)
{
    const TaskChain chain = random_chain(12, 0xBEE);
    for (const bool prune : {false, true}) {
        for (const bool merge : {false, true}) {
            ScheduleOptions options;
            options.prune = prune;
            options.merge_stages = merge;
            expect_warm_equals_cold(chain, {2, 3}, {3, 4}, options);
            expect_warm_equals_cold(chain, {3, 4}, {1, 2}, options);
        }
    }
}

TEST(WarmStart, FrontierChainsAcrossManyResizeSteps)
{
    // A control loop holds ONE frontier and threads it through every
    // re-solve; each step must stay cold-identical and keep upgrading the
    // frontier (growing it on extension, never invalidating it on shrink).
    const TaskChain chain = random_chain(10, 0xC0FFEE);
    const Resources walk[] = {{2, 2}, {2, 3}, {3, 3}, {2, 2}, {1, 1}, {4, 5}, {4, 4}};

    ScheduleRequest request{chain, walk[0], Strategy::herad};
    request.warm.keep_frontier = true;
    ScheduleResult held = schedule(request);
    ASSERT_TRUE(held.ok());
    ASSERT_NE(held.frontier, nullptr);

    for (std::size_t i = 1; i < std::size(walk); ++i) {
        ScheduleRequest step{chain, walk[i], Strategy::herad};
        step.warm.frontier = held.frontier;
        const ScheduleResult warm = schedule(step);
        const Solution cold = schedule(Strategy::herad, chain, walk[i]);
        ASSERT_TRUE(warm.ok());
        EXPECT_TRUE(warm.warm_start) << "step " << i;
        EXPECT_EQ(warm.solution, cold) << "step " << i;
        ASSERT_NE(warm.frontier, nullptr) << "step " << i;
        held = warm;
    }
}

TEST(WarmStart, HintIsIgnoredTransparentlyByEveryStrategy)
{
    // The hint is an accelerator, never an input: with or without it, every
    // strategy returns the same solution. Non-HeRAD strategies carry no
    // frontier and never report warm_start.
    const TaskChain chain = random_chain(8, 0xD1CE);
    const Resources base{2, 2};
    const Resources target{2, 3};

    ScheduleRequest seed_request{chain, base, Strategy::herad};
    seed_request.warm.keep_frontier = true;
    const auto frontier = schedule(seed_request).frontier;
    ASSERT_NE(frontier, nullptr);

    for (const Strategy strategy : kAllStrategies) {
        ScheduleRequest hinted{chain, target, strategy};
        hinted.warm.frontier = frontier;
        const ScheduleResult with_hint = schedule(hinted);
        const ScheduleResult without = schedule(ScheduleRequest{chain, target, strategy});
        EXPECT_EQ(with_hint.solution, without.solution) << to_key(strategy);
        if (strategy != Strategy::herad) {
            EXPECT_EQ(with_hint.frontier, nullptr) << to_key(strategy);
            EXPECT_FALSE(with_hint.warm_start) << to_key(strategy);
        }
    }
}

TEST(WarmStart, MismatchedFrontierFallsBackToColdWithFreshFrontier)
{
    const TaskChain chain_a = random_chain(8, 1);
    const TaskChain chain_b = random_chain(8, 2);

    ScheduleRequest seed_request{chain_a, {2, 2}, Strategy::herad};
    seed_request.warm.keep_frontier = true;
    const auto stale = schedule(seed_request).frontier;
    ASSERT_NE(stale, nullptr);
    EXPECT_TRUE(stale->matches(chain_a, {}));
    EXPECT_FALSE(stale->matches(chain_b, {}));

    // Different chain: cold fallback, same answer as an unhinted solve,
    // and a FRESH frontier so the loop re-arms for the new chain.
    ScheduleRequest hinted{chain_b, {2, 3}, Strategy::herad};
    hinted.warm.frontier = stale;
    const ScheduleResult fallback = schedule(hinted);
    ASSERT_TRUE(fallback.ok());
    EXPECT_FALSE(fallback.warm_start);
    EXPECT_EQ(fallback.solution, schedule(Strategy::herad, chain_b, {2, 3}));
    ASSERT_NE(fallback.frontier, nullptr);
    EXPECT_TRUE(fallback.frontier->matches(chain_b, {}));

    // Different HeRAD options (the frontier matches on prune, so the
    // matrices are not interchangeable): also a cold fallback.
    ScheduleOptions unpruned;
    unpruned.prune = false;
    ScheduleRequest options_mismatch{chain_a, {2, 3}, Strategy::herad, unpruned};
    options_mismatch.warm.frontier = stale;
    const ScheduleResult refit = schedule(options_mismatch);
    ASSERT_TRUE(refit.ok());
    EXPECT_FALSE(refit.warm_start);
    EXPECT_EQ(refit.solution,
              schedule(ScheduleRequest{chain_a, {2, 3}, Strategy::herad, unpruned}).solution);
}

TEST(WarmStart, DetailWarmSolveRejectsAMismatchedBaseLoudly)
{
    // schedule() falls back silently; the detail API (which skips the
    // applicability check by contract) must refuse instead of extending a
    // foreign matrix.
    const TaskChain chain_a = random_chain(6, 3);
    const TaskChain chain_b = random_chain(6, 4);
    const WarmSolveResult seeded = detail::herad_with_frontier(chain_a, {2, 2});
    ASSERT_NE(seeded.frontier, nullptr);
    EXPECT_THROW((void)detail::herad_warm(chain_b, {2, 3}, seeded.frontier),
                 std::invalid_argument);
}

TEST(WarmStart, FrontierReportsItsComputedBox)
{
    const TaskChain chain = random_chain(6, 5);
    const WarmSolveResult seeded = detail::herad_with_frontier(chain, {2, 3});
    ASSERT_NE(seeded.frontier, nullptr);
    EXPECT_EQ(seeded.frontier->tasks(), chain.size());
    EXPECT_EQ(seeded.frontier->computed(), (Resources{2, 3}));
    EXPECT_GT(seeded.frontier->bytes(), 0u);

    // A grow extends the computed box; a shrink keeps the wider one.
    const WarmSolveResult grown = detail::herad_warm(chain, {4, 3}, seeded.frontier);
    EXPECT_TRUE(grown.incremental);
    ASSERT_NE(grown.frontier, nullptr);
    EXPECT_EQ(grown.frontier->computed(), (Resources{4, 3}));
    const WarmSolveResult shrunk = detail::herad_warm(chain, {1, 1}, grown.frontier);
    EXPECT_TRUE(shrunk.incremental);
    ASSERT_NE(shrunk.frontier, nullptr);
    EXPECT_EQ(shrunk.frontier->computed(), (Resources{4, 3}))
        << "backwalk extraction reuses the wider matrix as-is";
}

TEST(WarmStart, ServiceStripsFrontiersFromCachedCopies)
{
    // The svc cache stores solutions, never DP matrices: the first solve
    // (with an engaged hint) returns a frontier, the cache hit for the same
    // key returns none -- callers keep the frontier they already hold.
    svc::SolverService service{svc::ServiceConfig{}}; // workers = 0: inline solves
    const TaskChain chain = random_chain(8, 6);

    ScheduleRequest request{chain, {2, 2}, Strategy::herad};
    request.warm.keep_frontier = true;
    const ScheduleResult first = service.solve(request);
    ASSERT_TRUE(first.ok());
    EXPECT_FALSE(first.cache_hit);
    ASSERT_NE(first.frontier, nullptr);

    const ScheduleResult hit = service.solve(request);
    ASSERT_TRUE(hit.ok());
    EXPECT_TRUE(hit.cache_hit);
    EXPECT_EQ(hit.frontier, nullptr) << "cached copies are frontier-stripped";
    EXPECT_EQ(hit.solution, first.solution);

    // The hint is not part of the cache identity: an unhinted request for
    // the same chain/pool/options hits the same entry.
    const ScheduleResult unhinted = service.solve(ScheduleRequest{chain, {2, 2}, Strategy::herad});
    EXPECT_TRUE(unhinted.cache_hit);
    EXPECT_EQ(unhinted.solution, first.solution);

    // And the held frontier still warm-starts a resize through the service.
    ScheduleRequest resize{chain, {3, 2}, Strategy::herad};
    resize.warm.frontier = first.frontier;
    const ScheduleResult warm = service.solve(resize);
    ASSERT_TRUE(warm.ok());
    EXPECT_FALSE(warm.cache_hit);
    EXPECT_TRUE(warm.warm_start);
    EXPECT_EQ(warm.solution, schedule(Strategy::herad, chain, {3, 2}));
}

TEST(WarmStart, ErrorResultsCarryNoFrontier)
{
    const TaskChain chain = random_chain(6, 7);
    ScheduleRequest seed_request{chain, {2, 2}, Strategy::herad};
    seed_request.warm.keep_frontier = true;
    const auto frontier = schedule(seed_request).frontier;
    ASSERT_NE(frontier, nullptr);

    ScheduleRequest bad{chain, {0, 0}, Strategy::herad};
    bad.warm.frontier = frontier;
    const ScheduleResult failed = schedule(bad);
    EXPECT_FALSE(failed.ok());
    EXPECT_EQ(failed.frontier, nullptr);
    EXPECT_FALSE(failed.warm_start);
}

} // namespace
