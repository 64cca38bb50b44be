#include "svc/solver_service.hpp"

#include "sim/generator.hpp"
#include "test_support.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

namespace {

using namespace amp;
using amp::testing::make_chain;

std::vector<core::TaskChain> random_chains(int count, std::uint64_t seed)
{
    Rng rng{seed};
    sim::GeneratorConfig config;
    std::vector<core::TaskChain> chains;
    chains.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        config.num_tasks = 5 + i % 23;
        config.stateless_ratio = (i % 5) * 0.25;
        chains.push_back(sim::generate_chain(config, rng));
    }
    return chains;
}

TEST(SolverService, SolveMatchesCoreScheduleForEveryStrategy)
{
    svc::SolverService service{{.workers = 1}};
    for (const auto& chain : random_chains(8, 42)) {
        for (const core::Strategy strategy : core::kAllStrategies) {
            const core::ScheduleRequest request{chain, {3, 3}, strategy};
            const core::ScheduleResult via_service = service.solve(request);
            const core::ScheduleResult via_core = core::schedule(request);
            EXPECT_EQ(via_service.error, via_core.error) << core::to_key(strategy);
            EXPECT_EQ(via_service.solution, via_core.solution) << core::to_key(strategy);
        }
    }
}

// The cache must be invisible except for speed: a hit returns a solution
// bit-identical to a fresh solve, for every strategy over random chains.
TEST(SolverService, CacheHitsAreBitIdenticalToFreshSolves)
{
    svc::SolverService service{{.workers = 1}};
    for (const auto& chain : random_chains(12, 7)) {
        for (const core::Strategy strategy : core::kAllStrategies) {
            const core::ScheduleRequest request{chain, {4, 2}, strategy};
            const core::ScheduleResult cold = service.solve(request);
            EXPECT_FALSE(cold.cache_hit);
            const core::ScheduleResult warm = service.solve(request);
            EXPECT_TRUE(warm.cache_hit) << core::to_key(strategy);
            EXPECT_EQ(warm.solution, cold.solution) << core::to_key(strategy);
            EXPECT_EQ(warm.error, cold.error);
            EXPECT_EQ(warm.solution, core::schedule(request).solution);
        }
    }
    EXPECT_GT(service.cache_stats().hits, 0u);
}

TEST(SolverService, DistinctOptionsDoNotShareCacheEntries)
{
    svc::SolverService service{{.workers = 1}};
    const auto chain = make_chain({{10, 20, true}, {30, 60, true}, {5, 9, false}});
    core::ScheduleRequest unpruned{chain, {3, 3}, core::Strategy::herad};
    unpruned.options.prune = false;
    (void)service.solve(core::ScheduleRequest{chain, {3, 3}, core::Strategy::herad});
    const core::ScheduleResult result = service.solve(unpruned);
    EXPECT_FALSE(result.cache_hit) << "options must be part of the cache key";
}

TEST(SolverService, BatchResultsAlignWithRequests)
{
    svc::SolverService service{{.workers = 2, .cache_capacity = 0}};
    const auto chains = random_chains(10, 99);
    std::vector<core::ScheduleRequest> requests;
    for (const auto& chain : chains)
        for (const core::Strategy strategy : core::kAllStrategies)
            requests.push_back(core::ScheduleRequest{chain, {3, 3}, strategy});

    const auto results = service.solve_batch(requests);
    ASSERT_EQ(results.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const core::ScheduleResult expected = core::schedule(requests[i]);
        EXPECT_EQ(results[i].error, expected.error) << i;
        EXPECT_EQ(results[i].solution, expected.solution) << i;
    }
}

TEST(SolverService, BatchSecondPassIsFullyCached)
{
    svc::SolverService service{{.workers = 2}};
    std::vector<core::ScheduleRequest> requests;
    for (const auto& chain : random_chains(6, 3))
        for (const core::Strategy strategy : core::kAllStrategies)
            requests.push_back(core::ScheduleRequest{chain, {2, 2}, strategy});

    const auto cold = service.solve_batch(requests);
    const auto warm = service.solve_batch(requests);
    ASSERT_EQ(warm.size(), cold.size());
    for (std::size_t i = 0; i < warm.size(); ++i) {
        EXPECT_TRUE(warm[i].cache_hit) << i;
        EXPECT_EQ(warm[i].solution, cold[i].solution) << i;
    }
}

TEST(SolverService, ErrorsPropagateThroughTheService)
{
    svc::SolverService service{{.workers = 1}};
    const auto chain = make_chain({{10, 20, true}});
    const auto bad = service.solve(core::ScheduleRequest{chain, {0, 0}, core::Strategy::herad});
    EXPECT_EQ(bad.error, core::ScheduleError::invalid_request);
    EXPECT_TRUE(bad.solution.empty());

    const auto snapshot = service.metrics().snapshot();
    const auto it = snapshot.counters.find("amp_svc_solve_errors{strategy=\"herad\"}");
    ASSERT_NE(it, snapshot.counters.end());
    EXPECT_EQ(it->second, 1u);
}

TEST(SolverService, MetricsCountHitsMissesAndLatency)
{
    svc::SolverService service{{.workers = 1}};
    const auto chain = make_chain({{10, 20, true}, {5, 9, false}});
    const core::ScheduleRequest request{chain, {2, 2}, core::Strategy::fertac};
    (void)service.solve(request);
    (void)service.solve(request);
    (void)service.solve(request);

    const auto snapshot = service.metrics().snapshot();
    EXPECT_EQ(snapshot.counters.at("amp_svc_cache_misses{strategy=\"fertac\"}"), 1u);
    EXPECT_EQ(snapshot.counters.at("amp_svc_cache_hits{strategy=\"fertac\"}"), 2u);
    const auto hist = snapshot.histograms.find("amp_svc_solve_latency_us{strategy=\"fertac\"}");
    ASSERT_NE(hist, snapshot.histograms.end());
}

TEST(SolverService, ClearCacheForcesResolve)
{
    svc::SolverService service{{.workers = 1}};
    const auto chain = make_chain({{10, 20, true}, {5, 9, false}});
    const core::ScheduleRequest request{chain, {2, 2}, core::Strategy::herad};
    (void)service.solve(request);
    EXPECT_TRUE(service.solve(request).cache_hit);
    service.clear_cache();
    EXPECT_FALSE(service.solve(request).cache_hit);
}

TEST(SolverService, ZeroWorkerConfigFallsBackToHardware)
{
    svc::SolverService service{{.workers = 0}};
    EXPECT_GE(service.workers(), 1);
}

// Exercised under TSan in CI: several threads submit overlapping batches
// concurrently; every result must still match a fresh sequential solve.
TEST(SolverService, ConcurrentBatchesFromManyThreads)
{
    svc::SolverService service{{.workers = 2}};
    const auto chains = random_chains(8, 1234);
    std::vector<core::ScheduleRequest> requests;
    for (const auto& chain : chains)
        for (const core::Strategy strategy : core::kAllStrategies)
            requests.push_back(core::ScheduleRequest{chain, {3, 2}, strategy});
    std::vector<core::ScheduleResult> expected;
    expected.reserve(requests.size());
    for (const auto& request : requests)
        expected.push_back(core::schedule(request));

    constexpr int kSubmitters = 4;
    std::vector<std::thread> submitters;
    std::vector<int> failures(kSubmitters, 0);
    for (int t = 0; t < kSubmitters; ++t) {
        submitters.emplace_back([&, t] {
            for (int round = 0; round < 3; ++round) {
                const auto results = service.solve_batch(requests);
                for (std::size_t i = 0; i < requests.size(); ++i)
                    if (results[i].solution != expected[i].solution ||
                        results[i].error != expected[i].error)
                        ++failures[static_cast<std::size_t>(t)];
            }
        });
    }
    for (auto& thread : submitters)
        thread.join();
    for (int t = 0; t < kSubmitters; ++t)
        EXPECT_EQ(failures[static_cast<std::size_t>(t)], 0) << "submitter " << t;
}

// Regression stress for the Batch lifetime protocol (use-after-free on
// completion): a tiny batch is destroyed by the submitter the instant its
// last job finishes, so a worker that still touched the Batch after its
// decrement would race with the destruction. Caching is off so every
// request actually flows through the worker pool. Caught under TSan.
TEST(SolverService, TinyBatchChurnStressesBatchLifetime)
{
    svc::SolverService service{{.workers = 4, .cache_capacity = 0}};
    const auto chains = random_chains(2, 99);
    constexpr int kSubmitters = 4;
    std::vector<std::thread> submitters;
    std::vector<int> failures(kSubmitters, 0);
    for (int t = 0; t < kSubmitters; ++t) {
        submitters.emplace_back([&, t] {
            for (int round = 0; round < 200; ++round) {
                const std::vector<core::ScheduleRequest> batch{core::ScheduleRequest{
                    chains[static_cast<std::size_t>(round) % chains.size()],
                    {2, 1},
                    core::Strategy::fertac}};
                const auto results = service.solve_batch(batch);
                if (results.size() != 1 || !results[0].ok())
                    ++failures[static_cast<std::size_t>(t)];
            }
        });
    }
    for (auto& thread : submitters)
        thread.join();
    for (int t = 0; t < kSubmitters; ++t)
        EXPECT_EQ(failures[static_cast<std::size_t>(t)], 0) << "submitter " << t;
}

// Seeded exactly-once oracle for the batch queue. With the cache off every
// solve is one miss, so the summed miss counters equal the requests sent
// only if each request index is claimed and solved exactly once; every
// answer must also equal a fresh core::schedule of its own request.
TEST(SolverService, SeededBatchesSolveEveryRequestExactlyOnce)
{
    std::vector<core::ScheduleRequest> pool;
    std::vector<core::ScheduleResult> expected;
    for (const auto& chain : random_chains(8, 2024)) {
        for (const core::Strategy strategy : core::kAllStrategies) {
            pool.push_back(core::ScheduleRequest{chain, {3, 2}, strategy});
            expected.push_back(core::schedule(pool.back()));
        }
    }
    const auto pick = [](Rng& rng, std::int64_t lo, std::int64_t hi) {
        return static_cast<std::size_t>(rng.uniform_int(lo, hi));
    };

    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng{seed};
        const std::size_t workers = pick(rng, 1, 4);
        const std::size_t submitters = pick(rng, 1, 4);
        // batches[t][b] lists the pool indices of submitter t's batch b.
        std::vector<std::vector<std::vector<std::size_t>>> batches(submitters);
        std::uint64_t sent = 0;
        for (auto& mine : batches) {
            mine.resize(pick(rng, 2, 5));
            for (auto& batch : mine) {
                batch.resize(pick(rng, 0, 12));
                for (std::size_t& index : batch)
                    index = pick(rng, 0, static_cast<std::int64_t>(pool.size()) - 1);
                sent += batch.size();
            }
        }

        svc::SolverService service{
            {.workers = static_cast<int>(workers), .cache_capacity = 0}};
        std::vector<int> wrong(submitters, 0);
        std::vector<std::thread> threads;
        for (std::size_t t = 0; t < submitters; ++t) {
            threads.emplace_back([&, t] {
                for (const auto& batch : batches[t]) {
                    std::vector<core::ScheduleRequest> requests;
                    for (const std::size_t index : batch)
                        requests.push_back(pool[index]);
                    const auto results = service.solve_batch(requests);
                    if (results.size() != batch.size()) {
                        ++wrong[t];
                        continue;
                    }
                    for (std::size_t i = 0; i < batch.size(); ++i)
                        if (results[i].solution != expected[batch[i]].solution
                            || results[i].error != expected[batch[i]].error)
                            ++wrong[t];
                }
            });
        }
        for (auto& thread : threads)
            thread.join();

        const auto snapshot = service.metrics().snapshot();
        std::uint64_t misses = 0;
        for (const core::Strategy strategy : core::kAllStrategies)
            misses += snapshot.counters.at(std::string{"amp_svc_cache_misses{strategy=\""}
                                           + core::to_key(strategy) + "\"}");
        EXPECT_EQ(misses, sent) << "seed " << seed;
        for (std::size_t t = 0; t < submitters; ++t)
            EXPECT_EQ(wrong[t], 0) << "seed " << seed << ", submitter " << t;
    }
}

// With the cache on, a batch solves each distinct request once: the
// repeats wait for their first and are answered from the cache, so which
// index hits and the hit/miss counts no longer depend on which claimer
// races which.
TEST(SolverService, DuplicateBatchRequestsSolveOncePerDistinctRequest)
{
    const auto chains = random_chains(3, 77);
    const core::ScheduleRequest a{chains[0], {3, 2}, core::Strategy::herad};
    const core::ScheduleRequest b{chains[1], {3, 2}, core::Strategy::herad};
    const core::ScheduleRequest c{chains[2], {2, 2}, core::Strategy::herad};
    const std::vector<core::ScheduleRequest> requests{a, b, a, c, b, a, a, c};
    const bool hit[] = {false, false, true, false, true, true, true, true};

    svc::SolverService service{{.workers = 3}};
    const auto results = service.solve_batch(requests);
    ASSERT_EQ(results.size(), requests.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].cache_hit, hit[i]) << "index " << i;
        EXPECT_EQ(results[i].solution, core::schedule(requests[i]).solution) << "index " << i;
    }
    const auto snapshot = service.metrics().snapshot();
    EXPECT_EQ(snapshot.counters.at("amp_svc_cache_misses{strategy=\"herad\"}"), 3u)
        << "one solve per distinct request";
    EXPECT_EQ(snapshot.counters.at("amp_svc_cache_hits{strategy=\"herad\"}"), 5u);
    EXPECT_EQ(service.cache_stats().misses, 3u);
    EXPECT_EQ(service.cache_stats().hits, 5u);
}

// The plan-aware cache: a solve_planned hit returns the SAME immutable
// compiled plan object as the miss that populated it -- zero recompiles,
// pinned by pointer identity.
TEST(SolverService, SolvePlannedHitsSharePointerIdenticalPlans)
{
    svc::SolverService service{{.workers = 1}};
    const auto chain = make_chain({{10, 20, true}, {30, 60, true}, {5, 9, false}});
    const core::ScheduleRequest request{chain, {2, 2}, core::Strategy::herad};

    const svc::PlannedSchedule cold = service.solve_planned(request);
    ASSERT_TRUE(cold.ok());
    EXPECT_FALSE(cold.result.cache_hit);

    const svc::PlannedSchedule warm = service.solve_planned(request);
    ASSERT_TRUE(warm.ok());
    EXPECT_TRUE(warm.result.cache_hit);
    EXPECT_EQ(warm.plan.get(), cold.plan.get())
        << "a cache hit must reuse the stored plan, not recompile";
    EXPECT_EQ(warm.result.solution, cold.result.solution);
}

// An entry admitted by plain solve() carries no plan; the first
// solve_planned hit compiles once and attaches it, and every later hit
// shares that attached plan.
TEST(SolverService, SolvePlannedAttachesAPlanToAPlainEntry)
{
    svc::SolverService service{{.workers = 1}};
    const auto chain = make_chain({{10, 20, true}, {30, 60, true}, {5, 9, false}});
    const core::ScheduleRequest request{chain, {2, 2}, core::Strategy::herad};

    (void)service.solve(request); // plan-less cache entry

    const svc::PlannedSchedule first = service.solve_planned(request);
    EXPECT_TRUE(first.result.cache_hit);
    ASSERT_NE(first.plan, nullptr) << "the hit path compiles and attaches once";

    const svc::PlannedSchedule second = service.solve_planned(request);
    EXPECT_TRUE(second.result.cache_hit);
    EXPECT_EQ(second.plan.get(), first.plan.get());
}

// Plans are only shared across hits with equal PlanOptions; a mismatched
// hit recompiles with the requested options instead of handing back a plan
// whose queues are sized differently.
TEST(SolverService, SolvePlannedRecompilesOnDifferentPlanOptions)
{
    svc::SolverService service{{.workers = 1}};
    const auto chain = make_chain({{10, 20, true}, {30, 60, true}, {5, 9, false}});
    const core::ScheduleRequest request{chain, {2, 2}, core::Strategy::herad};

    const svc::PlannedSchedule narrow = service.solve_planned(request);
    ASSERT_TRUE(narrow.ok());

    plan::PlanOptions wide;
    wide.queue_capacity = 64;
    const svc::PlannedSchedule other = service.solve_planned(request, wide);
    ASSERT_TRUE(other.ok());
    EXPECT_TRUE(other.result.cache_hit) << "the schedule itself is still cached";
    EXPECT_NE(other.plan.get(), narrow.plan.get());
    EXPECT_EQ(other.plan->options(), wide);
}

TEST(SolverService, StoppedServiceRejectsInsteadOfHanging)
{
    svc::SolverService service{{.workers = 2}};
    service.stop();
    EXPECT_TRUE(service.stopped());
    const auto chain = make_chain({{10, 20, true}, {30, 60, true}, {5, 9, false}});
    const core::ScheduleRequest request{chain, {2, 2}, core::Strategy::herad};
    EXPECT_EQ(service.solve(request).error, core::ScheduleError::rejected);
    EXPECT_EQ(service.solve_planned(request).result.error, core::ScheduleError::rejected);
    const auto batch = service.solve_batch({request, request});
    ASSERT_EQ(batch.size(), 2u);
    for (const auto& result : batch)
        EXPECT_EQ(result.error, core::ScheduleError::rejected);
    service.stop(); // idempotent
}

// Submits racing stop() must resolve cleanly -- every result is ok or
// rejected and no solve_batch caller is left on its condvar. Run under
// TSan in CI (tsan-rt builds this target) to pin the data-race freedom of
// the shutdown path, not just its liveness.
TEST(SolverService, ShutdownChurnNeverHangsOrDropsResults)
{
    Rng rng{0xdead};
    sim::GeneratorConfig config;
    config.num_tasks = 60; // big enough that a solve is not instantaneous
    std::vector<core::TaskChain> chains;
    for (int i = 0; i < 4; ++i)
        chains.push_back(sim::generate_chain(config, rng));
    for (int round = 0; round < 12; ++round) {
        svc::SolverService service{{
            .workers = 2,
            .cache_capacity = 0,
        }};
        std::atomic<bool> quit{false};
        std::atomic<std::uint64_t> bad{0};
        std::vector<std::thread> submitters;
        for (int t = 0; t < 4; ++t) {
            submitters.emplace_back([&, t] {
                std::vector<core::ScheduleRequest> requests;
                for (const auto& chain : chains)
                    requests.push_back(core::ScheduleRequest{
                        chain, {2 + t % 2, 2}, core::Strategy::herad});
                while (!quit.load(std::memory_order_acquire)) {
                    const auto results = service.solve_batch(requests);
                    if (results.size() != requests.size()) {
                        bad.fetch_add(1);
                        continue;
                    }
                    for (const auto& result : results)
                        if (!result.ok() && result.error != core::ScheduleError::rejected)
                            bad.fetch_add(1);
                }
            });
        }
        std::this_thread::sleep_for(std::chrono::milliseconds{2 + round % 3});
        service.stop(); // races in-flight submits by design
        quit.store(true, std::memory_order_release);
        for (auto& thread : submitters)
            thread.join();
        EXPECT_EQ(bad.load(), 0u) << "round " << round;
    }
}

// Threads of this process, counted as the kernel lists them; -1 where
// /proc is not mounted.
int process_threads()
{
    std::error_code error;
    std::filesystem::directory_iterator tasks{"/proc/self/task", error};
    if (error)
        return -1;
    return static_cast<int>(std::distance(tasks, std::filesystem::directory_iterator{}));
}

TEST(SolverService, PoolNeverStartsForCallerThreadSolves)
{
    const int before = process_threads();
    if (before < 0)
        GTEST_SKIP() << "no /proc/self/task";
    svc::SolverService service{{.workers = 3}};
    EXPECT_EQ(service.workers(), 3);
    const auto chains = random_chains(4, 31);
    for (const auto& chain : chains) {
        const core::ScheduleRequest request{chain, {2, 2}, core::Strategy::herad};
        EXPECT_TRUE(service.solve(request).ok());
        EXPECT_TRUE(service.solve_planned(request).ok());
        // One claim (a single request, or repeats of one) is the
        // submitter's alone.
        EXPECT_EQ(service.solve_batch({request}).size(), 1u);
        EXPECT_EQ(service.solve_batch({request, request}).size(), 2u);
    }
    EXPECT_EQ(process_threads(), before);
}

TEST(SolverService, PoolStartsOnTheFirstBatchWithTwoClaims)
{
    const int before = process_threads();
    if (before < 0)
        GTEST_SKIP() << "no /proc/self/task";
    svc::SolverService service{{.workers = 3}};
    const auto chains = random_chains(4, 32);
    std::vector<core::ScheduleRequest> requests;
    for (const auto& chain : chains)
        requests.push_back(core::ScheduleRequest{chain, {2, 2}, core::Strategy::herad});
    for (const auto& result : service.solve_batch(requests))
        EXPECT_TRUE(result.ok());
    EXPECT_EQ(process_threads(), before + 3);
    service.clear_cache();
    (void)service.solve_batch(requests);
    EXPECT_EQ(process_threads(), before + 3) << "the pool starts once";
    service.stop();
    // A joined thread can linger in /proc for a moment after its exit.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{5};
    while (process_threads() != before && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds{1});
    EXPECT_EQ(process_threads(), before);
}

TEST(SolverService, PoolStopBeforeAnyBatchJoinsNothing)
{
    const int before = process_threads();
    if (before < 0)
        GTEST_SKIP() << "no /proc/self/task";
    svc::SolverService service{{.workers = 3}};
    service.stop();
    const auto chains = random_chains(2, 33);
    const auto results = service.solve_batch(
        {core::ScheduleRequest{chains[0], {2, 2}, core::Strategy::herad},
         core::ScheduleRequest{chains[1], {2, 2}, core::Strategy::herad}});
    for (const auto& result : results)
        EXPECT_EQ(result.error, core::ScheduleError::rejected);
    EXPECT_EQ(process_threads(), before) << "a stopped service never starts its pool";
    EXPECT_EQ(service.workers(), 3);
}

TEST(SharedService, IsASingleProcessWideInstance)
{
    svc::SolverService& first = svc::shared_service();
    svc::SolverService& second = svc::shared_service();
    EXPECT_EQ(&first, &second);
    EXPECT_GE(first.workers(), 1);
}

} // namespace
