#include "core/chain.hpp"

#include "common/rng.hpp"
#include "sim/generator.hpp"
#include "test_support.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <initializer_list>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace amp::core;
using amp::testing::make_chain;
using amp::testing::uniform_chain;

TEST(TaskChain, BasicAccessors)
{
    const auto chain = make_chain({{10, 20, false}, {5, 25, true}, {8, 8, true}});
    EXPECT_EQ(chain.size(), 3);
    EXPECT_FALSE(chain.empty());
    EXPECT_DOUBLE_EQ(chain.weight(1, CoreType::big), 10);
    EXPECT_DOUBLE_EQ(chain.weight(1, CoreType::little), 20);
    EXPECT_FALSE(chain.replicable(1));
    EXPECT_TRUE(chain.replicable(2));
    EXPECT_EQ(chain.replicable_count(), 2);
}

TEST(TaskChain, RejectsNonPositiveWeights)
{
    EXPECT_THROW(make_chain({{0, 1, true}}), std::invalid_argument);
    EXPECT_THROW(make_chain({{1, 0, true}}), std::invalid_argument);
    EXPECT_THROW(make_chain({{-3, 1, true}}), std::invalid_argument);
}

TEST(TaskChain, IntervalSums)
{
    const auto chain = make_chain({{1, 10, true}, {2, 20, true}, {3, 30, true}, {4, 40, true}});
    EXPECT_DOUBLE_EQ(chain.interval_sum(1, 4, CoreType::big), 10);
    EXPECT_DOUBLE_EQ(chain.interval_sum(2, 3, CoreType::big), 5);
    EXPECT_DOUBLE_EQ(chain.interval_sum(2, 3, CoreType::little), 50);
    EXPECT_DOUBLE_EQ(chain.interval_sum(3, 3, CoreType::big), 3);
    EXPECT_DOUBLE_EQ(chain.interval_sum(3, 2, CoreType::big), 0) << "empty interval sums to 0";
}

TEST(TaskChain, IntervalReplicability)
{
    // replicable, sequential, replicable, replicable
    const auto chain =
        make_chain({{1, 1, true}, {1, 1, false}, {1, 1, true}, {1, 1, true}});
    EXPECT_TRUE(chain.interval_replicable(1, 1));
    EXPECT_FALSE(chain.interval_replicable(1, 2));
    EXPECT_FALSE(chain.interval_replicable(2, 2));
    EXPECT_TRUE(chain.interval_replicable(3, 4));
    EXPECT_FALSE(chain.interval_replicable(2, 4));
}

TEST(TaskChain, FinalReplicableTask)
{
    const auto chain =
        make_chain({{1, 1, true}, {1, 1, true}, {1, 1, false}, {1, 1, true}, {1, 1, true}});
    EXPECT_EQ(chain.final_replicable_task(1, 1), 2);
    EXPECT_EQ(chain.final_replicable_task(1, 2), 2);
    EXPECT_EQ(chain.final_replicable_task(4, 4), 5) << "trailing replicable run extends to n";
}

TEST(TaskChain, StageWeightEquation1)
{
    // Tasks 1-2 replicable, task 3 sequential.
    const auto chain = make_chain({{4, 8, true}, {6, 12, true}, {10, 30, false}});
    // Replicable stage: weight divides by the core count.
    EXPECT_DOUBLE_EQ(chain.stage_weight(1, 2, 1, CoreType::big), 10);
    EXPECT_DOUBLE_EQ(chain.stage_weight(1, 2, 2, CoreType::big), 5);
    EXPECT_DOUBLE_EQ(chain.stage_weight(1, 2, 4, CoreType::little), 5);
    // A stage containing the sequential task never divides.
    EXPECT_DOUBLE_EQ(chain.stage_weight(1, 3, 1, CoreType::big), 20);
    EXPECT_DOUBLE_EQ(chain.stage_weight(1, 3, 5, CoreType::big), 20);
    EXPECT_DOUBLE_EQ(chain.stage_weight(3, 3, 2, CoreType::little), 30);
    // Zero cores means infinite weight.
    EXPECT_EQ(chain.stage_weight(1, 2, 0, CoreType::big), kInfiniteWeight);
}

TEST(TaskChain, MaxWeights)
{
    const auto chain = make_chain({{4, 9, true}, {6, 30, false}, {10, 12, true}});
    EXPECT_DOUBLE_EQ(chain.max_weight(CoreType::big), 10);
    EXPECT_DOUBLE_EQ(chain.max_weight(CoreType::little), 30);
    EXPECT_DOUBLE_EQ(chain.max_sequential_weight(CoreType::big), 6);
    EXPECT_DOUBLE_EQ(chain.max_sequential_weight(CoreType::little), 30);
}

TEST(TaskChain, MaxSequentialWeightZeroWhenAllReplicable)
{
    const auto chain = uniform_chain(4, 5.0, true);
    EXPECT_DOUBLE_EQ(chain.max_sequential_weight(CoreType::big), 0.0);
    EXPECT_DOUBLE_EQ(chain.stateless_ratio(), 1.0);
}

TEST(TaskChain, StatelessRatio)
{
    const auto chain =
        make_chain({{1, 1, true}, {1, 1, false}, {1, 1, true}, {1, 1, false}, {1, 1, false}});
    EXPECT_DOUBLE_EQ(chain.stateless_ratio(), 0.4);
}

TEST(TaskChain, EmptyChain)
{
    const TaskChain chain;
    EXPECT_TRUE(chain.empty());
    EXPECT_EQ(chain.size(), 0);
    EXPECT_DOUBLE_EQ(chain.stateless_ratio(), 0.0);
}

// Random chains with integer weights and integer energy weights, so every
// sum below is exact, checked against loops over the tasks.
TEST(TaskChain, MatchesNaiveRecomputation)
{
    amp::Rng rng{20261019};
    constexpr amp::sim::WeightDistribution kDistributions[] = {
        amp::sim::WeightDistribution::uniform, amp::sim::WeightDistribution::bimodal,
        amp::sim::WeightDistribution::lognormal};
    constexpr CoreType kTypes[] = {CoreType::big, CoreType::little};
    for (int round = 0; round < 48; ++round) {
        amp::sim::GeneratorConfig config;
        config.num_tasks = round < 2 ? 1 + 119 * round : static_cast<int>(rng.uniform_int(1, 120));
        config.stateless_ratio = rng.uniform_real(0.0, 1.0);
        config.distribution = kDistributions[round % 3];
        const TaskChain generated = amp::sim::generate_chain(config, rng);
        std::vector<TaskDesc> tasks;
        for (int i = 1; i <= generated.size(); ++i) {
            tasks.push_back(generated.task(i));
            tasks.back().energy = static_cast<double>(rng.uniform_int(1, 4));
        }
        const TaskChain chain{tasks};
        const int n = chain.size();
        SCOPED_TRACE("round " + std::to_string(round) + ", n " + std::to_string(n));
        ASSERT_EQ(n, config.num_tasks);

        const auto w = [&](int i, CoreType v) {
            const TaskDesc& t = tasks[static_cast<std::size_t>(i - 1)];
            return v == CoreType::big ? t.w_big : t.w_little;
        };
        const auto rep = [&](int i) { return tasks[static_cast<std::size_t>(i - 1)].replicable; };
        int replicable = 0;
        double max_weight[2] = {0.0, 0.0};
        double max_sequential[2] = {0.0, 0.0};
        for (int i = 1; i <= n; ++i) {
            replicable += rep(i) ? 1 : 0;
            for (const CoreType v : kTypes) {
                const auto slot = static_cast<std::size_t>(v);
                max_weight[slot] = std::max(max_weight[slot], w(i, v));
                if (!rep(i))
                    max_sequential[slot] = std::max(max_sequential[slot], w(i, v));
            }
        }
        ASSERT_EQ(chain.replicable_count(), replicable);
        ASSERT_EQ(chain.stateless_ratio(), static_cast<double>(replicable) / n);
        for (const CoreType v : kTypes) {
            ASSERT_EQ(chain.max_weight(v), max_weight[static_cast<std::size_t>(v)]);
            ASSERT_EQ(chain.max_sequential_weight(v), max_sequential[static_cast<std::size_t>(v)]);
        }

        for (int s = 1; s <= n; ++s) {
            for (int e = s; e <= n; ++e) {
                bool replicable_interval = true;
                for (int i = s; i <= e; ++i)
                    replicable_interval = replicable_interval && rep(i);
                ASSERT_EQ(chain.interval_replicable(s, e), replicable_interval) << s << ".." << e;
                if (replicable_interval) {
                    int last = e;
                    while (last < n && rep(last + 1))
                        ++last;
                    ASSERT_EQ(chain.final_replicable_task(s, e), last) << s << ".." << e;
                }
                for (const CoreType v : kTypes) {
                    double sum = 0.0;
                    double energy = 0.0;
                    for (int i = s; i <= e; ++i) {
                        sum += w(i, v);
                        energy += tasks[static_cast<std::size_t>(i - 1)].energy * w(i, v);
                    }
                    ASSERT_EQ(chain.interval_sum(s, e, v), sum) << s << ".." << e;
                    ASSERT_EQ(chain.energy_sum(s, e, v), energy) << s << ".." << e;
                    ASSERT_EQ(chain.stage_weight(s, e, 0, v), kInfiniteWeight);
                    for (int r = 1; r <= 4; ++r)
                        ASSERT_EQ(chain.stage_weight(s, e, r, v),
                                  replicable_interval ? sum / r : sum)
                            << s << ".." << e << " r " << r;
                }
            }
        }
    }
}

TEST(TaskChain, CopiesShareOneBlockAndOutliveTheirSource)
{
    auto source = std::make_optional(
        make_chain({{10, 20, false}, {5, 25, true}, {8, 8, true}}));
    const TaskChain copy = *source;
    EXPECT_EQ(&copy.task(1), &source->task(1)) << "a copy shares the source's storage";
    TaskChain assigned;
    assigned = copy;
    EXPECT_EQ(&assigned.task(3), &source->task(3));
    const std::uint64_t fingerprint = source->fingerprint();
    const std::uint64_t fingerprint2 = source->fingerprint2();

    source.reset();
    for (const TaskChain* chain : std::initializer_list<const TaskChain*>{&copy, &assigned}) {
        EXPECT_EQ(chain->size(), 3);
        EXPECT_EQ(chain->task(2).name, "t2");
        EXPECT_DOUBLE_EQ(chain->interval_sum(1, 3, CoreType::little), 53);
        EXPECT_DOUBLE_EQ(chain->stage_weight(2, 3, 2, CoreType::big), 6.5);
        EXPECT_FALSE(chain->interval_replicable(1, 2));
        EXPECT_EQ(chain->fingerprint(), fingerprint);
        EXPECT_EQ(chain->fingerprint2(), fingerprint2);
    }

    TaskChain self = copy;
    const TaskChain& alias = self;
    self = alias;
    EXPECT_EQ(&self.task(1), &copy.task(1)) << "self-assignment keeps the block";
}

TEST(TaskChain, EmptyAndMovedFromChainsAreSafeToQuery)
{
    TaskChain source = make_chain({{4, 9, true}, {6, 30, false}});
    const TaskDesc* storage = &source.task(1);
    TaskChain moved = std::move(source);
    EXPECT_EQ(&moved.task(1), storage) << "a move hands the block over";
    TaskChain assigned;
    assigned = std::move(moved);
    EXPECT_EQ(&assigned.task(1), storage);

    const TaskChain built_empty{std::vector<TaskDesc>{}};
    const TaskChain defaulted;
    // NOLINTBEGIN(bugprone-use-after-move): moved-from chains are empty by contract.
    for (const TaskChain* chain :
         std::initializer_list<const TaskChain*>{&source, &moved, &built_empty, &defaulted}) {
        EXPECT_TRUE(chain->empty());
        EXPECT_EQ(chain->size(), 0);
        EXPECT_EQ(chain->replicable_count(), 0);
        EXPECT_DOUBLE_EQ(chain->stateless_ratio(), 0.0);
        EXPECT_DOUBLE_EQ(chain->max_weight(CoreType::big), 0.0);
        EXPECT_DOUBLE_EQ(chain->max_sequential_weight(CoreType::little), 0.0);
        EXPECT_DOUBLE_EQ(chain->interval_sum(1, 0, CoreType::big), 0.0);
        EXPECT_DOUBLE_EQ(chain->energy_sum(1, 0, CoreType::little), 0.0);
        EXPECT_TRUE(chain->interval_replicable(1, 0));
        EXPECT_EQ(chain->fingerprint(), defaulted.fingerprint());
        EXPECT_EQ(chain->fingerprint2(), defaulted.fingerprint2());
    }
    // NOLINTEND(bugprone-use-after-move)
    EXPECT_NE(defaulted.fingerprint(), assigned.fingerprint());

    source = assigned; // a moved-from chain takes a new value
    EXPECT_EQ(&source.task(2), &assigned.task(2));
}

// Eight threads copy, read and drop copies of one chain while the handle
// it was built into is destroyed. Run under TSan in CI.
TEST(TaskChain, CopiesCrossThreadsWhileTheSourceDies)
{
    amp::Rng rng{77};
    auto source = std::make_unique<TaskChain>(
        amp::sim::generate_chain({.num_tasks = 64, .stateless_ratio = 0.5}, rng));
    const int n = source->size();
    const double total = source->interval_sum(1, n, CoreType::big);
    const std::uint64_t fingerprint = source->fingerprint();
    const TaskChain hub = *source; // read, never written, by every thread

    constexpr int kThreads = 8;
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::atomic<int> bad{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, own = *source] {
            ready.fetch_add(1);
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            std::vector<TaskChain> held;
            for (int round = 0; round < 2000; ++round) {
                TaskChain copy = (round % 2 == 0) ? own : hub;
                TaskChain moved = std::move(copy);
                held.push_back(moved);
                if (held.size() > 4)
                    held.erase(held.begin());
                if (moved.interval_sum(1, n, CoreType::big) != total
                    || moved.fingerprint() != fingerprint || &moved.task(1) != &hub.task(1))
                    bad.fetch_add(1);
            }
        });
    }
    while (ready.load() < kThreads)
        std::this_thread::yield();
    go.store(true, std::memory_order_release);
    source.reset();
    for (auto& thread : threads)
        thread.join();
    EXPECT_EQ(bad.load(), 0);
    EXPECT_DOUBLE_EQ(hub.interval_sum(1, n, CoreType::big), total);
}

TEST(Resources, CountAccessors)
{
    Resources r{3, 5};
    EXPECT_EQ(r.total(), 8);
    EXPECT_EQ(r.count(CoreType::big), 3);
    EXPECT_EQ(r.count(CoreType::little), 5);
    r.count(CoreType::big) -= 2;
    EXPECT_EQ(r.big, 1);
}

TEST(CoreType, OtherFlips)
{
    EXPECT_EQ(other(CoreType::big), CoreType::little);
    EXPECT_EQ(other(CoreType::little), CoreType::big);
    EXPECT_STREQ(to_string(CoreType::big), "B");
    EXPECT_STREQ(to_string(CoreType::little), "L");
}

} // namespace
