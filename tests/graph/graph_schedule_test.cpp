// svc::schedule_graph: branch splitting, greedy water-filling over the
// shared core budget (including branches tied at the bottleneck, checked
// against the strict loop that stopped at a tie), determinism, a branch
// sub-chain sharing its cache entry with an identical standalone chain, and
// the infeasibility error paths.

#include "svc/graph_schedule.hpp"

#include "dvbs2/graph_workloads.hpp"
#include "dvbs2/profiles.hpp"
#include "sim/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

namespace {

using namespace amp;
using core::CoreType;
using core::Resources;
using core::Strategy;
using core::TaskChain;
using core::TaskDesc;
using plan::GraphBranch;
using plan::GraphShape;

/// src(1) -> {mid-a(2..3) replicable, mid-b(4)} -> sink(5), deliberately
/// unbalanced: mid-a carries most of the weight so water-filling must grant
/// it the extra cores.
svc::GraphScheduleRequest diamond_request(Resources budget,
                                          Strategy strategy = Strategy::herad)
{
    svc::GraphScheduleRequest request;
    std::vector<TaskDesc> descs;
    descs.push_back(TaskDesc{"src", 10.0, 20.0, false});
    descs.push_back(TaskDesc{"mid-a1", 60.0, 120.0, true});
    descs.push_back(TaskDesc{"mid-a2", 60.0, 120.0, true});
    descs.push_back(TaskDesc{"mid-b", 25.0, 50.0, false});
    descs.push_back(TaskDesc{"sink", 10.0, 20.0, false});
    request.chain = TaskChain{std::move(descs)};
    request.shape.chain = plan::ChainShape::of(request.chain);
    request.shape.branches = {
        GraphBranch{0, 1, 1, {}, {1, 2}},
        GraphBranch{1, 2, 3, {0}, {3}},
        GraphBranch{2, 4, 4, {0}, {3}},
        GraphBranch{3, 5, 5, {1, 2}, {}},
    };
    request.resources = budget;
    request.strategy = strategy;
    return request;
}

TEST(BranchChains, SplitsTheGlobalChainByBranchIntervals)
{
    const svc::GraphScheduleRequest request = diamond_request({4, 0});
    const std::vector<TaskChain> chains = svc::branch_chains(request.chain, request.shape);
    ASSERT_EQ(chains.size(), 4u);
    EXPECT_EQ(chains[0].size(), 1);
    EXPECT_EQ(chains[1].size(), 2);
    EXPECT_EQ(chains[1].task(1).name, "mid-a1");
    EXPECT_EQ(chains[1].task(2).name, "mid-a2");
    EXPECT_EQ(chains[3].task(1).name, "sink");

    // Local task ids restart at 1 per branch and weights survive the split.
    EXPECT_DOUBLE_EQ(chains[2].task(1).w_big, 25.0);

    TaskChain short_chain{std::vector<TaskDesc>{{"only", 1.0, 2.0, true}}};
    EXPECT_THROW((void)svc::branch_chains(short_chain, request.shape), plan::PlanError);
}

TEST(ScheduleGraph, WaterFillingGrantsTheBottleneckBranch)
{
    svc::SolverService service{{.workers = 1}};
    const svc::GraphScheduleRequest request = diamond_request({6, 0});
    const svc::GraphSchedule schedule = svc::schedule_graph(request, service);
    ASSERT_TRUE(schedule.ok) << schedule.error;
    ASSERT_EQ(schedule.branches.size(), 4u);
    EXPECT_GT(schedule.solves, 4);

    // The replicable heavy branch must have received more than its seed core.
    const svc::BranchSchedule& heavy = schedule.branches[1];
    EXPECT_GT(heavy.budget.big + heavy.budget.little, 1);

    // The stitched plan reports the combined bound: max branch period.
    double worst = 0.0;
    for (const svc::BranchSchedule& branch : schedule.branches)
        worst = std::max(worst, branch.period_us);
    EXPECT_DOUBLE_EQ(schedule.period_us, worst);
    EXPECT_DOUBLE_EQ(schedule.plan.period_us(), worst);
    EXPECT_FALSE(schedule.plan.linear());
    EXPECT_TRUE(schedule.plan.has_profile());
    EXPECT_EQ(schedule.plan.graph().branch_count(), 4);

    // With mid-a split over >= 2 big cores its period is at most 60, so the
    // bottleneck cannot be the un-replicable 120 us branch load.
    EXPECT_LE(schedule.period_us, 60.0 + 1e-9);
}

TEST(ScheduleGraph, IsDeterministicAcrossRunsAndServices)
{
    const svc::GraphScheduleRequest request = diamond_request({5, 2});
    svc::SolverService first{{.workers = 1}};
    svc::SolverService second{{.workers = 2}};
    const svc::GraphSchedule a = svc::schedule_graph(request, first);
    const svc::GraphSchedule b = svc::schedule_graph(request, second);
    const svc::GraphSchedule c = svc::schedule_graph(request, first); // cache-warm rerun
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    ASSERT_TRUE(c.ok);
    EXPECT_DOUBLE_EQ(a.period_us, b.period_us);
    EXPECT_DOUBLE_EQ(a.period_us, c.period_us);
    EXPECT_EQ(a.plan.summary(), b.plan.summary());
    EXPECT_EQ(a.plan.summary(), c.plan.summary());
    for (std::size_t i = 0; i < a.branches.size(); ++i) {
        EXPECT_EQ(a.branches[i].budget.big, b.branches[i].budget.big);
        EXPECT_EQ(a.branches[i].budget.little, b.branches[i].budget.little);
        EXPECT_EQ(a.branches[i].result.solution, c.branches[i].result.solution);
    }
}

TEST(ScheduleGraph, StandaloneSolveOfABranchHitsTheGraphEntry)
{
    // The cache key is content-based: after a graph solve probed branch 1
    // on one big core, a standalone solve of the same sub-chain on the same
    // budget is answered from that entry, and the answer is the plain
    // core::schedule solution.
    const svc::GraphScheduleRequest request = diamond_request({4, 0});
    const std::vector<TaskChain> chains = svc::branch_chains(request.chain, request.shape);
    core::ScheduleRequest standalone;
    standalone.chain = chains[1];
    standalone.resources = {1, 0};
    standalone.strategy = Strategy::herad;

    svc::SolverService service{{.workers = 1}};
    const svc::GraphSchedule schedule = svc::schedule_graph(request, service);
    ASSERT_TRUE(schedule.ok) << schedule.error;
    const svc::CacheStats warmed = service.cache_stats();
    const core::ScheduleResult hit = service.solve(standalone);
    const svc::CacheStats after = service.cache_stats();
    EXPECT_TRUE(hit.cache_hit);
    EXPECT_EQ(after.hits, warmed.hits + 1);
    EXPECT_EQ(after.misses, warmed.misses);

    const core::ScheduleResult direct = core::schedule(standalone);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(hit.solution, direct.solution);
}

TEST(ScheduleGraph, ReportsInfeasibilityInsteadOfThrowing)
{
    svc::SolverService service{{.workers = 1}};

    // Fewer cores than branches.
    const svc::GraphSchedule starved =
        svc::schedule_graph(diamond_request({2, 1}), service);
    EXPECT_FALSE(starved.ok);
    EXPECT_EQ(starved.error, "graph: fewer usable cores than branches");

    // OTAC variants can only spend one pool; a big budget of littles does
    // not help OTAC (B).
    const svc::GraphSchedule otac =
        svc::schedule_graph(diamond_request({2, 8}, Strategy::otac_big), service);
    EXPECT_FALSE(otac.ok);
    EXPECT_EQ(otac.error, "graph: fewer usable cores than branches");

    // A malformed shape still throws (programming error, not infeasibility).
    svc::GraphScheduleRequest malformed = diamond_request({4, 0});
    malformed.shape.branches[1].preds.clear();
    EXPECT_THROW((void)svc::schedule_graph(malformed, service), plan::PlanError);
}

TEST(ScheduleGraph, SolvesTheDvbs2Workloads)
{
    svc::SolverService service{{.workers = 2}};
    const dvbs2::PlatformProfile profile = dvbs2::mac_studio_profile();

    for (const auto& workload :
         {dvbs2::tx_rx_split_workload(profile), dvbs2::ab_decode_workload(profile)}) {
        svc::GraphScheduleRequest request;
        request.chain = workload.chain;
        request.shape = workload.shape;
        request.resources = {8, 4};
        const svc::GraphSchedule schedule = svc::schedule_graph(request, service);
        ASSERT_TRUE(schedule.ok) << schedule.error;
        EXPECT_FALSE(schedule.plan.linear());
        EXPECT_EQ(schedule.plan.task_count(), workload.chain.size());
        EXPECT_GT(schedule.period_us, 0.0);
        EXPECT_EQ(static_cast<int>(workload.names.size()), workload.chain.size());
    }
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/// What a water-filling run allotted: per-branch budgets and solutions (in
/// local task ids) and the max branch period.
struct Fill {
    std::vector<Resources> budgets;
    std::vector<core::Solution> solutions;
    double period_us = kInf;
};

Fill fill_of(const svc::GraphSchedule& schedule)
{
    Fill fill;
    fill.period_us = 0.0;
    for (const svc::BranchSchedule& branch : schedule.branches) {
        fill.budgets.push_back(branch.budget);
        fill.solutions.push_back(branch.result.solution);
        fill.period_us = std::max(fill.period_us, branch.period_us);
    }
    return fill;
}

/// Oracle: the water-filling loop as it was before ties were filled. Each
/// round probes every (branch, core type) extension and grants the one
/// that leaves the lowest max branch period, only when that is strictly
/// below the current one -- so it stops as soon as two branches tie at the
/// bottleneck. Seeds exactly like svc::schedule_graph; strategies that use
/// both core types only (no OTAC).
Fill strict_fill(const svc::GraphScheduleRequest& request)
{
    const std::vector<TaskChain> chains = svc::branch_chains(request.chain, request.shape);
    const std::size_t nb = chains.size();
    const auto probe = [&](std::size_t b, Resources budget) {
        return core::schedule(
            core::ScheduleRequest{chains[b], budget, request.strategy, request.options});
    };
    const auto period_of = [&](std::size_t b, const core::ScheduleResult& result) {
        return result.ok() ? result.solution.period(chains[b]) : kInf;
    };

    Fill fill;
    fill.budgets.resize(nb);
    fill.solutions.resize(nb);
    std::vector<double> periods(nb, kInf);
    Resources remaining = request.resources;
    for (std::size_t b = 0; b < nb; ++b) {
        const core::ScheduleResult big =
            remaining.big > 0 ? probe(b, {1, 0}) : core::ScheduleResult{};
        const core::ScheduleResult little =
            remaining.little > 0 ? probe(b, {0, 1}) : core::ScheduleResult{};
        const double big_p = remaining.big > 0 ? period_of(b, big) : kInf;
        const double little_p = remaining.little > 0 ? period_of(b, little) : kInf;
        const bool use_big = big_p <= little_p && big_p < kInf;
        fill.budgets[b] = use_big ? Resources{1, 0} : Resources{0, 1};
        fill.solutions[b] = use_big ? big.solution : little.solution;
        periods[b] = use_big ? big_p : little_p;
        (use_big ? remaining.big : remaining.little) -= 1;
    }
    while (remaining.big + remaining.little > 0) {
        const double current = *std::max_element(periods.begin(), periods.end());
        double best = kInf;
        std::size_t best_branch = nb;
        CoreType best_type = CoreType::big;
        core::ScheduleResult best_result;
        for (std::size_t b = 0; b < nb; ++b)
            for (const CoreType type : {CoreType::big, CoreType::little}) {
                if ((type == CoreType::big ? remaining.big : remaining.little) <= 0)
                    continue;
                Resources budget = fill.budgets[b];
                (type == CoreType::big ? budget.big : budget.little) += 1;
                core::ScheduleResult result = probe(b, budget);
                double bottleneck = period_of(b, result);
                for (std::size_t i = 0; i < nb; ++i)
                    if (i != b)
                        bottleneck = std::max(bottleneck, periods[i]);
                if (bottleneck < best) {
                    best = bottleneck;
                    best_branch = b;
                    best_type = type;
                    best_result = std::move(result);
                }
            }
        if (best_branch == nb || best >= current)
            break;
        (best_type == CoreType::big ? fill.budgets[best_branch].big
                                    : fill.budgets[best_branch].little) += 1;
        (best_type == CoreType::big ? remaining.big : remaining.little) -= 1;
        fill.solutions[best_branch] = best_result.solution;
        periods[best_branch] = period_of(best_branch, best_result);
    }
    fill.period_us = *std::max_element(periods.begin(), periods.end());
    return fill;
}

int cores_of(const Fill& fill)
{
    int cores = 0;
    for (const Resources& budget : fill.budgets)
        cores += budget.total();
    return cores;
}

/// src -> {a, b} -> sink where a and b are the same replicable chain: after
/// seeding, both middle branches tie at the bottleneck.
svc::GraphScheduleRequest twin_diamond_request(Resources budget)
{
    svc::GraphScheduleRequest request;
    std::vector<TaskDesc> descs;
    descs.push_back(TaskDesc{"src", 10.0, 20.0, false});
    for (const char* twin : {"a", "b"}) {
        descs.push_back(TaskDesc{std::string{twin} + "1", 60.0, 120.0, true});
        descs.push_back(TaskDesc{std::string{twin} + "2", 60.0, 120.0, true});
    }
    descs.push_back(TaskDesc{"sink", 10.0, 20.0, false});
    request.chain = TaskChain{std::move(descs)};
    request.shape.chain = plan::ChainShape::of(request.chain);
    request.shape.branches = {
        GraphBranch{0, 1, 1, {}, {1, 2}},
        GraphBranch{1, 2, 3, {0}, {3}},
        GraphBranch{2, 4, 5, {0}, {3}},
        GraphBranch{3, 6, 6, {1, 2}, {}},
    };
    request.resources = budget;
    return request;
}

TEST(ScheduleGraph, TwinBranchesTiedAtTheBottleneckAreFilledInTurn)
{
    svc::SolverService service{{.workers = 1}};
    const svc::GraphScheduleRequest request = twin_diamond_request({8, 0});
    const svc::GraphSchedule schedule = svc::schedule_graph(request, service);
    ASSERT_TRUE(schedule.ok) << schedule.error;

    // Seeded with one core each, the twins tie at 120 us; the strict loop
    // stops there with four cores granted.
    const Fill strict = strict_fill(request);
    EXPECT_DOUBLE_EQ(strict.period_us, 120.0);
    EXPECT_EQ(strict.budgets[1], (Resources{1, 0}));
    EXPECT_EQ(strict.budgets[2], (Resources{1, 0}));

    // Filling past the tie gives each twin three big cores: 40 us.
    EXPECT_EQ(schedule.branches[1].budget, (Resources{3, 0}));
    EXPECT_EQ(schedule.branches[2].budget, (Resources{3, 0}));
    EXPECT_DOUBLE_EQ(schedule.period_us, 40.0);
    EXPECT_EQ(cores_of(fill_of(schedule)), 8);
}

TEST(ScheduleGraph, AbDecodeFillsPastItsTiedDecodeBranches)
{
    // The A and B decode branches are identical, so they tie at the
    // bottleneck right after seeding; the strict loop stopped there on
    // every budget (5 cores, 3493.1 us on the Mac Studio profile).
    const dvbs2::GraphWorkload workload = dvbs2::ab_decode_workload(dvbs2::mac_studio_profile());
    struct Pin {
        Resources budget;
        double period_us;
        int cores;
    };
    for (const Pin& pin : {Pin{{8, 4}, 1669.95, 12}, Pin{{16, 4}, 950.6, 15}}) {
        svc::SolverService service{{.workers = 1}};
        svc::GraphScheduleRequest request;
        request.chain = workload.chain;
        request.shape = workload.shape;
        request.resources = pin.budget;
        const svc::GraphSchedule schedule = svc::schedule_graph(request, service);
        ASSERT_TRUE(schedule.ok) << schedule.error;
        SCOPED_TRACE(schedule.plan.summary());
        EXPECT_NEAR(schedule.period_us, pin.period_us, 1e-9);
        EXPECT_EQ(cores_of(fill_of(schedule)), pin.cores);

        const Fill strict = strict_fill(request);
        EXPECT_EQ(cores_of(strict), 5);
        EXPECT_NEAR(strict.period_us, 3493.1, 1e-9);
    }
}

TEST(ScheduleGraph, TxRxSplitMatchesTheStrictLoopAtEveryBudget)
{
    // No two tx_rx_split branches tie at the bottleneck, so filling past
    // ties changes none of its plans.
    for (const dvbs2::PlatformProfile* profile :
         {&dvbs2::mac_studio_profile(), &dvbs2::x7ti_profile()}) {
        const dvbs2::GraphWorkload workload = dvbs2::tx_rx_split_workload(*profile);
        svc::SolverService service{{.workers = 1}};
        for (int big = 0; big <= 16; ++big)
            for (int little = 0; little <= 4; ++little) {
                if (big + little < 4)
                    continue; // fewer cores than branches
                svc::GraphScheduleRequest request;
                request.chain = workload.chain;
                request.shape = workload.shape;
                request.resources = {big, little};
                SCOPED_TRACE("R = (" + std::to_string(big) + ", " + std::to_string(little) + ")");
                const svc::GraphSchedule schedule = svc::schedule_graph(request, service);
                ASSERT_TRUE(schedule.ok) << schedule.error;
                const Fill fill = fill_of(schedule);
                const Fill strict = strict_fill(request);
                EXPECT_EQ(fill.budgets, strict.budgets);
                EXPECT_EQ(fill.solutions, strict.solutions);
                EXPECT_EQ(fill.period_us, strict.period_us);
            }
    }
}

TEST(ScheduleGraph, SeededDiamondsAreNeverWorseThanTheStrictLoop)
{
    int lower = 0;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        Rng rng{seed};
        sim::GeneratorConfig gen;
        const auto branch = [&](int lo, int hi) {
            gen.num_tasks = static_cast<int>(rng.uniform_int(lo, hi));
            gen.stateless_ratio = rng.uniform_real(0.0, 1.0);
            return sim::generate_chain(gen, rng);
        };
        const TaskChain src = branch(1, 4);
        const TaskChain a = branch(1, 8);
        const TaskChain b = seed % 3 == 0 ? a : branch(1, 8); // one in three: twins
        const TaskChain sink = branch(1, 4);

        svc::GraphScheduleRequest request;
        std::vector<TaskDesc> descs;
        std::vector<GraphBranch> branches;
        int next = 1;
        for (const TaskChain* part : {&src, &a, &b, &sink}) {
            const int first = next;
            for (int i = 1; i <= part->size(); ++i)
                descs.push_back(part->task(i));
            next += part->size();
            branches.push_back(GraphBranch{static_cast<int>(branches.size()), first, next - 1,
                                           {}, {}});
        }
        branches[0].succs = {1, 2};
        branches[1].preds = {0};
        branches[1].succs = {3};
        branches[2].preds = {0};
        branches[2].succs = {3};
        branches[3].preds = {1, 2};
        request.chain = TaskChain{std::move(descs)};
        request.shape.chain = plan::ChainShape::of(request.chain);
        request.shape.branches = std::move(branches);
        do {
            request.resources = {static_cast<int>(rng.uniform_int(0, 10)),
                                 static_cast<int>(rng.uniform_int(0, 10))};
        } while (request.resources.total() < 4);

        SCOPED_TRACE("seed " + std::to_string(seed));
        svc::SolverService service{{.workers = 1}};
        const svc::GraphSchedule schedule = svc::schedule_graph(request, service);
        ASSERT_TRUE(schedule.ok) << schedule.error;
        const Fill fill = fill_of(schedule);
        const Fill strict = strict_fill(request);
        EXPECT_LE(fill.period_us, strict.period_us);
        lower += fill.period_us < strict.period_us ? 1 : 0;
    }
    EXPECT_GT(lower, 0) << "the sweep must reach a tie the strict loop stops at";
}

} // namespace
