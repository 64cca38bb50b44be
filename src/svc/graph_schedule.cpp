#include "svc/graph_schedule.hpp"

#include <algorithm>
#include <limits>

namespace amp::svc {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

} // namespace

std::vector<core::TaskChain> branch_chains(const core::TaskChain& chain,
                                           const plan::GraphShape& shape)
{
    shape.validate();
    if (chain.size() != shape.tasks())
        throw plan::PlanError{"graph: chain does not match the shape's task count"};
    std::vector<core::TaskChain> chains;
    chains.reserve(shape.branches.size());
    for (const plan::GraphBranch& branch : shape.branches) {
        std::vector<core::TaskDesc> tasks;
        tasks.reserve(static_cast<std::size_t>(branch.task_count()));
        for (int i = branch.first; i <= branch.last; ++i)
            tasks.push_back(chain.task(i));
        chains.emplace_back(std::move(tasks));
    }
    return chains;
}

GraphSchedule schedule_graph(const GraphScheduleRequest& request, SolverService& service)
{
    GraphSchedule out;
    const std::vector<core::TaskChain> chains = branch_chains(request.chain, request.shape);
    const auto nb = chains.size();

    // OTAC variants schedule on one core type only; the other pool is
    // unusable and handing its cores out would just produce invalid solves.
    core::Resources remaining = request.resources;
    if (request.strategy == core::Strategy::otac_big)
        remaining.little = 0;
    else if (request.strategy == core::Strategy::otac_little)
        remaining.big = 0;
    if (static_cast<std::size_t>(remaining.big + remaining.little) < nb) {
        out.error = "graph: fewer usable cores than branches";
        return out;
    }

    const auto probe = [&](std::size_t b, core::Resources budget) {
        core::ScheduleRequest rq;
        rq.chain = chains[b];
        rq.resources = budget;
        rq.strategy = request.strategy;
        rq.options = request.options;
        ++out.solves;
        return service.solve(rq);
    };
    const auto period_of = [&](std::size_t b, const core::ScheduleResult& result) {
        return result.ok() ? result.solution.period(chains[b]) : kInf;
    };

    // Seed: one core per branch, whichever usable type yields the lower
    // solo period (big on ties -- deterministic).
    out.branches.resize(nb);
    std::vector<double> periods(nb, kInf);
    for (std::size_t b = 0; b < nb; ++b) {
        BranchSchedule& bs = out.branches[b];
        core::ScheduleResult big_r;
        core::ScheduleResult little_r;
        double big_p = kInf;
        double little_p = kInf;
        if (remaining.big > 0) {
            big_r = probe(b, {1, 0});
            big_p = period_of(b, big_r);
        }
        if (remaining.little > 0) {
            little_r = probe(b, {0, 1});
            little_p = period_of(b, little_r);
        }
        if (big_p <= little_p && big_p < kInf) {
            bs.budget = {1, 0};
            bs.result = std::move(big_r);
            periods[b] = big_p;
            --remaining.big;
        } else if (little_p < kInf) {
            bs.budget = {0, 1};
            bs.result = std::move(little_r);
            periods[b] = little_p;
            --remaining.little;
        } else {
            out.error = "graph: branch " + std::to_string(b) + " admits no schedule on one core";
            return out;
        }
        bs.period_us = periods[b];
    }

    // Water-filling, one core per round. The branches at the bottleneck
    // (the max branch period) must each have a one-core extension that
    // lowers its own period; when one has none, no grant can lower the
    // bottleneck and filling stops (leftover cores stay unused -- a bigger
    // budget that cannot lower the period only burns power). Otherwise the
    // first of them takes the extension that leaves the lowest bottleneck
    // (big on ties), so branches tied at the bottleneck are filled in turn.
    while (remaining.big + remaining.little > 0) {
        const double current = *std::max_element(periods.begin(), periods.end());
        std::size_t grant_branch = nb;
        core::CoreType grant_type = core::CoreType::big;
        core::ScheduleResult grant_result;
        double grant_bottleneck = kInf;
        bool stuck = false;
        for (std::size_t b = 0; b < nb && !stuck; ++b) {
            if (periods[b] < current)
                continue;
            double rest = 0.0; // bottleneck over the other branches
            for (std::size_t i = 0; i < nb; ++i)
                if (i != b)
                    rest = std::max(rest, periods[i]);
            stuck = true;
            for (const core::CoreType type : {core::CoreType::big, core::CoreType::little}) {
                if ((type == core::CoreType::big ? remaining.big : remaining.little) <= 0)
                    continue;
                core::Resources budget = out.branches[b].budget;
                (type == core::CoreType::big ? budget.big : budget.little) += 1;
                core::ScheduleResult r = probe(b, budget);
                const double p = period_of(b, r);
                if (p >= periods[b])
                    continue;
                stuck = false;
                const bool first_at_bottleneck = grant_branch == nb || grant_branch == b;
                if (first_at_bottleneck && std::max(p, rest) < grant_bottleneck) {
                    grant_branch = b;
                    grant_type = type;
                    grant_result = std::move(r);
                    grant_bottleneck = std::max(p, rest);
                }
            }
        }
        if (stuck)
            break;
        BranchSchedule& bs = out.branches[grant_branch];
        (grant_type == core::CoreType::big ? bs.budget.big : bs.budget.little) += 1;
        (grant_type == core::CoreType::big ? remaining.big : remaining.little) -= 1;
        bs.result = std::move(grant_result);
        periods[grant_branch] = period_of(grant_branch, bs.result);
        bs.period_us = periods[grant_branch];
    }

    std::vector<core::Solution> solutions;
    solutions.reserve(nb);
    for (const BranchSchedule& bs : out.branches)
        solutions.push_back(bs.result.solution);
    out.plan = plan::ExecutionPlan::compile(request.chain, request.shape, solutions,
                                            request.plan_options);
    out.period_us = out.plan.period_us();
    out.ok = true;
    return out;
}

GraphSchedule schedule_graph(const GraphScheduleRequest& request)
{
    return schedule_graph(request, shared_service());
}

} // namespace amp::svc
