#pragma once
// Graph scheduling: splits a plan::GraphShape into linear branch sub-chains,
// solves each through the (linear-only) core::schedule path via the
// SolverService, and stitches the per-branch solutions into one DAG
// ExecutionPlan with a combined period bound.
//
// Core allocation is greedy water-filling: each branch is seeded with one
// core, then the remaining cores go one at a time to the branches at the
// bottleneck -- the max over branches of the branch period, which is
// exactly the stitched plan's period_us(). Each round the first branch at
// the bottleneck takes the one-core extension that leaves the lowest
// bottleneck; filling stops when a branch at the bottleneck has no
// extension that lowers its own period. Every probe is a plain service
// solve, so repeated probes of the same (branch, budget) pair hit the
// solution cache; the key is content-based, so a branch sub-chain and an
// identical standalone chain share one entry (docs/SOLVER_SERVICE.md).

#include "plan/execution_plan.hpp"
#include "svc/solver_service.hpp"

#include <string>
#include <vector>

namespace amp::svc {

struct GraphScheduleRequest {
    /// Global branch-concatenated chain (e.g. dvbs2::GraphWorkload::chain)
    /// with per-task weights; chain.size() must equal shape.tasks().
    core::TaskChain chain;
    plan::GraphShape shape;
    core::Resources resources;
    core::Strategy strategy = core::Strategy::herad;
    core::ScheduleOptions options{};
    plan::PlanOptions plan_options{};
};

/// One branch's allocation and solve outcome.
struct BranchSchedule {
    core::Resources budget;
    core::ScheduleResult result; ///< solution in local (per-branch) task ids
    double period_us = 0.0;
};

struct GraphSchedule {
    bool ok = false;
    std::string error;            ///< set when !ok
    plan::ExecutionPlan plan;     ///< stitched DAG plan (valid when ok)
    std::vector<BranchSchedule> branches;
    double period_us = 0.0;       ///< combined bound: max branch period
    int solves = 0;               ///< solver probes issued (cache-amortized)
};

/// Splits the global chain into per-branch sub-chains (local 1-based task
/// ids). Throws plan::PlanError when the chain and shape disagree.
[[nodiscard]] std::vector<core::TaskChain> branch_chains(const core::TaskChain& chain,
                                                         const plan::GraphShape& shape);

/// Solves the graph on `service`. Never throws for infeasibility (reported
/// via GraphSchedule::error); throws plan::PlanError on a malformed shape.
[[nodiscard]] GraphSchedule schedule_graph(const GraphScheduleRequest& request,
                                           SolverService& service);

/// Convenience overload on the process-wide shared_service().
[[nodiscard]] GraphSchedule schedule_graph(const GraphScheduleRequest& request);

} // namespace amp::svc
