#pragma once
// Structural shapes the plan layer validates against.
//
// ChainShape is the paper's object: a line of tasks with per-task
// replicability. GraphShape generalizes it to a series-parallel DAG of
// *branches* -- maximal linear runs of tasks -- with explicit
// predecessor/successor edges between them. The global task order is the
// concatenation of the branches in index order, so every branch owns a
// contiguous 1-based interval [first, last] of the global chain and all the
// linear machinery (interval sums, stage tiling, solver sub-chains) applies
// per branch unchanged. A linear chain is the degenerate one-branch graph.
//
// GraphShape is deliberately solver-free: core::schedule still solves linear
// chains only. svc::schedule_graph splits a graph into branch sub-chains,
// solves each through the service, and ExecutionPlan::compile stitches the
// per-branch solutions back into one plan (see execution_plan.hpp).

#include "core/chain.hpp"

#include <stdexcept>
#include <vector>

namespace amp::plan {

/// Raised by compile() and GraphShape::validate() on a malformed solution
/// or graph. Derives from std::invalid_argument so callers that used to
/// catch the executors' ad-hoc validation errors keep working.
class PlanError : public std::invalid_argument {
public:
    using std::invalid_argument::invalid_argument;
};

/// The structural facts compile() validates against: task count and per-task
/// replicability. Derivable from a core::TaskChain (the profiled path) or
/// from an rt::TaskSequence's stateful flags (the runtime-only path).
struct ChainShape {
    int tasks = 0;
    std::vector<bool> replicable; ///< replicable[i - 1] for task i (1-based)

    [[nodiscard]] static ChainShape of(const core::TaskChain& chain);
    [[nodiscard]] bool task_replicable(int i) const
    {
        return replicable.at(static_cast<std::size_t>(i - 1));
    }
};

/// One maximal linear run of tasks inside a GraphShape. Owns the contiguous
/// global task interval [first, last] (1-based, inclusive); edges reference
/// other branches by index and always point from a lower index to a higher
/// one (the branch list is topologically ordered).
struct GraphBranch {
    int index = 0;
    int first = 0;
    int last = 0;
    std::vector<int> preds; ///< branch indices, ascending; empty == source
    std::vector<int> succs; ///< branch indices, ascending; empty == sink

    [[nodiscard]] int task_count() const noexcept { return last - first + 1; }
};

/// A series-parallel DAG of branches over one global task order. Invariants
/// (validate() throws PlanError otherwise):
///   * branches tile [1, chain.tasks] contiguously in index order;
///   * every edge points forward (succ > index) and preds mirror succs;
///   * exactly one source branch (no preds) and one sink branch (no succs),
///     which with forward-only edges makes the graph weakly connected.
struct GraphShape {
    ChainShape chain;                 ///< global task order, branch-concatenated
    std::vector<GraphBranch> branches;

    /// The degenerate one-branch graph every linear chain compiles through.
    [[nodiscard]] static GraphShape linear(ChainShape shape);
    [[nodiscard]] static GraphShape of(const core::TaskChain& chain);

    [[nodiscard]] int tasks() const noexcept { return chain.tasks; }
    [[nodiscard]] int branch_count() const noexcept { return static_cast<int>(branches.size()); }
    [[nodiscard]] bool is_linear() const noexcept { return branches.size() <= 1; }

    /// Index of the unique pred-less / succ-less branch. Only meaningful on
    /// a validated shape.
    [[nodiscard]] int source_branch() const;
    [[nodiscard]] int sink_branch() const;

    void validate() const;
};

} // namespace amp::plan
