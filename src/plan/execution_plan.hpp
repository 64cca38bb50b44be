#pragma once
// Compiled execution-plan IR: the one place a core::Solution is turned into
// the facts every executor needs.
//
// rt::Pipeline, dsim::simulate and the recovery path in rt::Controller all
// used to re-derive the same structure from a raw Solution -- stage task
// intervals, core-type bindings, replica counts, queue topology -- each with
// its own ad-hoc audit. ExecutionPlan::compile performs that derivation and
// validation once, loudly (PlanError on anything malformed), and the
// executors consume the resulting IR:
//
//   * PlanStage   -- task interval, core type, replica count, sequential
//                    constraint, per-frame service weight, worker ids, and
//                    explicit predecessor/successor stage edges with the
//                    input/output queues that realize them
//   * WorkerSlot  -- one replica slot; compile() numbers them 0..N-1,
//                    stage-major
//   * QueueSpec   -- inter-stage queue endpoints and capacities; a linear
//                    plan has exactly one queue between consecutive stages
//                    (queue i connects stage i to stage i+1), a graph plan
//                    one queue per stage edge plus one drain queue
//
// A plan is a series-parallel DAG of stages described by a plan::GraphShape
// (graph_shape.hpp); the historical linear chain is the one-branch
// degenerate case and compiles bit-identically to the pre-DAG IR. Graph
// plans are stitched from per-branch solutions: each branch is a linear
// sub-chain solved independently, and the combined period bound is the max
// over all stages -- exactly period_us().
//
// resize_only(from, to) is the one swap rule: a target that differs from
// the running plan in replica counts alone lands in place
// (rt::Pipeline::retarget reports SwapOutcome::frame and publishes the
// target itself); anything else -- a recut, a rebind, another chain length,
// queue capacity or queue topology -- needs a rebuild
// (docs/EXECUTION_PLAN.md).

#include "core/chain.hpp"
#include "core/solution.hpp"
#include "plan/graph_shape.hpp"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace amp::plan {

/// Executor-independent knobs baked into the plan (mirrors the shape of
/// rt::PipelineConfig without depending on rt).
struct PlanOptions {
    std::size_t queue_capacity = 8; ///< per inter-stage queue, in frames
    [[nodiscard]] constexpr bool operator==(const PlanOptions&) const noexcept = default;
};

/// One replica slot of one stage; compile() numbers the slots 0..N-1 in
/// stage-major order.
struct WorkerSlot {
    int id = 0;
    int stage = 0;
    int slot = 0; ///< position within the stage, 0-based
    core::CoreType type = core::CoreType::big;
};

/// One pipeline stage of the compiled plan.
struct PlanStage {
    int index = 0;
    int first = 0; ///< 1-based inclusive task interval [first, last]
    int last = 0;
    int replicas = 1;
    core::CoreType type = core::CoreType::big;
    bool replicated = false;  ///< replicas > 1
    bool sequential = false;  ///< interval contains a non-replicable task
    double service_us = 0.0;  ///< interval weight on `type`; 0 without a profile
    std::vector<int> worker_ids; ///< WorkerSlot ids, slot order
    int branch = 0;              ///< GraphShape branch this stage belongs to
    std::vector<int> preds;      ///< predecessor stage indices; empty == source
    std::vector<int> succs;      ///< successor stage indices; empty == sink
    std::vector<int> in_queues;  ///< queue indices feeding this stage, pred order
    std::vector<int> out_queues; ///< queue indices this stage pushes to (incl. drain)

    [[nodiscard]] int task_count() const noexcept { return last - first + 1; }
};

/// One inter-stage queue. consumer_stage == kDrain marks the drain queue,
/// drained in stream order by the executor's output side. A fan-out stage
/// produces into several queues (one per successor); a fan-in stage consumes
/// several, merging envelopes of equal sequence number.
struct QueueSpec {
    static constexpr int kDrain = -1;

    int index = 0;
    int producer_stage = 0;
    int consumer_stage = kDrain;
    std::size_t capacity = 8;
};

/// How a retarget onto a new plan landed on a running executor
/// (rt::Pipeline::retarget; arb::TenantEndpoint::apply reports the same).
enum class SwapOutcome : std::uint8_t {
    none,             ///< same plan; nothing changed
    frame,            ///< resize-only change landed in place, no drain
    rebuild_required, ///< executor untouched; the owner must rebuild it
};

[[nodiscard]] constexpr const char* to_string(SwapOutcome outcome) noexcept
{
    switch (outcome) {
    case SwapOutcome::none: return "none";
    case SwapOutcome::frame: return "frame";
    case SwapOutcome::rebuild_required: return "rebuild_required";
    }
    return "?";
}

/// Validated, immutable execution plan. Copyable; a copy is an independent
/// plan with the same worker ids.
class ExecutionPlan {
public:
    ExecutionPlan() = default;

    /// Compiles a profiled plan: structure from `solution`, per-stage
    /// service weights from `chain`. Throws PlanError when the solution is
    /// empty, does not tile [1, n] contiguously, assigns a stage fewer than
    /// one core, or replicates an interval containing a sequential task.
    [[nodiscard]] static ExecutionPlan compile(const core::TaskChain& chain,
                                               const core::Solution& solution,
                                               PlanOptions options = {});

    /// Structure-only compile for executors that have no task-weight
    /// profile (service_us stays 0; has_profile() is false).
    [[nodiscard]] static ExecutionPlan compile(const ChainShape& shape,
                                               const core::Solution& solution,
                                               PlanOptions options = {});

    /// Compiles a graph plan from per-branch solutions. `branch_solutions`
    /// holds one solution per GraphShape branch, each in *local* task
    /// coordinates (1-based within its branch sub-chain); compile() offsets
    /// them into the global task order and stitches the stages into one
    /// plan, wiring one queue per stage edge plus a drain queue after the
    /// sink stage. A one-branch graph reproduces the linear layout exactly.
    /// Throws PlanError on an invalid graph or any malformed branch
    /// solution (same rules as the linear path, applied per branch).
    [[nodiscard]] static ExecutionPlan compile(const GraphShape& graph,
                                               const std::vector<core::Solution>& branch_solutions,
                                               PlanOptions options = {});

    /// Profiled graph compile: `chain` is the global branch-concatenated
    /// task order (graph.chain must match its shape).
    [[nodiscard]] static ExecutionPlan compile(const core::TaskChain& chain,
                                               const GraphShape& graph,
                                               const std::vector<core::Solution>& branch_solutions,
                                               PlanOptions options = {});

    [[nodiscard]] const std::vector<PlanStage>& stages() const noexcept { return stages_; }
    [[nodiscard]] const PlanStage& stage(std::size_t i) const { return stages_.at(i); }
    [[nodiscard]] std::size_t stage_count() const noexcept { return stages_.size(); }
    [[nodiscard]] const std::vector<QueueSpec>& queues() const noexcept { return queues_; }
    [[nodiscard]] const std::vector<WorkerSlot>& workers() const noexcept { return workers_; }
    [[nodiscard]] int worker_count() const noexcept { return static_cast<int>(workers_.size()); }

    [[nodiscard]] const core::Solution& solution() const noexcept { return solution_; }
    [[nodiscard]] const PlanOptions& options() const noexcept { return options_; }
    [[nodiscard]] const ChainShape& shape() const noexcept { return shape_; }
    [[nodiscard]] const GraphShape& graph() const noexcept { return graph_; }
    [[nodiscard]] int task_count() const noexcept { return shape_.tasks; }

    /// True for the degenerate one-branch (chain-shaped) plan. Recovery
    /// paths that re-solve through the linear core::schedule entry point
    /// only accept linear plans.
    [[nodiscard]] bool linear() const noexcept { return graph_.is_linear(); }

    /// The unique stage with no predecessors / no successors. For a linear
    /// plan these are 0 and stage_count() - 1.
    [[nodiscard]] int source_stage() const noexcept { return source_stage_; }
    [[nodiscard]] int sink_stage() const noexcept { return sink_stage_; }

    /// True when the plan was compiled from a TaskChain (service weights
    /// and chain() are meaningful).
    [[nodiscard]] bool has_profile() const noexcept { return chain_.has_value(); }
    [[nodiscard]] const core::TaskChain& chain() const { return chain_.value(); }

    /// Model period in us: max over stages of service_us / replicas for
    /// replicable intervals (0 without a profile). Matches Solution::period.
    [[nodiscard]] double period_us() const noexcept;

    /// Human-readable one-liner, e.g. "[1,1]x1B | [2,5]x3L (cap 8)".
    [[nodiscard]] std::string summary() const;

private:
    ChainShape shape_;
    GraphShape graph_;
    std::optional<core::TaskChain> chain_;
    core::Solution solution_; ///< stitched global solution, branch-major
    PlanOptions options_;
    std::vector<PlanStage> stages_;
    std::vector<QueueSpec> queues_;
    std::vector<WorkerSlot> workers_;
    int source_stage_ = 0;
    int sink_stage_ = 0;
};

/// True when `to` differs from `from` in replica counts alone, so an
/// executor running `from` can land it in place (SwapOutcome::frame): same
/// task count, same stage intervals and core types, same queue capacity,
/// and the same producer and consumer for every queue. A recut, a rebind,
/// another chain length or queue capacity, or rewired edges (e.g. a DAG
/// plan against a linear plan on the same cut) all return false.
[[nodiscard]] bool resize_only(const ExecutionPlan& from, const ExecutionPlan& to);

} // namespace amp::plan
