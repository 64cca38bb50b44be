#include "plan/execution_plan.hpp"

#include <algorithm>
#include <sstream>

namespace amp::plan {

ExecutionPlan ExecutionPlan::compile(const GraphShape& graph,
                                     const std::vector<core::Solution>& branch_solutions,
                                     PlanOptions options)
{
    ExecutionPlan p;
    p.shape_ = graph.chain;
    p.graph_ = graph;
    p.options_ = options;
    if (p.options_.queue_capacity == 0)
        p.options_.queue_capacity = 1; // the queues clamp the same way

    const ChainShape& shape = p.shape_;
    if (shape.tasks <= 0 || shape.replicable.size() != static_cast<std::size_t>(shape.tasks))
        throw PlanError{"plan: chain shape is empty or inconsistent"};
    graph.validate();
    if (branch_solutions.size() != graph.branches.size())
        throw PlanError{"plan: need exactly one solution per graph branch"};

    // Stitch: branches in index order, stages within a branch in order. The
    // branch intervals tile [1, n] contiguously, so the stitched stage list
    // tiles it too and every linear invariant (solution rebuild, period)
    // holds unchanged.
    std::vector<core::Stage> stitched;
    std::vector<int> branch_head(graph.branches.size(), 0);
    std::vector<int> branch_tail(graph.branches.size(), 0);
    for (std::size_t b = 0; b < graph.branches.size(); ++b) {
        const GraphBranch& branch = graph.branches[b];
        const core::Solution& solution = branch_solutions[b];
        if (solution.empty())
            throw PlanError{"plan: empty solution"};

        const int offset = branch.first - 1; // local task 1 == global task branch.first
        branch_head[b] = static_cast<int>(p.stages_.size());
        int expected = branch.first;
        for (const core::Stage& st : solution.stages()) {
            const int first = st.first + offset;
            const int last = st.last + offset;
            if (first != expected || last < first)
                throw PlanError{"plan: stages must tile the chain contiguously"};
            if (last > branch.last)
                throw PlanError{"plan: stage interval exceeds the chain"};
            if (st.cores < 1)
                throw PlanError{"plan: every stage needs at least one core"};

            PlanStage stage;
            stage.index = static_cast<int>(p.stages_.size());
            stage.first = first;
            stage.last = last;
            stage.replicas = st.cores;
            stage.type = st.type;
            stage.replicated = st.cores > 1;
            stage.sequential = false;
            stage.branch = branch.index;
            for (int i = first; i <= last; ++i)
                if (!shape.task_replicable(i))
                    stage.sequential = true;
            if (stage.replicated && stage.sequential)
                throw PlanError{"plan: replicated stage [" + std::to_string(first) + ", "
                                + std::to_string(last) + "] contains a sequential task"};

            stage.worker_ids.reserve(static_cast<std::size_t>(st.cores));
            for (int slot = 0; slot < st.cores; ++slot) {
                const int id = static_cast<int>(p.workers_.size());
                stage.worker_ids.push_back(id);
                p.workers_.push_back(WorkerSlot{id, stage.index, slot, stage.type});
            }
            stitched.push_back(core::Stage{first, last, st.cores, st.type});
            p.stages_.push_back(std::move(stage));
            expected = last + 1;
        }
        if (expected != branch.last + 1)
            throw PlanError{"plan: solution does not cover the whole chain"};
        branch_tail[b] = static_cast<int>(p.stages_.size()) - 1;
    }
    p.solution_ = core::Solution{std::move(stitched)};

    // Stage edges: linear within a branch, branch edges tail -> head.
    for (std::size_t b = 0; b < graph.branches.size(); ++b) {
        for (int s = branch_head[b]; s < branch_tail[b]; ++s) {
            p.stages_[static_cast<std::size_t>(s)].succs.push_back(s + 1);
            p.stages_[static_cast<std::size_t>(s) + 1].preds.push_back(s);
        }
        for (const int succ : graph.branches[b].succs) {
            p.stages_[static_cast<std::size_t>(branch_tail[b])].succs.push_back(
                branch_head[static_cast<std::size_t>(succ)]);
            p.stages_[static_cast<std::size_t>(branch_head[static_cast<std::size_t>(succ)])]
                .preds.push_back(branch_tail[b]);
        }
    }
    for (PlanStage& stage : p.stages_) {
        std::sort(stage.preds.begin(), stage.preds.end());
        std::sort(stage.succs.begin(), stage.succs.end());
    }

    // Queues: one per stage edge in producer order, the sink stage feeding
    // the drain. For a linear plan this is exactly the historical layout
    // (queue i connects stage i to stage i + 1; the last one drains).
    const int k = static_cast<int>(p.stages_.size());
    for (int s = 0; s < k; ++s) {
        PlanStage& stage = p.stages_[static_cast<std::size_t>(s)];
        if (stage.succs.empty()) {
            const int q = static_cast<int>(p.queues_.size());
            p.queues_.push_back(QueueSpec{q, s, QueueSpec::kDrain, p.options_.queue_capacity});
            stage.out_queues.push_back(q);
            p.sink_stage_ = s;
            continue;
        }
        for (const int succ : stage.succs) {
            const int q = static_cast<int>(p.queues_.size());
            p.queues_.push_back(QueueSpec{q, s, succ, p.options_.queue_capacity});
            stage.out_queues.push_back(q);
            p.stages_[static_cast<std::size_t>(succ)].in_queues.push_back(q);
        }
    }
    p.source_stage_ = branch_head[static_cast<std::size_t>(graph.source_branch())];
    return p;
}

ExecutionPlan ExecutionPlan::compile(const core::TaskChain& chain, const GraphShape& graph,
                                     const std::vector<core::Solution>& branch_solutions,
                                     PlanOptions options)
{
    ExecutionPlan p = compile(graph, branch_solutions, options);
    if (chain.size() != graph.chain.tasks)
        throw PlanError{"plan: chain does not match the graph's task count"};
    p.chain_ = chain;
    for (PlanStage& stage : p.stages_)
        stage.service_us = chain.interval_sum(stage.first, stage.last, stage.type);
    return p;
}

ExecutionPlan ExecutionPlan::compile(const ChainShape& shape, const core::Solution& solution,
                                     PlanOptions options)
{
    // Pre-graph shape errors surfaced before graph validation; keep that
    // order for the degenerate path.
    if (shape.tasks <= 0 || shape.replicable.size() != static_cast<std::size_t>(shape.tasks))
        throw PlanError{"plan: chain shape is empty or inconsistent"};
    return compile(GraphShape::linear(shape), {solution}, options);
}

ExecutionPlan ExecutionPlan::compile(const core::TaskChain& chain, const core::Solution& solution,
                                     PlanOptions options)
{
    ExecutionPlan p = compile(ChainShape::of(chain), solution, options);
    p.chain_ = chain;
    for (PlanStage& stage : p.stages_)
        stage.service_us = chain.interval_sum(stage.first, stage.last, stage.type);
    return p;
}

double ExecutionPlan::period_us() const noexcept
{
    double period = 0.0;
    for (const PlanStage& stage : stages_) {
        const double weight = stage.sequential
            ? stage.service_us
            : stage.service_us / static_cast<double>(stage.replicas);
        period = std::max(period, weight);
    }
    return period;
}

std::string ExecutionPlan::summary() const
{
    std::ostringstream out;
    for (std::size_t s = 0; s < stages_.size(); ++s) {
        const PlanStage& stage = stages_[s];
        if (s > 0)
            out << " | ";
        out << '[' << stage.first << ',' << stage.last << "]x" << stage.replicas
            << core::to_string(stage.type);
        if (!linear())
            out << "@b" << stage.branch;
    }
    out << " (cap " << options_.queue_capacity << ')';
    return out.str();
}

bool resize_only(const ExecutionPlan& from, const ExecutionPlan& to)
{
    if (from.task_count() != to.task_count() || from.stage_count() != to.stage_count()
        || from.options().queue_capacity != to.options().queue_capacity
        || from.queues().size() != to.queues().size())
        return false;
    for (std::size_t s = 0; s < from.stage_count(); ++s) {
        const PlanStage& a = from.stage(s);
        const PlanStage& b = to.stage(s);
        if (a.first != b.first || a.last != b.last || a.type != b.type)
            return false;
    }
    // Queues hold in-flight frames: rewired edges (a DAG plan against a
    // linear plan on the same cut, another branch structure) never swap in
    // place.
    for (std::size_t q = 0; q < from.queues().size(); ++q)
        if (from.queues()[q].producer_stage != to.queues()[q].producer_stage
            || from.queues()[q].consumer_stage != to.queues()[q].consumer_stage)
            return false;
    return true;
}

} // namespace amp::plan
