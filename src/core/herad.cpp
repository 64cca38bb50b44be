#include "core/herad.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace amp::core {

// Not anonymous: HeradFrontier::Impl (external linkage) embeds Matrix, and
// an anonymous-namespace member type would trip GCC's -Wsubobject-linkage.
namespace herad_impl {

/// One DP cell: the optimal partial solution for (tasks 1..j, b big, l
/// little). `prev_*` index the predecessor cell (state before the last
/// stage), `acc_*` accumulate the cores actually used, `v`/`start` describe
/// the last stage.
struct Cell {
    double pbest = kInfiniteWeight;
    std::uint16_t prev_b = 0;
    std::uint16_t prev_l = 0;
    std::uint16_t acc_b = 0;
    std::uint16_t acc_l = 0;
    CoreType v = CoreType::little;
    std::int32_t start = 0;
};

/// CompareCells (Algo 10): returns the better of the current cell C and the
/// new candidate N. Ties on the period are broken in favour of the solution
/// that exchanges big cores for little ones, then the one using fewer cores.
[[nodiscard]] const Cell& compare_cells(const Cell& current, const Cell& candidate) noexcept
{
    if (candidate.pbest == kInfiniteWeight)
        return current;
    if (current.pbest > candidate.pbest)
        return candidate;
    if (current.pbest == candidate.pbest) {
        const auto cb = current.acc_b;
        const auto cl = current.acc_l;
        const auto nb = candidate.acc_b;
        const auto nl = candidate.acc_l;
        if (cl < nl && cb > nb)
            return candidate; // candidate trades big cores for little ones
        if (cl >= nl && cb >= nb)
            return candidate; // candidate uses no more cores of either type
    }
    return current;
}

/// The DP matrix S[j][rb][rl], j in [0, n], rb in [0, b], rl in [0, l].
class Matrix {
public:
    Matrix(int n, int b, int l)
        : tasks_(n)
        , big_(b)
        , little_(l)
        , stride_b_(static_cast<std::size_t>(l) + 1)
        , stride_j_(static_cast<std::size_t>(b + 1) * stride_b_)
        , cells_(static_cast<std::size_t>(n + 1) * stride_j_)
    {
        // Base case P*(0, ., .) = 0: scheduling zero tasks costs nothing.
        for (std::size_t idx = 0; idx < stride_j_; ++idx)
            cells_[idx].pbest = 0.0;
    }

    [[nodiscard]] Cell& at(int j, int rb, int rl) noexcept
    {
        return cells_[static_cast<std::size_t>(j) * stride_j_
                      + static_cast<std::size_t>(rb) * stride_b_ + static_cast<std::size_t>(rl)];
    }
    [[nodiscard]] const Cell& at(int j, int rb, int rl) const noexcept
    {
        return cells_[static_cast<std::size_t>(j) * stride_j_
                      + static_cast<std::size_t>(rb) * stride_b_ + static_cast<std::size_t>(rl)];
    }

    [[nodiscard]] int tasks() const noexcept { return tasks_; }
    [[nodiscard]] int big() const noexcept { return big_; }
    [[nodiscard]] int little() const noexcept { return little_; }
    [[nodiscard]] std::size_t bytes() const noexcept { return cells_.size() * sizeof(Cell); }

    /// A copy of this matrix embedded into a larger (b, l) budget box; the
    /// new cells stay default-initialized (the extension pass fills them).
    [[nodiscard]] Matrix widened(int b, int l) const
    {
        Matrix out(tasks_, b, l);
        for (int j = 0; j <= tasks_; ++j)
            for (int rb = 0; rb <= big_; ++rb)
                for (int rl = 0; rl <= little_; ++rl)
                    out.at(j, rb, rl) = at(j, rb, rl);
        return out;
    }

private:
    int tasks_;
    int big_;
    int little_;
    std::size_t stride_b_;
    std::size_t stride_j_;
    std::vector<Cell> cells_;
};

/// The single-stage schedule [1, t] on budget (rb, rl) as a pure function
/// of the chain -- the per-cell seed of SingleStageSolution (Algo 8). The
/// extension pass must seed from here rather than from the old matrix: the
/// little column it would otherwise compare against has already been
/// overwritten by RecomputeCell, and reading it would shift period-equal
/// tie-breaks away from the cold solve.
[[nodiscard]] Cell single_stage_seed(int t, int rb, int rl, const TaskChain& chain)
{
    const bool replicable = chain.interval_replicable(1, t);

    Cell little; // pbest stays infinite when rl == 0
    if (rl >= 1) {
        little.pbest = chain.stage_weight(1, t, rl, CoreType::little);
        little.acc_b = 0;
        little.acc_l = static_cast<std::uint16_t>(replicable ? rl : 1);
        little.prev_b = 0;
        little.prev_l = 0;
        little.v = CoreType::little;
        little.start = 1;
    }
    if (rb < 1)
        return little;

    const double w_big = chain.stage_weight(1, t, rb, CoreType::big);
    if (w_big < little.pbest) {
        Cell big;
        big.pbest = w_big;
        big.acc_b = static_cast<std::uint16_t>(replicable ? rb : 1);
        big.acc_l = 0;
        big.prev_b = 0;
        big.prev_l = 0;
        big.v = CoreType::big;
        big.start = 1;
        return big;
    }
    return little;
}

/// SingleStageSolution (Algo 8): seeds row t with the best single-stage
/// schedules [1, t] for every (rb, rl) budget. Budgets inside the
/// (skip_b, skip_l) box already hold final values from a previous solve
/// and are left untouched (cold solves pass -1, -1).
void seed_row(int t, Matrix& S, const TaskChain& chain, int skip_b, int skip_l)
{
    for (int rb = 0; rb <= S.big(); ++rb)
        for (int rl = 0; rl <= S.little(); ++rl) {
            if (rb <= skip_b && rl <= skip_l)
                continue;
            if (rb == 0 && rl == 0)
                continue; // stays infeasible
            S.at(t, rb, rl) = single_stage_seed(t, rb, rl, chain);
        }
}

/// RecomputeCell (Algo 9): computes P*(j, b, l) from all stage starts i and
/// core allocations u of either type, against the single-stage seed and the
/// one-fewer-core neighbor cells.
void recompute_cell(int j, Matrix& S, const TaskChain& chain, int b, int l,
                    const HeradOptions& options)
{
    const bool prune = options.prune;
    Cell best = S.at(j, b, l); // seed from SingleStageSolution
    if (l > 0)
        best = compare_cells(best, S.at(j, b, l - 1));
    if (b > 0)
        best = compare_cells(best, S.at(j, b - 1, l));

    for (int i = j; i >= 1; --i) {
        const bool replicable = chain.interval_replicable(i, j);

        if (prune) {
            // Lightest this stage can possibly be; grows monotonically as i
            // decreases, so once it exceeds the best period we can stop.
            double lower_bound = kInfiniteWeight;
            if (b > 0)
                lower_bound = std::min(
                    lower_bound, chain.stage_weight(i, j, replicable ? b : 1, CoreType::big));
            if (l > 0)
                lower_bound = std::min(
                    lower_bound, chain.stage_weight(i, j, replicable ? l : 1, CoreType::little));
            if (lower_bound > best.pbest)
                break;
        }

        // A stage containing a sequential task cannot exploit extra cores
        // (paper's RecomputeCell optimization): limit u to one core.
        const auto consider = [&](CoreType type, int u) {
            const Cell& prev =
                type == CoreType::big ? S.at(i - 1, b - u, l) : S.at(i - 1, b, l - u);
            if (prev.pbest == kInfiniteWeight)
                return;
            Cell cand;
            cand.pbest = std::max(prev.pbest, chain.stage_weight(i, j, u, type));
            if (type == CoreType::big) {
                cand.acc_b = static_cast<std::uint16_t>(prev.acc_b + (replicable ? u : 1));
                cand.acc_l = prev.acc_l;
                cand.prev_b = static_cast<std::uint16_t>(b - u);
                cand.prev_l = static_cast<std::uint16_t>(l);
            } else {
                cand.acc_b = prev.acc_b;
                cand.acc_l = static_cast<std::uint16_t>(prev.acc_l + (replicable ? u : 1));
                cand.prev_b = static_cast<std::uint16_t>(b);
                cand.prev_l = static_cast<std::uint16_t>(l - u);
            }
            cand.v = type;
            cand.start = i;
            best = compare_cells(best, cand);
        };

        for (int u = 1; u <= (replicable ? b : std::min(b, 1)); ++u)
            consider(CoreType::big, u);
        for (int u = 1; u <= (replicable ? l : std::min(l, 1)); ++u)
            consider(CoreType::little, u);
    }

    S.at(j, b, l) = best;
}

/// ExtractSolution (Algo 11): walks the matrix backwards from (n, b, l).
[[nodiscard]] Solution extract_solution(const Matrix& S, const TaskChain& chain, int b, int l)
{
    std::vector<Stage> stages;
    int e = chain.size();
    int rb = b;
    int rl = l;
    while (e >= 1) {
        const Cell& cell = S.at(e, rb, rl);
        if (cell.pbest == kInfiniteWeight)
            return Solution{}; // unreachable with >= 1 core, kept for safety
        const int s = cell.start;
        int used_b = cell.acc_b;
        int used_l = cell.acc_l;
        if (s > 1) {
            const Cell& prev = S.at(s - 1, cell.prev_b, cell.prev_l);
            used_b -= prev.acc_b;
            used_l -= prev.acc_l;
        }
        const int cores = cell.v == CoreType::big ? used_b : used_l;
        stages.push_back(Stage{s, e, cores, cell.v});
        e = s - 1;
        rb = cell.prev_b;
        rl = cell.prev_l;
    }
    std::reverse(stages.begin(), stages.end());
    return Solution{std::move(stages)};
}

/// Runs the recurrence over every budget outside the (skip_b, skip_l) box.
/// The visit order (rows ascending, then (ub, ul) lexicographic) matches
/// the cold solve's exactly, and every skipped cell already holds the value
/// the cold solve would have computed, so the new cells see bit-identical
/// inputs whether the box is empty (cold) or a previous solve's bounds
/// (extension).
void run_dp(Matrix& S, const TaskChain& chain, const HeradOptions& options, int skip_b = -1,
            int skip_l = -1)
{
    seed_row(1, S, chain, skip_b, skip_l);
    for (int e = 2; e <= S.tasks(); ++e) {
        seed_row(e, S, chain, skip_b, skip_l);
        for (int ub = 0; ub <= S.big(); ++ub)
            for (int ul = 0; ul <= S.little(); ++ul) {
                if (ub <= skip_b && ul <= skip_l)
                    continue;
                if (ub != 0 || ul != 0)
                    recompute_cell(e, S, chain, ub, ul, options);
            }
    }
}

void validate_budget(Resources resources)
{
    if (resources.total() < 1)
        throw std::invalid_argument{"herad: at least one core is required"};
    if (resources.big > 0xffff || resources.little > 0xffff)
        throw std::invalid_argument{"herad: resource counts exceed the DP cell capacity"};
}

} // namespace herad_impl

using herad_impl::extract_solution;
using herad_impl::Matrix;
using herad_impl::run_dp;
using herad_impl::validate_budget;

struct HeradFrontier::Impl {
    Matrix matrix;
    std::uint64_t fingerprint = 0;
    std::uint64_t fingerprint2 = 0;
    bool prune = true;
};

HeradFrontier::HeradFrontier() = default;
HeradFrontier::~HeradFrontier() = default;

int HeradFrontier::tasks() const noexcept { return impl_->matrix.tasks(); }

Resources HeradFrontier::computed() const noexcept
{
    return Resources{impl_->matrix.big(), impl_->matrix.little()};
}

bool HeradFrontier::matches(const TaskChain& chain, const HeradOptions& options) const noexcept
{
    return impl_->matrix.tasks() == chain.size() && impl_->fingerprint == chain.fingerprint()
           && impl_->fingerprint2 == chain.fingerprint2() && impl_->prune == options.prune;
}

std::size_t HeradFrontier::bytes() const noexcept { return impl_->matrix.bytes(); }

/// Internal factory/accessor: keeps Matrix out of the public header while
/// letting the solve paths below build and read frontiers.
struct HeradFrontierAccess {
    [[nodiscard]] static std::shared_ptr<const HeradFrontier>
    make(Matrix matrix, const TaskChain& chain, const HeradOptions& options)
    {
        auto frontier = std::shared_ptr<HeradFrontier>(new HeradFrontier());
        frontier->impl_ = std::make_unique<HeradFrontier::Impl>(HeradFrontier::Impl{
            std::move(matrix), chain.fingerprint(), chain.fingerprint2(), options.prune});
        return frontier;
    }

    [[nodiscard]] static const Matrix& matrix(const HeradFrontier& frontier) noexcept
    {
        return frontier.impl_->matrix;
    }
};

namespace {

[[nodiscard]] Solution finish(Solution solution, const TaskChain& chain,
                              const HeradOptions& options)
{
    if (options.merge_stages)
        solution.merge_replicable_stages(chain);
    return solution;
}

} // namespace {anonymous}

Solution detail::herad(const TaskChain& chain, Resources resources, const HeradOptions& options)
{
    if (chain.empty())
        return Solution{};
    validate_budget(resources);

    Matrix S(chain.size(), resources.big, resources.little);
    run_dp(S, chain, options);
    return finish(extract_solution(S, chain, resources.big, resources.little), chain, options);
}

WarmSolveResult detail::herad_with_frontier(const TaskChain& chain, Resources resources,
                                            const HeradOptions& options)
{
    WarmSolveResult out;
    if (chain.empty())
        return out;
    validate_budget(resources);

    Matrix S(chain.size(), resources.big, resources.little);
    run_dp(S, chain, options);
    out.solution =
        finish(extract_solution(S, chain, resources.big, resources.little), chain, options);
    out.frontier = HeradFrontierAccess::make(std::move(S), chain, options);
    return out;
}

WarmSolveResult detail::herad_warm(const TaskChain& chain, Resources resources,
                                   std::shared_ptr<const HeradFrontier> base,
                                   const HeradOptions& options)
{
    if (base == nullptr || !base->matches(chain, options))
        throw std::invalid_argument{
            "herad_warm: the frontier belongs to a different chain or recurrence options"};
    if (chain.empty())
        return WarmSolveResult{};
    validate_budget(resources);

    const Matrix& computed = HeradFrontierAccess::matrix(*base);
    WarmSolveResult out;
    out.incremental = true;
    if (resources.big <= computed.big() && resources.little <= computed.little()) {
        // Shrink (or repeat): the matrix already holds the optimum for every
        // sub-budget -- a pure backwalk, no recurrence at all.
        out.solution =
            finish(extract_solution(computed, chain, resources.big, resources.little), chain,
                   options);
        out.frontier = std::move(base);
        return out;
    }

    // Grow: widen the budget box and run the recurrence over the new cells
    // only. Bounds take the max per axis so a mixed grow/shrink step still
    // extends one axis and extracts at the other.
    Matrix S = computed.widened(std::max(resources.big, computed.big()),
                                std::max(resources.little, computed.little()));
    run_dp(S, chain, options, computed.big(), computed.little());
    out.solution =
        finish(extract_solution(S, chain, resources.big, resources.little), chain, options);
    out.frontier = HeradFrontierAccess::make(std::move(S), chain, options);
    return out;
}

double herad_optimal_period(const TaskChain& chain, Resources resources)
{
    return detail::herad(chain, resources).period(chain);
}

} // namespace amp::core
