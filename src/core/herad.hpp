#pragma once
// HeRAD -- Heterogeneous Resource Allocation using Dynamic programming
// (paper §V, Eq. 4, Algos 7-11).
//
// Computes the optimal period P*(j, b, l) for every prefix of the chain and
// every resource budget, with the paper's secondary objective (use as many
// little cores as necessary) enforced through CompareCells tie-breaking.
// O(n^2 b l (b + l)) time and O(n b l) space, with two refinements:
//   * the paper's optimization: a stage containing a sequential task only
//     considers a single core (extra cores cannot reduce its weight), and
//   * a sound lower-bound break on the stage-start loop: once the lightest
//     possible stage weight already exceeds the cell's current best period,
//     extending the stage further cannot help.
//
// Warm starts: every DP cell (j, rb, rl) depends only on cells with
// coordinate-wise smaller budgets (and on per-cell seeds that are pure
// functions of the chain), so a matrix computed for budget (B, L) answers
// ANY sub-budget by a pure backwalk and a larger budget by computing only
// the new budget cells. HeradFrontier retains that matrix between solves;
// the autoscaling control loop re-solves ±k-core steps through it at a
// small fraction of the cold cost (docs/AUTOSCALING.md).

#include "core/chain.hpp"
#include "core/solution.hpp"

#include <cstddef>
#include <cstdint>
#include <memory>

namespace amp::core {

struct HeradOptions {
    /// Merge consecutive replicable stages of the same core type after
    /// extraction (period-neutral, fewer stages). Paper §V.
    bool merge_stages = true;
    /// Enable the lower-bound break described above (sound; on by default).
    bool prune = true;
};

/// Retained DP frontier of a previous HeRAD solve: the full matrix
/// P*(j, rb, rl) for every chain prefix and every budget up to the bounds
/// it was computed for. Immutable and shareable across threads; a grow
/// produces a NEW frontier with wider bounds, never mutates this one.
class HeradFrontier {
public:
    ~HeradFrontier();
    HeradFrontier(const HeradFrontier&) = delete;
    HeradFrontier& operator=(const HeradFrontier&) = delete;

    /// Chain length the frontier was computed for.
    [[nodiscard]] int tasks() const noexcept;
    /// Budget bounds the retained matrix covers.
    [[nodiscard]] Resources computed() const noexcept;
    /// True when the frontier can answer solves of `chain` under `options`
    /// bit-identically to a cold solve: same chain content (both
    /// fingerprints and the task count) and the same recurrence-affecting
    /// options. prune is matched conservatively; merge_stages is a
    /// post-extraction pass and may differ freely.
    [[nodiscard]] bool matches(const TaskChain& chain, const HeradOptions& options) const noexcept;
    /// Approximate heap footprint of the retained matrix; callers caching
    /// results should strip frontiers (svc::SolverService does).
    [[nodiscard]] std::size_t bytes() const noexcept;

private:
    friend struct HeradFrontierAccess;
    HeradFrontier();
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// A solution plus the frontier that can warm-start the next re-solve.
struct WarmSolveResult {
    Solution solution;
    std::shared_ptr<const HeradFrontier> frontier;
    /// True when a previous frontier was actually reused (backwalk or
    /// extension) instead of running the full recurrence.
    bool incremental = false;
};

namespace detail {

/// Full HeRAD schedule; optimal in period and little-core usage. Callers
/// outside the scheduling library itself should go through the unified
/// core::schedule(ScheduleRequest) API (core/scheduler.hpp).
[[nodiscard]] Solution herad(const TaskChain& chain, Resources resources,
                             const HeradOptions& options = {});

/// Cold HeRAD solve that additionally retains the DP frontier for reuse.
[[nodiscard]] WarmSolveResult herad_with_frontier(const TaskChain& chain, Resources resources,
                                                  const HeradOptions& options = {});

/// Warm re-solve against the frontier of a previous solve of the SAME
/// chain under the SAME recurrence options (base->matches(chain, options)
/// must hold; throws std::invalid_argument otherwise -- callers check
/// applicability and fall back to herad_with_frontier). A budget within
/// the frontier's bounds is answered by a pure backwalk; a larger budget
/// extends a widened copy with only the new budget cells. Either way the
/// solution is bit-identical to a cold solve at `resources`.
[[nodiscard]] WarmSolveResult herad_warm(const TaskChain& chain, Resources resources,
                                         std::shared_ptr<const HeradFrontier> base,
                                         const HeradOptions& options = {});

} // namespace detail

/// The optimal period P*(n, b, l) alone (runs the same DP).
[[nodiscard]] double herad_optimal_period(const TaskChain& chain, Resources resources);

} // namespace amp::core
