#include "rt/autoscaler.hpp"

#include "rt/rescheduler.hpp"

#include <algorithm>

namespace amp::rt {

namespace {

/// A service cache hit skipped the cold DP just like the incremental path
/// did (cached copies are frontier-stripped, so it can't also report
/// warm_start); both count as warm, keeping rt and dsim traces equal.
bool skipped_cold_dp(const core::ScheduleResult& result) noexcept
{
    return result.warm_start || result.cache_hit;
}

} // namespace

ResizeStep::ResizeStep(core::TaskChain chain, core::Resources initial, AutoscalePolicy policy,
                       core::ScheduleOptions options, Solve solve, Land land)
    : chain_(std::move(chain))
    , current_(initial)
    , policy_(policy)
    , options_(options)
    , solve_(std::move(solve))
    , land_(std::move(land))
{
    policy_.max_pool.big = std::max(policy_.max_pool.big, initial.big);
    policy_.max_pool.little = std::max(policy_.max_pool.little, initial.little);
    controller_ = AutoscaleController{policy_};
}

ResizeStep::Outcome ResizeStep::feed(double utilization, std::int64_t now_ns)
{
    ++stats_.samples;
    Outcome outcome;
    outcome.decision = controller_.observe(utilization, now_ns);
    outcome.before = current_;
    outcome.after = current_;
    if (outcome.decision == ScaleDecision::hold)
        return outcome;

    // A grow has one stepped target; a shrink tries every legal candidate
    // in preference order.
    AutoscaleController::ShrinkCandidates targets;
    if (outcome.decision == ScaleDecision::shrink) {
        targets = AutoscaleController::shrink_candidates(policy_, current_);
    } else if (const auto grown =
                   AutoscaleController::stepped(policy_, current_, ScaleDecision::grow)) {
        targets.target[0] = *grown;
        targets.count = 1;
    }
    if (targets.count == 0) {
        ++stats_.clamped;
        return outcome;
    }
    for (int i = 0; i < targets.count && !outcome.landed; ++i)
        outcome.landed = try_land(targets.target[static_cast<std::size_t>(i)], outcome);
    if (outcome.landed)
        ++(outcome.decision == ScaleDecision::grow ? stats_.grows : stats_.shrinks);
    return outcome;
}

svc::PlannedSchedule ResizeStep::solve(core::Resources target)
{
    svc::PlannedSchedule planned = solve_(warm_herad_request(chain_, target, options_, frontier_));
    if (planned.result.ok()) {
        if (planned.result.frontier != nullptr)
            frontier_ = planned.result.frontier;
        if (skipped_cold_dp(planned.result))
            ++stats_.warm_solves;
    }
    return planned;
}

bool ResizeStep::try_land(core::Resources target, Outcome& outcome)
{
    const svc::PlannedSchedule planned = solve(target);
    if (!planned.result.ok()) {
        ++stats_.infeasible;
        return false;
    }
    switch (land_(planned)) {
    case plan::SwapOutcome::none:
        // The changed budget buys (or costs) nothing schedulable -- adopt it
        // without touching the executor. A shrink hands the idle core back
        // (on_resize tells the arbiter); a grow stops repeating once the
        // clamp is reached.
        ++stats_.noop_resizes;
        break;
    case plan::SwapOutcome::frame: ++stats_.frame_swaps; break;
    case plan::SwapOutcome::rebuild_required: ++stats_.declined; return false;
    }
    current_ = target;
    outcome.after = target;
    outcome.warm = skipped_cold_dp(planned.result);
    return true;
}

} // namespace amp::rt
