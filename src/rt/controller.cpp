#include "rt/controller.hpp"

#include <cmath>
#include <string>

namespace amp::rt {

namespace {

bool skipped_cold_dp(const core::ScheduleResult& result) noexcept
{
    return result.warm_start || result.cache_hit;
}

} // namespace

Controller::Controller(core::TaskChain chain, core::Resources budget, ControlConfig config)
    : chain_(std::move(chain))
    , budget_(budget)
    , config_(std::move(config))
{
    config_.policy.max_pool.big = std::max(config_.policy.max_pool.big, budget.big);
    config_.policy.max_pool.little = std::max(config_.policy.max_pool.little, budget.little);
    band_ = AutoscaleController{config_.policy};
    planned_ = solve(budget_);
    if (!planned_.ok())
        throw NoScheduleError{"Controller: HeRAD found no schedule on R = ("
                              + std::to_string(budget.big) + ", "
                              + std::to_string(budget.little) + ")"};
}

svc::PlannedSchedule Controller::solve(core::Resources target)
{
    if (chain_.empty() || target.total() < 1)
        return {};
    // HeRAD is period-optimal (paper §V), so no other strategy can beat it;
    // its frontier answers a lost core with a backwalk, bit-identical to a
    // cold solve.
    core::ScheduleRequest request{chain_, target, core::Strategy::herad};
    request.warm.frontier = frontier_;
    request.warm.keep_frontier = true;
    svc::SolverService& service =
        config_.service != nullptr ? *config_.service : svc::shared_service();
    svc::PlannedSchedule planned = service.solve_planned(request, plan_options_);
    if (planned.ok() && planned.result.frontier != nullptr)
        frontier_ = planned.result.frontier;
    return planned;
}

void Controller::announce(const ControlRecord& record) const
{
    if (config_.on_resize && record.after != record.before)
        config_.on_resize(record.after);
}

ControlRecord Controller::loss(const std::vector<core::CoreType>& lost)
{
    ControlRecord record{.trigger = ControlTrigger::loss};
    {
        std::lock_guard lock{mutex_};
        record.before = budget_;
        for (const core::CoreType type : lost)
            budget_.count(type) = std::max(0, budget_.count(type) - 1);
        record.after = budget_;
        svc::PlannedSchedule next = solve(budget_);
        if (!next.ok()) {
            record.result = StepResult::infeasible;
        } else {
            record.result = StepResult::planned;
            record.warm = skipped_cold_dp(next.result);
            record.swap = land_ ? land_(next) : plan::SwapOutcome::none;
            planned_ = std::move(next);
        }
    }
    announce(record);
    return record;
}

ControlRecord Controller::load(double utilization, std::int64_t now_ns)
{
    ControlRecord record{.trigger = ControlTrigger::load};
    {
        std::lock_guard lock{mutex_};
        ++samples_;
        record.before = budget_;
        record.after = budget_;
        record.decision = band_.observe(utilization, now_ns);
        // A grow has one stepped target; a shrink tries every legal
        // candidate in preference order.
        AutoscaleController::ShrinkCandidates targets;
        if (record.decision == ScaleDecision::shrink) {
            targets = AutoscaleController::shrink_candidates(config_.policy, budget_);
        } else if (const auto grown =
                       AutoscaleController::stepped(config_.policy, budget_, record.decision)) {
            targets.target[0] = *grown;
            targets.count = 1;
        }
        for (int i = 0; i < targets.count; ++i) {
            const core::Resources target = targets.target[static_cast<std::size_t>(i)];
            svc::PlannedSchedule next = solve(target);
            if (!next.ok()) {
                record.result = StepResult::infeasible;
                record.swap = plan::SwapOutcome::none;
                continue;
            }
            record.result = StepResult::planned;
            record.swap = land_ ? land_(next) : plan::SwapOutcome::none;
            if (record.swap == plan::SwapOutcome::rebuild_required)
                continue; // declined: the executor is untouched, the budget holds
            // none: the changed budget buys (or costs) nothing schedulable --
            // adopt it without touching the executor. A shrink hands the idle
            // core back (on_resize tells the arbiter); a grow stops repeating
            // once the clamp is reached.
            budget_ = target;
            record.after = target;
            record.warm = skipped_cold_dp(next.result);
            planned_ = std::move(next);
            break;
        }
    }
    announce(record);
    return record;
}

ControlRecord Controller::grant(core::Resources budget, const svc::PlannedSchedule& next)
{
    std::lock_guard lock{mutex_};
    ControlRecord record{.trigger = ControlTrigger::grant,
                         .result = StepResult::planned,
                         .before = budget_,
                         .after = budget};
    budget_ = budget;
    planned_ = next;
    record.swap = land_ ? land_(next) : plan::SwapOutcome::none;
    return record;
}

std::optional<core::Solution> Controller::observe(const TelemetrySnapshot& telemetry)
{
    const std::vector<obs::HistogramSnapshot>& big_us = telemetry.big_us;
    const std::vector<obs::HistogramSnapshot>& little_us = telemetry.little_us;
    if (big_us.empty() && little_us.empty())
        return std::nullopt; // load-only snapshot: nothing for the drift detector

    std::lock_guard lock{mutex_};
    const auto n = static_cast<std::size_t>(chain_.size());
    if (big_us.size() != n || little_us.size() != n)
        throw std::invalid_argument{"observe: snapshot vectors must match chain size"};

    // Drift signal: p95 of the observed latency distribution against the
    // weight the schedule was computed for. Tasks without samples on a core
    // type contribute no drift and keep their scheduled weight.
    double max_drift = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const int task = static_cast<int>(i) + 1;
        const double ref_big = chain_.weight(task, core::CoreType::big);
        const double ref_little = chain_.weight(task, core::CoreType::little);
        if (ref_big > 0.0 && !big_us[i].empty())
            max_drift = std::max(max_drift, std::abs(big_us[i].p95_us() - ref_big) / ref_big);
        if (ref_little > 0.0 && !little_us[i].empty())
            max_drift =
                std::max(max_drift, std::abs(little_us[i].p95_us() - ref_little) / ref_little);
    }

    if (max_drift <= config_.drift_threshold) {
        // Streak broken: the partial sums belong to an abandoned streak and
        // must not leak into a future rebuild.
        drift_streak_ = 0;
        drifted_big_.clear();
        drifted_little_.clear();
        return std::nullopt;
    }
    ++drift_streak_;
    if (drifted_big_.size() != n || drifted_little_.size() != n) {
        drifted_big_.assign(n, 0.0);
        drifted_little_.assign(n, 0.0);
    }
    // Accumulate this window's means; the rebuild below averages over the
    // whole streak, so every drifted window carries equal weight instead of
    // only the one that happened to arrive last.
    for (std::size_t i = 0; i < n; ++i) {
        const int task = static_cast<int>(i) + 1;
        drifted_big_[i] += big_us[i].empty() ? chain_.weight(task, core::CoreType::big)
                                             : big_us[i].mean_us();
        drifted_little_[i] += little_us[i].empty()
            ? chain_.weight(task, core::CoreType::little)
            : little_us[i].mean_us();
    }
    if (drift_streak_ < config_.drift_patience)
        return std::nullopt;

    // Sustained drift: rebuild the chain around the streak-average observed
    // weights and recompute the schedule.
    const double inv_streak = 1.0 / static_cast<double>(drift_streak_);
    std::vector<core::TaskDesc> descs;
    descs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const core::TaskDesc& old = chain_.task(static_cast<int>(i) + 1);
        descs.push_back(core::TaskDesc{old.name, drifted_big_[i] * inv_streak,
                                       drifted_little_[i] * inv_streak, old.replicable});
    }
    chain_ = core::TaskChain{std::move(descs)};
    drift_streak_ = 0;
    drifted_big_.clear();
    drifted_little_.clear();
    svc::PlannedSchedule next = solve(budget_);
    if (!next.ok())
        throw NoScheduleError{"Controller: HeRAD found no schedule for the re-profiled chain"};
    planned_ = std::move(next);
    return planned_.result.solution;
}

void Controller::bind(Land land, plan::PlanOptions options)
{
    std::lock_guard lock{mutex_};
    land_ = std::move(land);
    plan_options_ = options;
}

core::TaskChain Controller::chain() const
{
    std::lock_guard lock{mutex_};
    return chain_;
}

core::Resources Controller::budget() const
{
    std::lock_guard lock{mutex_};
    return budget_;
}

svc::PlannedSchedule Controller::planned() const
{
    std::lock_guard lock{mutex_};
    return planned_;
}

core::Solution Controller::solution() const
{
    std::lock_guard lock{mutex_};
    return planned_.result.solution;
}

std::uint64_t Controller::samples() const
{
    std::lock_guard lock{mutex_};
    return samples_;
}

int Controller::drift_streak() const
{
    std::lock_guard lock{mutex_};
    return drift_streak_;
}

} // namespace amp::rt
