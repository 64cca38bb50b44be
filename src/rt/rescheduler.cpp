#include "rt/rescheduler.hpp"

#include <algorithm>
#include <cmath>
#include <string>

namespace amp::rt {

core::ScheduleRequest warm_herad_request(const core::TaskChain& chain, core::Resources resources,
                                         const core::ScheduleOptions& options,
                                         std::shared_ptr<const core::HeradFrontier> frontier)
{
    core::ScheduleRequest request{chain, resources, core::Strategy::herad, options};
    request.warm.frontier = std::move(frontier);
    request.warm.keep_frontier = true;
    return request;
}

Rescheduler::Rescheduler(core::TaskChain chain, core::Resources resources,
                         ReschedulePolicy policy)
    : chain_(std::move(chain))
    , resources_(resources)
    , policy_(policy)
{
    solution_ = recompute();
}

core::Solution Rescheduler::recompute()
{
    if (chain_.empty())
        throw NoScheduleError{"Rescheduler: empty chain"};
    if (resources_.total() < 1)
        throw NoScheduleError{"Rescheduler: no cores left to schedule on"};

    // HeRAD is period-optimal (paper §V), so no other strategy can beat it;
    // its frontier answers a lost core with a backwalk, bit-identical to a
    // cold solve.
    svc::SolverService& service =
        policy_.service != nullptr ? *policy_.service : svc::shared_service();
    const core::ScheduleResult result =
        service.solve(warm_herad_request(chain_, resources_, {}, frontier_));
    if (!result.ok())
        throw NoScheduleError{"Rescheduler: HeRAD found no schedule on R = ("
                              + std::to_string(resources_.big) + ", "
                              + std::to_string(resources_.little) + ")"};
    if (result.frontier != nullptr)
        frontier_ = result.frontier;
    solution_ = result.solution;
    return solution_;
}

core::Solution Rescheduler::on_core_loss(core::CoreType type, int count)
{
    remove_cores(type, count);
    return recompute();
}

void Rescheduler::remove_cores(core::CoreType type, int count)
{
    resources_.count(type) = std::max(0, resources_.count(type) - count);
}

std::optional<core::Solution> Rescheduler::observe(const TelemetrySnapshot& telemetry)
{
    const std::vector<obs::HistogramSnapshot>& big_us = telemetry.big_us;
    const std::vector<obs::HistogramSnapshot>& little_us = telemetry.little_us;
    if (big_us.empty() && little_us.empty())
        return std::nullopt; // load-only snapshot: nothing for the drift detector

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

    if (max_drift <= policy_.drift_threshold) {
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
    if (drift_streak_ < policy_.drift_patience)
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
    return recompute();
}

} // namespace amp::rt
