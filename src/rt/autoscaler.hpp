#pragma once
// Load-driven autoscaling (docs/AUTOSCALING.md).
//
// Two pieces, split so the policy is testable without threads:
//
//   * AutoscaleController -- a pure, deterministic target-utilization
//     controller: hysteresis band around the target, patience debouncing,
//     a cooldown between actions, and min/max pool clamps. Feed it one
//     utilization sample per observation window and it answers
//     hold/grow/shrink.
//   * Autoscaler<T> -- closes the loop on a live pipeline: samples the
//     worst queue-depth fraction from the pipeline's overload monitor
//     (Pipeline::set_monitor_hook, watchdog thread), re-solves the changed
//     budget through the warm-start solver (core::WarmStart -- a resize
//     re-solve reuses the retained DP frontier), and lands the resulting
//     plan with one Pipeline::retarget (mid-segment: a frame swap). An
//     on_resize callback lets arb::Arbiter tenants return freed cores to
//     the shared pool (Arbiter::set_quota).
//
// dsim::simulate_autoscale drives the same controller and solver in
// virtual time against scripted load profiles; benchmarks/ext_autoscale.cpp
// measures warm vs cold re-solve latency and controller tracking.

#include "core/chain.hpp"
#include "core/power.hpp"
#include "core/scheduler.hpp"
#include "plan/execution_plan.hpp"
#include "rt/pipeline.hpp"
#include "rt/rescheduler.hpp"
#include "svc/admission.hpp"
#include "svc/solver_service.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

namespace amp::rt {

/// One controller verdict per observation window.
enum class ScaleDecision : std::uint8_t { hold, grow, shrink };

[[nodiscard]] constexpr const char* to_string(ScaleDecision decision) noexcept
{
    switch (decision) {
    case ScaleDecision::hold: return "hold";
    case ScaleDecision::grow: return "grow";
    case ScaleDecision::shrink: return "shrink";
    }
    return "?";
}

/// Target-utilization policy. Utilization is whatever signal the caller
/// feeds -- the live Autoscaler uses the worst queue-depth fraction, dsim
/// uses offered load over capacity -- and the hysteresis band
/// [shrink_below, grow_above] brackets the target so small fluctuations
/// decide nothing.
struct AutoscalePolicy {
    /// Steering midpoint; only reporting (tracking error) reads it, the
    /// decisions come from the band below.
    double target_utilization = 0.65;
    /// Grow when utilization stays above this for `patience` windows.
    double grow_above = 0.85;
    /// Shrink when utilization stays below this for `patience` windows.
    double shrink_below = 0.40;
    /// Consecutive out-of-band windows before acting (debounce).
    int patience = 3;
    /// Minimum nanoseconds between two actions. Streaks keep accumulating
    /// during the cooldown, so a persistent signal acts on the first
    /// window after it expires.
    std::int64_t cooldown_ns = 500'000'000;
    /// Cores added/removed per action (of one type at a time).
    int step = 1;
    /// Pool clamps; shrink also never drops the last core.
    core::Resources min_pool{0, 1};
    core::Resources max_pool{0, 1};
    /// Which core type a grow tries first (a shrink frees it last).
    core::CoreType grow_first = core::CoreType::little;
    /// Energy-aware scale-down (docs/ENERGY.md): order shrink candidates by
    /// the power of the RESULTING allocation, ascending, so a shrink frees
    /// the most expensive cores first (under the default model: big before
    /// little, regardless of grow_first). Ties keep the legacy
    /// reverse-of-grow order, so the flag is behavior-neutral under a
    /// uniform power model.
    bool shrink_cheapest_first = false;
    /// Rates for the ordering above; unused unless shrink_cheapest_first.
    core::PowerModel power{};
};

/// The pure controller. Single-threaded by design; Autoscaler<T> guards it
/// with its own mutex, dsim and tests drive it directly.
class AutoscaleController {
public:
    AutoscaleController() = default;
    explicit AutoscaleController(AutoscalePolicy policy)
        : policy_(policy)
    {
    }

    /// Feeds one utilization sample taken at steady-clock time `now_ns`.
    [[nodiscard]] ScaleDecision observe(double utilization, std::int64_t now_ns) noexcept
    {
        if (utilization > policy_.grow_above) {
            ++grow_streak_;
            shrink_streak_ = 0;
        } else if (utilization < policy_.shrink_below) {
            ++shrink_streak_;
            grow_streak_ = 0;
        } else {
            grow_streak_ = 0;
            shrink_streak_ = 0;
        }
        if (acted_ && now_ns - last_action_ns_ < policy_.cooldown_ns)
            return ScaleDecision::hold;
        if (grow_streak_ >= policy_.patience) {
            grow_streak_ = 0;
            acted_ = true;
            last_action_ns_ = now_ns;
            return ScaleDecision::grow;
        }
        if (shrink_streak_ >= policy_.patience) {
            shrink_streak_ = 0;
            acted_ = true;
            last_action_ns_ = now_ns;
            return ScaleDecision::shrink;
        }
        return ScaleDecision::hold;
    }

    /// The legal one-step shrink targets (one per core type with slack),
    /// best first. Legacy order frees the reverse of grow_first; with
    /// policy.shrink_cheapest_first the candidates are reordered by the
    /// power of the resulting allocation, ascending (ties keep the legacy
    /// order). Autoscaler::feed tries them in order until one lands, so an
    /// infeasible cheapest target degrades to the next candidate instead of
    /// absorbing the shrink.
    struct ShrinkCandidates {
        std::array<core::Resources, 2> target{};
        int count = 0;
    };

    [[nodiscard]] static ShrinkCandidates shrink_candidates(const AutoscalePolicy& policy,
                                                            core::Resources current) noexcept
    {
        ShrinkCandidates out;
        if (policy.step < 1)
            return out;
        const core::CoreType first = policy.grow_first;
        const core::CoreType second = core::other(first);
        for (const core::CoreType type : {second, first}) {
            core::Resources next = current;
            const int slack = next.count(type) - policy.min_pool.count(type);
            const int take = std::min({policy.step, slack, next.total() - 1});
            if (take > 0) {
                next.count(type) -= take;
                out.target[static_cast<std::size_t>(out.count++)] = next;
            }
        }
        if (policy.shrink_cheapest_first && out.count == 2) {
            const auto allocation_watts = [&policy](core::Resources r) noexcept {
                return static_cast<double>(r.big) * policy.power.big_watts
                    + static_cast<double>(r.little) * policy.power.little_watts;
            };
            if (allocation_watts(out.target[1]) < allocation_watts(out.target[0]))
                std::swap(out.target[0], out.target[1]);
        }
        return out;
    }

    /// The deterministic one-action resource step: grow adds policy.step
    /// cores of grow_first (falling back to the other type once that axis
    /// is at max_pool), shrink frees the first shrink_candidates() target
    /// down to min_pool, never dropping the last core. nullopt when the
    /// clamps leave no legal step (the decision is absorbed).
    [[nodiscard]] static std::optional<core::Resources>
    stepped(const AutoscalePolicy& policy, core::Resources current, ScaleDecision decision) noexcept
    {
        if (decision == ScaleDecision::hold || policy.step < 1)
            return std::nullopt;
        const core::CoreType first = policy.grow_first;
        const core::CoreType second = core::other(first);
        core::Resources next = current;
        if (decision == ScaleDecision::grow) {
            for (const core::CoreType type : {first, second}) {
                const int room = policy.max_pool.count(type) - next.count(type);
                if (room > 0) {
                    next.count(type) += std::min(policy.step, room);
                    return next;
                }
            }
            return std::nullopt;
        }
        const ShrinkCandidates candidates = shrink_candidates(policy, current);
        if (candidates.count == 0)
            return std::nullopt;
        return candidates.target[0];
    }

    [[nodiscard]] const AutoscalePolicy& policy() const noexcept { return policy_; }
    [[nodiscard]] int grow_streak() const noexcept { return grow_streak_; }
    [[nodiscard]] int shrink_streak() const noexcept { return shrink_streak_; }

private:
    AutoscalePolicy policy_{};
    int grow_streak_ = 0;
    int shrink_streak_ = 0;
    bool acted_ = false;
    std::int64_t last_action_ns_ = 0;
};

/// Counters of one Autoscaler's lifetime (all under its mutex).
struct AutoscalerStats {
    std::uint64_t samples = 0;     ///< utilization windows fed
    std::uint64_t grows = 0;       ///< grow actions landed on the pipeline
    std::uint64_t shrinks = 0;     ///< shrink actions landed
    std::uint64_t frame_swaps = 0; ///< landed mid-segment (SwapOutcome::frame)
    std::uint64_t noop_resizes = 0; ///< budget adopted, plan unchanged
    std::uint64_t warm_solves = 0; ///< re-solves that skipped the cold DP (warm or cache hit)
    std::uint64_t clamped = 0;     ///< decisions absorbed by min/max clamps
    std::uint64_t declined = 0;    ///< retargets that reported rebuild_required
    std::uint64_t infeasible = 0;  ///< targets admitting no schedule
};

struct AutoscalerConfig {
    AutoscalePolicy policy{};
    /// How scale actions may land (Pipeline::retarget). frame_first (the
    /// default) is the only policy that lands while a segment is in
    /// flight; stricter policies decline live swaps (counted, pipeline
    /// untouched).
    SwapPolicy swap = SwapPolicy::frame_first;
    /// Solver service re-solves go through (null = svc::shared_service()).
    svc::SolverService* service = nullptr;
    core::ScheduleOptions options{};
    /// Reclaim budget for the in-flight swap.
    std::chrono::milliseconds reclaim_timeout{200};
    /// Invoked (on the feeding thread, i.e. the watchdog) after every
    /// adopted resize with the new budget -- e.g. push
    /// arb::Arbiter::set_quota so freed cores return to the shared pool at
    /// the next rearbitration.
    std::function<void(core::Resources)> on_resize;
};

/// Closes the control loop on one live pipeline. Attach installs the
/// monitor-hook sampler (requires PipelineConfig::overload.enabled);
/// feed()/observe() are the deterministic entry points tests and dsim call
/// directly with explicit timestamps.
template <typename T>
class Autoscaler {
public:
    Autoscaler(Pipeline<T>& pipeline, core::TaskChain chain, core::Resources initial,
               AutoscalerConfig config = {})
        : pipeline_(&pipeline)
        , chain_(std::move(chain))
        , current_(initial)
        , config_(std::move(config))
        , controller_(config_.policy)
    {
        // Autoscaling re-solves the chain as one linear pipeline and
        // retargets the wrapped pipeline onto it. A DAG plan's stage cut
        // never matches such a candidate (every retarget would report a
        // queue-topology change), so refuse up front instead of silently
        // declining every resize. Graph plans rescale through
        // svc::schedule_graph + a new Pipeline.
        if (!pipeline_->execution_plan()->linear())
            throw std::invalid_argument{
                "Autoscaler: the pipeline runs a DAG plan; autoscaling "
                "requires a linear (single-branch) plan"};
        // An unset max clamp would forbid every grow; default to "resize
        // within the initial budget per axis, at least one of each present".
        if (config_.policy.max_pool.big < initial.big)
            config_.policy.max_pool.big = initial.big;
        if (config_.policy.max_pool.little < initial.little)
            config_.policy.max_pool.little = initial.little;
        controller_ = AutoscaleController{config_.policy};
    }

    /// Installs the utilization sampler on the pipeline's overload monitor.
    /// Call between runs only (monitor hooks install like loss handlers).
    void attach()
    {
        pipeline_->set_monitor_hook([this](double worst_queue_frac) {
            const auto now = std::chrono::steady_clock::now().time_since_epoch();
            (void)feed(worst_queue_frac,
                       std::chrono::duration_cast<std::chrono::nanoseconds>(now).count());
        });
    }

    /// Removes the sampler (between runs only).
    void detach() { pipeline_->set_monitor_hook({}); }

    /// Feeds one utilization sample at an explicit timestamp and lands any
    /// resulting action. Returns the decision that actually LANDED (hold
    /// when the controller held, the clamp absorbed it, the target was
    /// infeasible, or the pipeline declined the swap).
    ScaleDecision feed(double utilization, std::int64_t now_ns)
    {
        std::lock_guard lock{mutex_};
        ++stats_.samples;
        const ScaleDecision decision = controller_.observe(utilization, now_ns);
        if (decision == ScaleDecision::hold)
            return ScaleDecision::hold;
        if (decision == ScaleDecision::shrink) {
            // Try every legal shrink target in preference order (cheapest
            // resulting allocation first under shrink_cheapest_first): a
            // target the solver can't schedule shouldn't absorb the shrink
            // while the other axis still has cores to give back.
            const auto candidates =
                AutoscaleController::shrink_candidates(config_.policy, current_);
            if (candidates.count == 0) {
                ++stats_.clamped;
                return ScaleDecision::hold;
            }
            for (int i = 0; i < candidates.count; ++i) {
                if (resize_locked(candidates.target[static_cast<std::size_t>(i)])) {
                    ++stats_.shrinks;
                    return ScaleDecision::shrink;
                }
            }
            return ScaleDecision::hold;
        }
        const auto target = AutoscaleController::stepped(config_.policy, current_, decision);
        if (!target) {
            ++stats_.clamped;
            return ScaleDecision::hold;
        }
        if (!resize_locked(*target))
            return ScaleDecision::hold;
        ++stats_.grows;
        return decision;
    }

    /// Telemetry-snapshot entry point (the same type Rescheduler::observe
    /// consumes): feeds the queue-depth signal when the snapshot carries
    /// one.
    ScaleDecision observe(const TelemetrySnapshot& telemetry)
    {
        if (telemetry.queue_depth_frac < 0.0)
            return ScaleDecision::hold;
        return feed(telemetry.queue_depth_frac, telemetry.at_ns);
    }

    [[nodiscard]] core::Resources current() const
    {
        std::lock_guard lock{mutex_};
        return current_;
    }

    [[nodiscard]] AutoscalerStats stats() const
    {
        std::lock_guard lock{mutex_};
        return stats_;
    }

private:
    /// Re-solves `target` warm and retargets the pipeline onto the result
    /// under the configured SwapPolicy. Called under mutex_.
    bool resize_locked(core::Resources target)
    {
        core::ScheduleRequest request{chain_, target, core::Strategy::herad, config_.options};
        request.priority = svc::kRecoveryPriority;
        request.warm.frontier = frontier_;
        request.warm.keep_frontier = true;

        svc::SolverService& service =
            config_.service != nullptr ? *config_.service : svc::shared_service();
        svc::PlannedSchedule planned =
            service.solve_planned(request, pipeline_->execution_plan()->options());
        if (!planned.result.ok() || planned.plan == nullptr) {
            ++stats_.infeasible;
            return false;
        }
        if (planned.result.frontier != nullptr)
            frontier_ = std::move(planned.result.frontier);
        // A service cache hit skipped the cold DP just like the incremental
        // path did (cached copies are frontier-stripped, so it can't also
        // report warm_start); both count as warm for the tracking stats.
        if (planned.result.warm_start || planned.result.cache_hit)
            ++stats_.warm_solves;

        switch (pipeline_->retarget(*planned.plan, config_.swap, config_.reclaim_timeout)) {
        case plan::SwapOutcome::none:
            // The changed budget buys (or costs) nothing schedulable --
            // adopt it without touching the pipeline. A shrink hands the
            // idle core back (on_resize tells the arbiter); a grow stops
            // repeating once the clamp is reached.
            ++stats_.noop_resizes;
            break;
        case plan::SwapOutcome::frame: ++stats_.frame_swaps; break;
        case plan::SwapOutcome::drained: break;
        case plan::SwapOutcome::rebuild_required: ++stats_.declined; return false;
        }
        current_ = target;
        if (config_.on_resize)
            config_.on_resize(target);
        return true;
    }

    Pipeline<T>* pipeline_;
    core::TaskChain chain_;
    core::Resources current_;
    AutoscalerConfig config_;
    AutoscaleController controller_;
    std::shared_ptr<const core::HeradFrontier> frontier_;
    AutoscalerStats stats_{};
    mutable std::mutex mutex_;
};

} // namespace amp::rt
