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
//   * ResizeStep -- one decide -> solve -> land step around the
//     controller: a grow or shrink decision is re-solved through the
//     warm-start solver (core::WarmStart -- a resize re-solve reuses the
//     retained DP frontier) and handed to a caller-supplied land step.
//   * Autoscaler<T> -- closes the loop on a live pipeline: samples the
//     worst queue-depth fraction from the pipeline's monitor pass
//     (Pipeline::set_monitor_hook, every watchdog tick) and feeds it to a
//     ResizeStep whose land step is one Pipeline::retarget (mid-segment: a
//     frame swap). An on_resize callback lets arb::Arbiter tenants return
//     freed cores to the shared pool (Arbiter::set_quota).
//
// dsim::simulate_autoscale feeds the same ResizeStep in virtual time
// against scripted load profiles; benchmarks/ext_autoscale.cpp measures
// warm vs cold re-solve latency and controller tracking.

#include "core/chain.hpp"
#include "core/scheduler.hpp"
#include "plan/execution_plan.hpp"
#include "rt/pipeline.hpp"
#include "svc/solver_service.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
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
    /// Pool clamps; shrink also never drops the last core. An action adds
    /// or removes one core.
    core::Resources min_pool{0, 1};
    core::Resources max_pool{0, 1};
    /// Which core type a grow tries first (a shrink frees it last).
    core::CoreType grow_first = core::CoreType::little;
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

    /// The legal one-core shrink targets (one per core type with slack),
    /// freeing the reverse of grow_first first. ResizeStep::feed tries them
    /// in order until one lands, so an infeasible first target degrades to
    /// the next candidate instead of absorbing the shrink.
    struct ShrinkCandidates {
        std::array<core::Resources, 2> target{};
        int count = 0;
    };

    [[nodiscard]] static ShrinkCandidates shrink_candidates(const AutoscalePolicy& policy,
                                                            core::Resources current) noexcept
    {
        ShrinkCandidates out;
        const core::CoreType first = policy.grow_first;
        const core::CoreType second = core::other(first);
        for (const core::CoreType type : {second, first}) {
            if (current.count(type) > policy.min_pool.count(type) && current.total() > 1) {
                core::Resources next = current;
                --next.count(type);
                out.target[static_cast<std::size_t>(out.count++)] = next;
            }
        }
        return out;
    }

    /// The deterministic one-action resource step: grow adds one core of
    /// grow_first (falling back to the other type once that axis is at
    /// max_pool), shrink frees the first shrink_candidates() target down to
    /// min_pool, never dropping the last core. nullopt when the clamps
    /// leave no legal step (the decision is absorbed).
    [[nodiscard]] static std::optional<core::Resources>
    stepped(const AutoscalePolicy& policy, core::Resources current, ScaleDecision decision) noexcept
    {
        if (decision == ScaleDecision::hold)
            return std::nullopt;
        const core::CoreType first = policy.grow_first;
        const core::CoreType second = core::other(first);
        core::Resources next = current;
        if (decision == ScaleDecision::grow) {
            for (const core::CoreType type : {first, second}) {
                if (next.count(type) < policy.max_pool.count(type)) {
                    ++next.count(type);
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

/// Counters of one ResizeStep's lifetime.
struct AutoscalerStats {
    std::uint64_t samples = 0;     ///< utilization windows fed
    std::uint64_t grows = 0;       ///< grow actions landed
    std::uint64_t shrinks = 0;     ///< shrink actions landed
    std::uint64_t frame_swaps = 0; ///< landed as SwapOutcome::frame
    std::uint64_t noop_resizes = 0; ///< budget adopted, plan unchanged
    std::uint64_t warm_solves = 0; ///< feasible re-solves that skipped the cold DP
    std::uint64_t clamped = 0;     ///< decisions absorbed by min/max clamps
    std::uint64_t declined = 0;    ///< land steps that reported rebuild_required
    std::uint64_t infeasible = 0;  ///< targets admitting no schedule
};

/// The autoscaler's decide -> solve -> land step, shared by Autoscaler<T>
/// (land = Pipeline::retarget) and dsim::simulate_autoscale (land always
/// succeeds, in virtual time). Each fed sample goes to the controller; a
/// grow re-solves the stepped target, a shrink tries the ordered
/// shrink_candidates() until one lands, so an infeasible or declined
/// first target degrades to the next one instead of absorbing the
/// shrink. Every re-solve is a warm HeRAD request (warm_herad_request) on
/// the DP frontier retained across calls. Single-threaded: Autoscaler<T>
/// guards it with its mutex.
class ResizeStep {
public:
    /// Answers one re-solve request. Autoscaler<T> asks
    /// SolverService::solve_planned for the cached plan it lands; dsim
    /// solves without compiling (plan left null).
    using Solve = std::function<svc::PlannedSchedule(const core::ScheduleRequest&)>;
    /// Lands a feasible re-solve; rebuild_required declines it.
    using Land = std::function<plan::SwapOutcome(const svc::PlannedSchedule&)>;

    /// What one feed() did.
    struct Outcome {
        ScaleDecision decision = ScaleDecision::hold; ///< the controller's verdict
        bool landed = false;     ///< a re-solved target landed
        core::Resources before{};
        core::Resources after{}; ///< == before unless landed
        bool warm = false;       ///< the landed re-solve skipped the cold DP
    };

    /// An unset max clamp would forbid every grow: policy.max_pool defaults
    /// to `initial` on each axis it falls short of.
    ResizeStep(core::TaskChain chain, core::Resources initial, AutoscalePolicy policy,
               core::ScheduleOptions options, Solve solve, Land land);

    /// Feeds one utilization sample taken at `now_ns` and lands the
    /// resulting action, if any.
    Outcome feed(double utilization, std::int64_t now_ns);

    /// One warm HeRAD re-solve of `target` on the retained frontier.
    svc::PlannedSchedule solve(core::Resources target);

    [[nodiscard]] core::Resources current() const noexcept { return current_; }
    [[nodiscard]] const AutoscalerStats& stats() const noexcept { return stats_; }
    [[nodiscard]] const AutoscalePolicy& policy() const noexcept { return policy_; }

private:
    bool try_land(core::Resources target, Outcome& outcome);

    core::TaskChain chain_;
    core::Resources current_;
    AutoscalePolicy policy_;
    core::ScheduleOptions options_;
    Solve solve_;
    Land land_;
    AutoscaleController controller_;
    std::shared_ptr<const core::HeradFrontier> frontier_;
    AutoscalerStats stats_{};
};

struct AutoscalerConfig {
    AutoscalePolicy policy{};
    /// Solver service re-solves go through (null = svc::shared_service()).
    svc::SolverService* service = nullptr;
    core::ScheduleOptions options{};
    /// Invoked (on the feeding thread, i.e. the watchdog) after every
    /// adopted resize with the new budget -- e.g. push
    /// arb::Arbiter::set_quota so freed cores return to the shared pool at
    /// the next rearbitration.
    std::function<void(core::Resources)> on_resize;
};

/// Closes the control loop on one live pipeline. Attach installs the
/// monitor-hook sampler (the installed hook starts the pipeline's watchdog
/// on its own); feed() is the deterministic entry point tests call directly
/// with explicit timestamps.
template <typename T>
class Autoscaler {
public:
    Autoscaler(Pipeline<T>& pipeline, core::TaskChain chain, core::Resources initial,
               AutoscalerConfig config = {})
        : pipeline_(&pipeline)
        , on_resize_(std::move(config.on_resize))
        , step_(std::move(chain), initial, config.policy, config.options,
                [this, service = config.service](const core::ScheduleRequest& request) {
                    svc::SolverService& solver =
                        service != nullptr ? *service : svc::shared_service();
                    return solver.solve_planned(request, pipeline_->execution_plan()->options());
                },
                [this](const svc::PlannedSchedule& planned) {
                    return pipeline_->retarget(*planned.plan);
                })
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
    }

    /// Installs the utilization sampler as the pipeline's monitor hook.
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
        const ResizeStep::Outcome outcome = step_.feed(utilization, now_ns);
        if (!outcome.landed)
            return ScaleDecision::hold;
        if (on_resize_)
            on_resize_(outcome.after);
        return outcome.decision;
    }

    [[nodiscard]] core::Resources current() const
    {
        std::lock_guard lock{mutex_};
        return step_.current();
    }

    [[nodiscard]] AutoscalerStats stats() const
    {
        std::lock_guard lock{mutex_};
        return step_.stats();
    }

private:
    Pipeline<T>* pipeline_;
    std::function<void(core::Resources)> on_resize_;
    ResizeStep step_;
    mutable std::mutex mutex_;
};

} // namespace amp::rt
