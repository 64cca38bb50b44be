#pragma once
// rt::Controller -- the one owner of a pipeline's resource budget
// (docs/AUTOSCALING.md §3, docs/FAULT_MODEL.md §5-6, docs/ARBITER.md).
//
// The paper answers every change of R = (b, l) with one HeRAD solve (§V).
// A Controller holds the chain, the budget, the HeRAD DP frontier of its
// last solve and the current plan, and takes three events:
//
//   * loss(types)  -- the watchdog fenced workers: the budget drops by
//                     every lost core, then one solve;
//   * load(u, now) -- one utilization sample: the AutoscaleController
//                     band decides grow / shrink / hold, then one solve per
//                     target tried;
//   * grant(R, p)  -- the arbiter granted budget R with its already-solved
//                     plan p: adopted as is, no second solve.
//
// Each event is one step -- decide the budget, one warm HeRAD
// solve_planned, hand the plan to a `land` callable -- and returns one
// ControlRecord. PipelineControl<T> binds `land` to Pipeline::retarget;
// run_with_recovery drives the loss step across pipeline rebuilds, and
// dsim::simulate (core-loss replay) and dsim::simulate_autoscale drive the
// same class in virtual time with a land step of their own.

#include "arb/arbiter.hpp"
#include "core/chain.hpp"
#include "core/scheduler.hpp"
#include "obs/histogram.hpp"
#include "plan/execution_plan.hpp"
#include "rt/pipeline.hpp"
#include "svc/solver_service.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace amp::rt {

/// Raised when recovery is impossible (no cores left, or HeRAD finds no
/// schedule on the degraded resources).
class NoScheduleError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

// -- the load band ----------------------------------------------------------

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
/// feeds -- the live monitor hook uses the worst queue-depth fraction, dsim
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

/// The pure band. Single-threaded by design; Controller guards it with its
/// own mutex, tests drive it directly.
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
    /// freeing the reverse of grow_first first. Controller::load tries them
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

// -- the controller ---------------------------------------------------------

/// One observation window of per-task latency telemetry, the input of
/// Controller::observe's drift detection.
struct TelemetrySnapshot {
    /// Per-task latency histograms, 1-based task order, one per core type.
    /// Leave both vectors empty to skip drift detection entirely; leave an
    /// element empty when the task did not run on that core type this
    /// window.
    std::vector<obs::HistogramSnapshot> big_us;
    std::vector<obs::HistogramSnapshot> little_us;
};

struct ControlConfig {
    /// The load band (load() only). An unset max clamp would forbid every
    /// grow: policy.max_pool defaults to the initial budget on each axis it
    /// falls short of.
    AutoscalePolicy policy{};
    /// Relative p95 drift vs. the scheduled weight (max over tasks) that
    /// counts a latency report as drifted (observe() only).
    double drift_threshold = 0.25;
    /// Consecutive drifted reports before the chain is re-profiled and the
    /// schedule recomputed (debounces transient load spikes).
    int drift_patience = 3;
    /// Solver service every solve goes through (a repeated solve of the
    /// same (chain, budget) pair hits its cache). Null means the
    /// process-wide svc::shared_service().
    svc::SolverService* service = nullptr;
    /// Invoked after every loss or load step that changed the budget, with
    /// the new budget -- e.g. push arb::Arbiter::set_quota so freed cores
    /// return to the shared pool at the next rearbitration. Runs on the
    /// stepping thread after the controller's lock is released: the arbiter
    /// calls apply (and with it grant) under its own lock, so calling back
    /// into it under ours could deadlock. A grant never calls it.
    std::function<void(core::Resources)> on_resize;
};

enum class ControlTrigger : std::uint8_t { loss, load, grant };

/// How far one step got.
enum class StepResult : std::uint8_t {
    held,       ///< no solve: the band held, or a clamp absorbed its verdict
    infeasible, ///< HeRAD found no schedule on the target budget
    planned,    ///< a plan went to land; `swap` says how it landed
};

/// What one step did. A loss always shrinks the budget (the cores are gone)
/// and a grant always adopts it; a load step adopts its target only when
/// land took the plan (frame, or none: the new budget buys no new plan),
/// trying shrink candidates in order.
struct ControlRecord {
    ControlTrigger trigger = ControlTrigger::load;
    ScaleDecision decision = ScaleDecision::hold; ///< load: the band's verdict
    StepResult result = StepResult::held;
    core::Resources before{};
    core::Resources after{};
    /// The step's solve skipped the cold DP: a frontier backwalk, or a
    /// service cache hit (cached copies carry no frontier); both count, so
    /// rt and dsim traces stay equal. A grant solves nothing: false.
    bool warm = false;
    plan::SwapOutcome swap = plan::SwapOutcome::none;

    [[nodiscard]] bool operator==(const ControlRecord&) const noexcept = default;
};

class Controller {
public:
    /// Lands a solved plan on the executor; rebuild_required declines it.
    using Land = std::function<plan::SwapOutcome(const svc::PlannedSchedule&)>;

    /// Solves the initial budget (not counted as a step); throws
    /// NoScheduleError when it admits no schedule.
    Controller(core::TaskChain chain, core::Resources budget, ControlConfig config = {});

    Controller(const Controller&) = delete;
    Controller& operator=(const Controller&) = delete;

    /// Removes one core per entry of `lost` and solves once for all of
    /// them. The plan is adopted whatever land reports: on rebuild_required
    /// the owner rebuilds its executor from planned().
    ControlRecord loss(const std::vector<core::CoreType>& lost);

    /// Feeds one utilization sample taken at `now_ns` to the band and lands
    /// the resulting action, if any.
    ControlRecord load(double utilization, std::int64_t now_ns);

    /// Adopts an arbiter grant: `budget` and the plan already solved for it.
    ControlRecord grant(core::Resources budget, const svc::PlannedSchedule& next);

    /// Feeds one telemetry window: runs drift detection over the per-task
    /// latency histograms when the snapshot carries any. A task counts as
    /// drifted when its p95 departs from the scheduled weight by more than
    /// drift_threshold (relative). After drift_patience consecutive drifted
    /// windows, the chain is rebuilt around the observed mean latencies and
    /// the schedule recomputed and adopted (not landed); returns the new
    /// solution then, nullopt otherwise. Throws NoScheduleError when the
    /// rebuilt chain admits no schedule.
    std::optional<core::Solution> observe(const TelemetrySnapshot& telemetry);

    /// Points the land step at an executor whose plans use `options`
    /// (an empty `land` unbinds: steps then adopt without landing).
    void bind(Land land, plan::PlanOptions options = {});

    [[nodiscard]] core::TaskChain chain() const;
    [[nodiscard]] core::Resources budget() const;
    [[nodiscard]] svc::PlannedSchedule planned() const;
    [[nodiscard]] core::Solution solution() const;
    /// Load samples fed so far.
    [[nodiscard]] std::uint64_t samples() const;
    /// Consecutive drifted reports seen so far (for tests/metrics).
    [[nodiscard]] int drift_streak() const;

private:
    /// One warm HeRAD solve of `target` on the retained frontier (empty on
    /// a budget without cores). Caller holds mutex_.
    svc::PlannedSchedule solve(core::Resources target);
    /// Runs on_resize for a step that changed the budget, outside mutex_.
    void announce(const ControlRecord& record) const;

    mutable std::mutex mutex_;
    core::TaskChain chain_;
    core::Resources budget_;
    ControlConfig config_;
    AutoscaleController band_;
    svc::PlannedSchedule planned_;
    /// HeRAD frontier from the last solve that returned one (a cache hit
    /// returns none). One that no longer matches chain_, after a drift
    /// rebuild, only makes the next solve run cold.
    std::shared_ptr<const core::HeradFrontier> frontier_;
    Land land_;
    plan::PlanOptions plan_options_{};
    std::uint64_t samples_ = 0;
    int drift_streak_ = 0;
    /// Running *sums* of the per-window observed means across the current
    /// drift streak (averaged at rebuild time; cleared when the streak
    /// resets), so the rebuilt chain reflects the whole streak rather than
    /// whichever window happened to arrive last.
    std::vector<double> drifted_big_;
    std::vector<double> drifted_little_;
};

// -- the pipeline binding ---------------------------------------------------

/// Binds a Controller to one live linear pipeline: land is
/// Pipeline::retarget (mid-segment, a frame swap), every fence is a loss
/// step, attach() adds the monitor hook's utilization samples as load
/// steps, and apply() takes arbiter grants (arb::Arbiter::bind_endpoint).
/// Construct and destroy between runs; the binding must not outlive the
/// pipeline or the controller, and a controller serves one binding at a
/// time.
template <typename T>
class PipelineControl final : public arb::TenantEndpoint {
public:
    /// Installs `on_loss` as the loss handler when given (the owner wraps
    /// the loss step with its own accounting, as run_with_recovery does),
    /// else one loss step per fence that reports a frame swap as restored.
    /// Throws std::invalid_argument on a DAG plan: the controller re-solves
    /// the chain as one linear pipeline, whose stage cut a DAG plan never
    /// matches (every retarget would be a queue-topology change). Graph
    /// plans rescale through svc::schedule_graph and a new Pipeline.
    PipelineControl(Controller& controller, Pipeline<T>& pipeline,
                    typename Pipeline<T>::LossHandler on_loss = {})
        : controller_(&controller)
        , pipeline_(&pipeline)
    {
        const auto running = pipeline.execution_plan();
        if (!running->linear())
            throw std::invalid_argument{
                "PipelineControl: the pipeline runs a DAG plan; the controller "
                "requires a linear (single-branch) plan"};
        controller.bind(
            [&pipeline](const svc::PlannedSchedule& next) { return pipeline.retarget(*next.plan); },
            running->options());
        if (!on_loss)
            on_loss = [&controller](const WorkerLoss& loss) {
                return controller.loss({loss.type}).swap == plan::SwapOutcome::frame;
            };
        pipeline.set_loss_handler(std::move(on_loss));
    }

    PipelineControl(const PipelineControl&) = delete;
    PipelineControl& operator=(const PipelineControl&) = delete;

    ~PipelineControl() override
    {
        detach();
        pipeline_->set_loss_handler({});
        controller_->bind({});
    }

    /// Installs the utilization sampler as the pipeline's monitor hook (the
    /// installed hook starts the pipeline's watchdog on its own).
    void attach()
    {
        pipeline_->set_monitor_hook([controller = controller_](double worst_queue_frac) {
            const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch());
            (void)controller->load(worst_queue_frac, now.count());
        });
    }

    void detach() { pipeline_->set_monitor_hook({}); }

    [[nodiscard]] plan::SwapOutcome apply(core::Resources budget,
                                          const svc::PlannedSchedule& next) override
    {
        return controller_->grant(budget, next).swap;
    }

private:
    Controller* controller_;
    Pipeline<T>* pipeline_;
};

// -- fault-tolerant runs ----------------------------------------------------

/// Aggregated outcome of a fault-tolerant run (one pipeline, possibly
/// hot-swapped several times).
struct RecoveryReport {
    RunResult total;        ///< summed frames/drops/retries; wall-clock elapsed
    int recoveries = 0;     ///< schedule hot-swaps performed
    double recovery_latency_seconds = 0.0; ///< failure detection -> first resumed frame
    std::vector<core::Solution> solutions; ///< initial + one per recovery
    bool completed = false; ///< stream reached num_frames
    /// Recoveries retargeted mid-segment (SwapOutcome::frame, no drain: the
    /// stream never stopped).
    int frame_swaps = 0;
    /// Recoveries that drained and rebuilt the pipeline; every recovery is
    /// one or the other: frame_swaps + rebuild_swaps == recoveries.
    int rebuild_swaps = 0;
    /// Time spent in loss steps that frame-swapped (solve + retarget) and
    /// in rebuilds.
    double swap_seconds = 0.0;
};

/// Runs the stream [0, num_frames), as Pipeline::run does, with automatic
/// recovery driving `controller`'s loss step. On every fence a
/// PipelineControl binding shrinks the budget, re-solves and retargets the
/// running pipeline; a resize-only change lands as a frame swap and the
/// stream never stops. A declined loss that empties a stage drains the run;
/// the pipeline is then rebuilt on the controller's plan and resumes with
/// run_from(stream_end, ...), at the exact frame the degraded run drained
/// to; any other declined loss runs on with the surviving workers. Stops
/// after `max_recoveries` hot-swaps (default: one per core of the initial
/// budget). Throws NoScheduleError if the degraded resources cannot run the
/// chain at all, and rethrows what a run throws (a task past its retries,
/// or ControlConfig::on_resize on the watchdog thread).
template <typename T>
RecoveryReport run_with_recovery(TaskSequence<T>& sequence, Controller& controller,
                                 std::uint64_t num_frames, const PipelineConfig& config = {},
                                 const std::function<void(T&)>& on_output = {},
                                 int max_recoveries = -1)
{
    using Clock = std::chrono::steady_clock;
    const auto seconds_since = [](Clock::time_point since) {
        return std::chrono::duration<double>(Clock::now() - since).count();
    };
    if (max_recoveries < 0)
        max_recoveries = controller.budget().total();

    RecoveryReport report;
    report.solutions.push_back(controller.solution());
    report.total.failure_seconds = -1.0;

    const auto t0 = Clock::now();
    std::uint64_t next = 0;
    // Engaged while a drain-based recovery is in flight: from failure
    // detection until the first post-recovery frame reaches the drain.
    std::optional<Clock::time_point> recovering_since;

    // State shared with the in-flight loss handler, which runs on the
    // pipeline's watchdog thread while run_from is in flight. Everything
    // here is either guarded by `mutex` or touched only between runs (the
    // watchdog is joined before run_from returns).
    struct FrameSwapState {
        std::mutex mutex;
        int swaps = 0;             ///< frame swaps applied this run
        double swap_seconds = 0.0; ///< in-flight step time this run
        std::vector<core::Solution> solutions; ///< one per frame swap
        std::vector<int> handled_workers; ///< losses already stepped by the handler
        bool infeasible = false;   ///< a loss step found no schedule
        std::atomic<bool> latency_armed{false}; ///< swap applied, awaiting a frame
        Clock::time_point detect{};
    } swap_state;

    // On every fence: one loss step -- shrink, re-solve (so even a declined
    // swap leaves controller.solution() ready for the drain path with no
    // second solve) and retarget in flight. Runs on the watchdog thread;
    // `report` and `max_recoveries` are safe to read -- the main thread only
    // writes them between runs.
    const auto on_loss = [&](const WorkerLoss& loss) -> bool {
        std::lock_guard lock{swap_state.mutex};
        if (swap_state.infeasible)
            return false;
        if (report.recoveries + swap_state.swaps >= max_recoveries)
            return false; // out of swap budget: let the drain path stop the run
        const auto detect = Clock::now();
        const ControlRecord step = controller.loss({loss.type});
        swap_state.handled_workers.push_back(loss.worker);
        if (step.result == StepResult::infeasible) {
            swap_state.infeasible = true;
            return false;
        }
        if (step.swap != plan::SwapOutcome::frame)
            return false;
        ++swap_state.swaps;
        swap_state.swap_seconds += seconds_since(detect);
        swap_state.solutions.push_back(controller.solution());
        swap_state.detect = detect;
        swap_state.latency_armed.store(true, std::memory_order_release);
        return true;
    };

    const auto wrapped = [&](T& frame) {
        if (swap_state.latency_armed.load(std::memory_order_acquire)) {
            // First frame delivered after an in-flight swap completed:
            // close the frame-swap recovery interval.
            std::lock_guard lock{swap_state.mutex};
            if (swap_state.latency_armed.load(std::memory_order_relaxed)) {
                report.recovery_latency_seconds += seconds_since(swap_state.detect);
                swap_state.latency_armed.store(false, std::memory_order_relaxed);
            }
        }
        if (recovering_since) {
            report.recovery_latency_seconds += seconds_since(*recovering_since);
            recovering_since.reset();
        }
        if (on_output)
            on_output(frame);
    };

    auto pipeline = std::make_unique<Pipeline<T>>(sequence, controller.solution(), config);
    for (;;) {
        const auto run_start = Clock::now();
        RunResult result;
        {
            // Bound for this segment only: the loss step below must not
            // retarget the drained pipeline.
            PipelineControl<T> binding{controller, *pipeline, on_loss};
            result = pipeline->run_from(next, num_frames, wrapped);
        }

        // The watchdog (and with it the loss handler) is quiesced: merge the
        // frame swaps this run applied into the report.
        report.recoveries += swap_state.swaps;
        report.frame_swaps += swap_state.swaps;
        report.swap_seconds += swap_state.swap_seconds;
        for (core::Solution& solution : swap_state.solutions)
            report.solutions.push_back(std::move(solution));
        swap_state.swaps = 0;
        swap_state.swap_seconds = 0.0;
        swap_state.solutions.clear();
        if (swap_state.latency_armed.exchange(false, std::memory_order_relaxed)) {
            // Swap applied but no frame made it out before the stream
            // ended: the open interval is still downtime.
            report.recovery_latency_seconds += seconds_since(swap_state.detect);
        }

        report.total.frames += result.frames;
        report.total.frames_dropped += result.frames_dropped;
        report.total.retries += result.retries;
        report.total.stream_end = result.stream_end;
        for (const WorkerLoss& loss : result.losses)
            report.total.losses.push_back(loss);
        if (result.failure_seconds >= 0.0 && report.total.failure_seconds < 0.0)
            report.total.failure_seconds =
                std::chrono::duration<double>(run_start - t0).count() + result.failure_seconds;

        // Step every loss the in-flight handler did not already account
        // for, all of them at once -- one solve, not one per loss.
        std::vector<core::CoreType> unhandled;
        for (const WorkerLoss& loss : result.losses) {
            const auto& handled = swap_state.handled_workers;
            if (std::find(handled.begin(), handled.end(), loss.worker) == handled.end())
                unhandled.push_back(loss.type);
        }
        swap_state.handled_workers.clear();
        if (!unhandled.empty() && controller.loss(unhandled).result == StepResult::infeasible)
            swap_state.infeasible = true;
        if (swap_state.infeasible)
            throw NoScheduleError{
                "run_with_recovery: remaining resources cannot run the chain"};

        if (result.stream_end >= num_frames) {
            report.completed = true;
            break;
        }
        if (report.recoveries >= max_recoveries)
            break;

        ++report.recoveries;
        report.solutions.push_back(controller.solution());
        // Latency is measured from the instant the watchdog detected the
        // failure, so it covers the drain, the reschedule and the swap.
        recovering_since = result.failure_seconds >= 0.0
            ? run_start
                + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(result.failure_seconds))
            : Clock::now();
        next = result.stream_end;

        // The loss step already declined this change in flight: rebuild.
        const auto swap_begin = Clock::now();
        pipeline.reset(); // join the old workers before spawning new ones
        pipeline = std::make_unique<Pipeline<T>>(sequence, controller.solution(), config);
        ++report.rebuild_swaps;
        report.swap_seconds += seconds_since(swap_begin);
    }

    // A recovery that never produced another frame (the stream ended, or the
    // swap budget ran out, mid-recovery) is still downtime: close the open
    // interval instead of dropping it.
    if (recovering_since)
        report.recovery_latency_seconds += seconds_since(*recovering_since);

    report.total.elapsed_seconds = seconds_since(t0);
    return report;
}

} // namespace amp::rt
