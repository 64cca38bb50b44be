#pragma once
// Online rescheduling on degraded resources.
//
// The paper computes one schedule for a fixed resource vector R = (b, l).
// When the runtime loses a core permanently (a fenced worker, see
// rt/pipeline.hpp) or the profiler reports task weights that drifted away
// from the profile the schedule was built on, the Rescheduler re-solves
// HeRAD -- the paper's period-optimal DP -- on the reduced resource vector
// or refreshed chain. Each solve keeps HeRAD's DP frontier, so after the
// cold solve in the constructor a core loss is a frontier backwalk.
// `run_with_recovery` glues it to the Pipeline: it frame-swaps a
// resize-only loss in flight, rebuilds the pipeline after a loss that
// drained the run and resumes the stream at the exact frame the failed
// pipeline drained to, reporting recovery latency and total frames
// dropped. See docs/FAULT_MODEL.md for the full fault model.

#include "core/scheduler.hpp"
#include "obs/histogram.hpp"
#include "rt/pipeline.hpp"
#include "svc/solver_service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <vector>

namespace amp::rt {

/// Raised when recovery is impossible (no cores left, or HeRAD finds no
/// schedule on the degraded resources).
class NoScheduleError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// The warm HeRAD request every rt re-solve sends (Rescheduler and
/// ResizeStep): it carries `frontier`, the one kept from the previous solve
/// of `chain` (null on the first), and asks for a new one, so a changed
/// budget is answered from the frontier (a shrink by a backwalk) instead of
/// a cold DP.
[[nodiscard]] core::ScheduleRequest
warm_herad_request(const core::TaskChain& chain, core::Resources resources,
                   const core::ScheduleOptions& options,
                   std::shared_ptr<const core::HeradFrontier> frontier);

struct ReschedulePolicy {
    /// Relative p95 drift vs. the scheduled weight (max over tasks) that
    /// counts a latency report as drifted.
    double drift_threshold = 0.25;
    /// Consecutive drifted reports before the chain is re-profiled and the
    /// schedule recomputed (debounces transient load spikes).
    int drift_patience = 3;
    /// Solver service every recompute goes through (a repeated re-solve of
    /// the same degraded (chain, resources) pair hits its cache). Null
    /// means the process-wide svc::shared_service().
    svc::SolverService* service = nullptr;
};

/// One observation window of per-task latency telemetry, the input of
/// Rescheduler::observe's drift detection.
struct TelemetrySnapshot {
    /// Per-task latency histograms, 1-based task order, one per core type.
    /// Leave both vectors empty to skip drift detection entirely; leave an
    /// element empty when the task did not run on that core type this
    /// window.
    std::vector<obs::HistogramSnapshot> big_us;
    std::vector<obs::HistogramSnapshot> little_us;
};

class Rescheduler {
public:
    /// Computes the initial solution eagerly; throws NoScheduleError when
    /// even the full resource vector admits no schedule.
    Rescheduler(core::TaskChain chain, core::Resources resources, ReschedulePolicy policy = {});

    [[nodiscard]] const core::TaskChain& chain() const noexcept { return chain_; }
    [[nodiscard]] const core::Resources& resources() const noexcept { return resources_; }
    [[nodiscard]] const core::Solution& solution() const noexcept { return solution_; }
    [[nodiscard]] const ReschedulePolicy& policy() const noexcept { return policy_; }

    /// Solves HeRAD on the current chain and resources, warm from the
    /// frontier of the previous solve, and adopts the result. Throws
    /// NoScheduleError when HeRAD finds no schedule.
    core::Solution recompute();

    /// Removes `count` cores of `type` (e.g. after the watchdog fenced a
    /// worker of that type) and recomputes. Throws NoScheduleError when the
    /// remaining resources cannot run the chain.
    core::Solution on_core_loss(core::CoreType type, int count = 1);

    /// Shrinks the resource vector without recomputing. Lets a caller that
    /// observed several simultaneous losses account for all of them first
    /// and then solve once (run_with_recovery does exactly this), instead
    /// of paying one solve -- and transiently adopting an intermediate
    /// solution -- per lost core.
    void remove_cores(core::CoreType type, int count = 1);

    /// Feeds one telemetry window: runs drift detection over the per-task
    /// latency histograms when the snapshot carries any. A task counts as
    /// drifted when its p95 departs from the scheduled weight by more than
    /// policy.drift_threshold (relative). After policy.drift_patience
    /// consecutive drifted windows, the chain is rebuilt around the
    /// observed mean latencies and the schedule recomputed; returns the new
    /// solution then, nullopt otherwise.
    std::optional<core::Solution> observe(const TelemetrySnapshot& telemetry);

    /// Consecutive drifted reports seen so far (for tests/metrics).
    [[nodiscard]] int drift_streak() const noexcept { return drift_streak_; }

private:
    core::TaskChain chain_;
    core::Resources resources_;
    ReschedulePolicy policy_;
    core::Solution solution_;
    /// HeRAD frontier from the last solve that returned one (a cache hit
    /// returns none). One that no longer matches chain_, after a drift
    /// rebuild, only makes the next solve run cold.
    std::shared_ptr<const core::HeradFrontier> frontier_;
    int drift_streak_ = 0;
    /// Running *sums* of the per-window observed means across the current
    /// drift streak (averaged at rebuild time; cleared when the streak
    /// resets), so the rebuilt chain reflects the whole streak rather than
    /// whichever window happened to arrive last.
    std::vector<double> drifted_big_;
    std::vector<double> drifted_little_;
};

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
    double swap_seconds = 0.0; ///< time spent retargeting / rebuilding
};

/// Runs the stream [config.first_frame, num_frames) with automatic recovery.
/// On every fence an in-flight loss handler shrinks the resource vector,
/// re-solves and retargets the running pipeline; a resize-only change lands
/// as a frame swap and the stream never stops. A declined loss that empties
/// a stage drains the run; the pipeline is then rebuilt on the recomputed
/// schedule and the stream resumes at the exact frame the degraded run
/// drained to; any other declined loss runs on with the surviving workers.
/// Stops after `max_recoveries` hot-swaps (default: one per core of the
/// initial budget). Throws NoScheduleError if the degraded resources cannot
/// run the chain at all.
template <typename T>
RecoveryReport run_with_recovery(TaskSequence<T>& sequence, Rescheduler& rescheduler,
                                 std::uint64_t num_frames, PipelineConfig config = {},
                                 const std::function<void(T&)>& on_output = {},
                                 int max_recoveries = -1)
{
    if (max_recoveries < 0)
        max_recoveries = rescheduler.resources().total();

    RecoveryReport report;
    report.solutions.push_back(rescheduler.solution());
    report.total.stream_end = config.first_frame;
    report.total.failure_seconds = -1.0;

    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t next = config.first_frame;
    // Engaged while a drain-based recovery is in flight: from failure
    // detection until the first post-recovery frame reaches the drain.
    std::optional<std::chrono::steady_clock::time_point> recovering_since;

    // State shared with the in-flight loss handler, which runs on the
    // pipeline's watchdog thread while run_from is in flight. Everything
    // here is either guarded by `mutex` or touched only between runs (the
    // watchdog is joined before run_from returns).
    struct FrameSwapState {
        std::mutex mutex;
        int swaps = 0;             ///< frame swaps applied this run
        double swap_seconds = 0.0; ///< in-flight apply time this run
        std::vector<core::Solution> solutions; ///< one per frame swap
        std::vector<int> handled_workers; ///< losses already shrunk by the handler
        bool infeasible = false;   ///< handler hit NoScheduleError
        std::atomic<bool> latency_armed{false}; ///< swap applied, awaiting a frame
        std::chrono::steady_clock::time_point detect{};
    } swap_state;

    auto pipeline = std::make_unique<Pipeline<T>>(sequence, rescheduler.solution(), config);

    // On every fence: shrink the budget and re-solve immediately (so even a
    // declined swap leaves rescheduler.solution() ready for the drain path
    // with no second solve), then retarget in flight -- a frame swap when
    // the change is resize-only. Runs on the watchdog thread; `report` and
    // `max_recoveries` are safe to read -- the main thread only writes them
    // between runs.
    auto install_handler = [&](Pipeline<T>& p) {
        p.set_loss_handler([&](const WorkerLoss& loss) -> bool {
            std::lock_guard lock{swap_state.mutex};
            if (swap_state.infeasible)
                return false;
            if (report.recoveries + swap_state.swaps >= max_recoveries)
                return false; // out of swap budget: let the drain path stop the run
            const auto detect = std::chrono::steady_clock::now();
            core::Solution degraded;
            try {
                degraded = rescheduler.on_core_loss(loss.type, 1);
            } catch (const NoScheduleError&) {
                swap_state.infeasible = true;
                swap_state.handled_workers.push_back(loss.worker);
                return false;
            }
            swap_state.handled_workers.push_back(loss.worker);
            const plan::ExecutionPlan candidate =
                plan::ExecutionPlan::compile(rescheduler.chain(), degraded,
                                             plan::PlanOptions{config.queue_capacity});
            const auto swap_begin = std::chrono::steady_clock::now();
            if (p.retarget(candidate) != plan::SwapOutcome::frame)
                return false;
            ++swap_state.swaps;
            swap_state.swap_seconds +=
                std::chrono::duration<double>(std::chrono::steady_clock::now() - swap_begin)
                    .count();
            swap_state.solutions.push_back(std::move(degraded));
            swap_state.detect = detect;
            swap_state.latency_armed.store(true, std::memory_order_release);
            return true;
        });
    };
    install_handler(*pipeline);

    for (;;) {
        auto wrapped = [&](T& frame) {
            if (swap_state.latency_armed.load(std::memory_order_acquire)) {
                // First frame delivered after an in-flight swap completed:
                // close the frame-swap recovery interval.
                std::lock_guard lock{swap_state.mutex};
                if (swap_state.latency_armed.load(std::memory_order_relaxed)) {
                    report.recovery_latency_seconds +=
                        std::chrono::duration<double>(std::chrono::steady_clock::now()
                                                      - swap_state.detect)
                            .count();
                    swap_state.latency_armed.store(false, std::memory_order_relaxed);
                }
            }
            if (recovering_since) {
                report.recovery_latency_seconds += std::chrono::duration<double>(
                                                       std::chrono::steady_clock::now()
                                                       - *recovering_since)
                                                       .count();
                recovering_since.reset();
            }
            if (on_output)
                on_output(frame);
        };

        const auto run_start = std::chrono::steady_clock::now();
        RunResult result = pipeline->run_from(next, num_frames, wrapped);

        // The watchdog (and with it the loss handler) is quiesced: merge the
        // frame swaps this run applied into the report.
        {
            std::lock_guard lock{swap_state.mutex};
            report.recoveries += swap_state.swaps;
            report.frame_swaps += swap_state.swaps;
            report.swap_seconds += swap_state.swap_seconds;
            for (core::Solution& solution : swap_state.solutions)
                report.solutions.push_back(std::move(solution));
            swap_state.swaps = 0;
            swap_state.swap_seconds = 0.0;
            swap_state.solutions.clear();
            if (swap_state.latency_armed.load(std::memory_order_relaxed)) {
                // Swap applied but no frame made it out before the stream
                // ended: the open interval is still downtime.
                report.recovery_latency_seconds +=
                    std::chrono::duration<double>(std::chrono::steady_clock::now()
                                                  - swap_state.detect)
                        .count();
                swap_state.latency_armed.store(false, std::memory_order_relaxed);
            }
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

        if (swap_state.infeasible)
            throw NoScheduleError{
                "run_with_recovery: remaining resources cannot run the chain"};
        if (result.degraded()) {
            // Shrink the budget by every core the in-flight handler did not
            // already account for, then recompute once -- not once per loss.
            int unhandled = 0;
            for (const WorkerLoss& loss : result.losses) {
                const auto& handled = swap_state.handled_workers;
                if (std::find(handled.begin(), handled.end(), loss.worker) != handled.end())
                    continue;
                rescheduler.remove_cores(loss.type, 1);
                ++unhandled;
            }
            if (unhandled > 0)
                (void)rescheduler.recompute();
        }
        swap_state.handled_workers.clear();

        if (result.stream_end >= num_frames) {
            report.completed = true;
            break;
        }
        if (report.recoveries >= max_recoveries)
            break;

        ++report.recoveries;
        report.solutions.push_back(rescheduler.solution());
        // Latency is measured from the instant the watchdog detected the
        // failure, so it covers the drain, the reschedule and the swap.
        recovering_since = result.failure_seconds >= 0.0
            ? run_start
                + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(result.failure_seconds))
            : std::chrono::steady_clock::now();
        next = result.stream_end;

        // The loss handler already declined this change in flight: rebuild.
        const auto swap_begin = std::chrono::steady_clock::now();
        pipeline.reset(); // join the old workers before spawning new ones
        config.first_frame = next;
        pipeline = std::make_unique<Pipeline<T>>(
            sequence,
            plan::ExecutionPlan::compile(rescheduler.chain(), rescheduler.solution(),
                                         plan::PlanOptions{config.queue_capacity}),
            config);
        install_handler(*pipeline);
        ++report.rebuild_swaps;
        report.swap_seconds +=
            std::chrono::duration<double>(std::chrono::steady_clock::now() - swap_begin)
                .count();
    }

    // A recovery that never produced another frame (the stream ended, or the
    // swap budget ran out, mid-recovery) is still downtime: close the open
    // interval instead of dropping it.
    if (recovering_since)
        report.recovery_latency_seconds +=
            std::chrono::duration<double>(std::chrono::steady_clock::now() - *recovering_since)
                .count();

    report.total.elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return report;
}

} // namespace amp::rt
