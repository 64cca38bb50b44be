#pragma once
// Threaded pipeline executor: runs a compiled plan::ExecutionPlan as worker
// threads connected by order-restoring bounded queues (the StreamPU
// execution model, including the v1.6.0 extension that connects consecutive
// replicated stages -- possibly of different core types).
//
// Stage i of the plan becomes r_i workers, each executing the stage's task
// interval on every frame it pulls. Replicated stages clone their
// (stateless) tasks once per extra worker. Sequential stages keep a single
// worker and therefore observe frames in stream order, which is what makes
// stateful tasks safe.
//
// DAG plans (plan::GraphShape, docs/EXECUTION_PLAN.md): a stage may feed
// several successor queues -- fan-out pushes each envelope to every out
// queue, copying the payload -- and a stage may consume several predecessor
// queues -- fan-in merges one envelope per input by sequence number through
// a FanInGate (rt/fan_in.hpp), so the merged stream leaves in stream order
// with zero reordering. Linear plans are the degenerate one-branch case and
// execute exactly as before (one in queue, one out queue per stage).
//
// Workers are persistent: threads are spawned once (lazily, on the first
// run) and parked on an epoch condition variable between stream segments,
// so run() can be called repeatedly. retarget() re-maps the pipeline onto
// a new plan in place (docs/EXECUTION_PLAN.md §3): it diffs the target
// against the running plan under the swap lock and lands a resize-only
// change -- untouched stages keep their threads and queues; only the
// workers the plan::PlanDelta names are spawned or retired. While a segment
// is in flight the change lands at a frame boundary *without draining the
// stream*: spawned workers enter the current epoch and start pulling
// frames immediately; retired workers finish their in-flight frame and
// exit. Anything else -- a recut, a rebind -- is reported as
// SwapOutcome::rebuild_required with the pipeline untouched. A loss handler
// (set_loss_handler) installed by run_with_recovery turns a watchdog fence
// into such an in-flight swap, which is what cuts recovery latency below
// the drain time (docs/FAULT_MODEL.md).
//
// Fault tolerance (docs/FAULT_MODEL.md): every worker maintains a heartbeat
// that it refreshes whenever it makes progress or wakes from a bounded wait.
// An optional watchdog thread (enabled by PipelineConfig::heartbeat_timeout)
// fences workers whose heartbeat goes stale -- crashed or hung threads --
// publishing a tombstone for the frame the worker held so downstream
// consumers can advance, and, when a stage loses its last worker, initiating
// a graceful drain: the source stops producing, a scavenger flushes the dead
// stage's input in stream order (as tombstones), and the run returns a
// degraded-but-ordered result instead of aborting. Transient task failures
// are absorbed by a bounded retry with exponential backoff. A run that ends
// early reports `stream_end`, the exact resume point for the next segment
// (see rt/rescheduler.hpp).

#include "core/chain.hpp"
#include "core/solution.hpp"
#include "obs/schema.hpp"
#include "obs/sink.hpp"
#include "plan/execution_plan.hpp"
#include "rt/brownout.hpp"
#include "rt/core_emulator.hpp"
#include "rt/fan_in.hpp"
#include "rt/fault.hpp"
#include "rt/ordered_queue.hpp"
#include "rt/task.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace amp::rt {

struct PipelineConfig {
    std::size_t queue_capacity = 8;      ///< per-adaptor buffered frames
    CoreEmulator* emulator = nullptr;    ///< optional core-type emulation
    /// Optional thread placement: worker k (in stage-major order, i.e. the
    /// paper's compact placement) is pinned to CPU core_map[k % size]. Empty
    /// = no pinning. Ignored on platforms without affinity support.
    std::vector<int> core_map{};

    /// First frame of the stream this run produces: frames [first_frame,
    /// num_frames) flow through the pipeline. Non-zero when resuming a
    /// stream after a failure (the new pipeline picks up at the previous
    /// run's `stream_end`).
    std::uint64_t first_frame = 0;

    /// Optional fault injection hooks (tests, recovery benchmarks).
    FaultInjector* faults = nullptr;

    /// Transient-failure policy: a task throw is retried up to
    /// `max_task_retries` times per frame, sleeping retry_backoff *
    /// retry_backoff_factor^attempt between attempts. The frame payload is
    /// restored from a pre-attempt copy when T is copyable; otherwise tasks
    /// must tolerate re-execution on a partially-processed frame. Keep the
    /// worst-case total backoff below heartbeat_timeout, or the watchdog
    /// will fence the retrying worker.
    int max_task_retries = 0;
    std::chrono::microseconds retry_backoff{200};
    double retry_backoff_factor = 2.0;

    /// Watchdog: a worker whose heartbeat is older than heartbeat_timeout
    /// is declared lost (fenced). Zero disables the watchdog (and with it,
    /// recovery from kill/stall faults). The timeout must exceed the
    /// worst-case per-frame latency of any stage, or healthy-but-slow
    /// workers get fenced.
    std::chrono::milliseconds heartbeat_timeout{0};
    std::chrono::milliseconds watchdog_poll{2};

    /// Optional telemetry sink (docs/OBSERVABILITY.md): workers record task
    /// spans, queue waits, heartbeats, retries and tombstones into it.
    /// nullptr (or a disabled sink) costs one branch per event.
    obs::Sink* sink = nullptr;

    /// Overload protection (docs/FAULT_MODEL.md, "Overload model"). When
    /// enabled, the watchdog thread doubles as an overload monitor: it
    /// samples every inter-stage queue's depth, feeds the worst fraction to
    /// a BrownoutController, and -- while browned out -- sheds the oldest
    /// buffered frames of congested non-final queues as tombstones (counted
    /// in RunResult::frames_shed and amp_frames_shed_total, never silent).
    /// Enabling overload protection alone (heartbeat_timeout == 0) starts
    /// the monitor thread without worker fencing.
    struct OverloadPolicy {
        bool enabled = false;
        /// Queue watermarks (envelopes). 0 derives them from the queue
        /// capacity: high = 3/4 * capacity (at least 1), low = high / 2.
        std::size_t high_watermark = 0;
        std::size_t low_watermark = 0;
        /// Enter/exit thresholds over the worst queue-depth fraction.
        BrownoutPolicy brownout{};
        /// Frames shed per congested queue per monitor pass while browned
        /// out (small: the controller's patience gates sustained shedding).
        std::size_t shed_batch = 2;
        /// Monitor sampling period.
        std::chrono::milliseconds poll{5};
    };
    OverloadPolicy overload{};
};

/// One fenced (permanently lost) worker.
struct WorkerLoss {
    int worker = -1;                          ///< stable plan worker id
    int stage = -1;                           ///< stage the worker served
    core::CoreType type = core::CoreType::big; ///< core type lost with it
    std::uint64_t held_frame = 0;             ///< frame it held (kNoFrame if idle)

    static constexpr std::uint64_t kNoFrame = std::numeric_limits<std::uint64_t>::max();
};

struct RunResult {
    std::uint64_t frames = 0;        ///< frames delivered to the drain
    double elapsed_seconds = 0.0;
    std::uint64_t frames_dropped = 0; ///< tombstones (frames lost to failures)
    std::uint64_t retries = 0;        ///< transient faults absorbed by retry
    /// Frames deliberately tombstoned by the load shedder -- a subset of
    /// frames_dropped (every shed frame is also a dropped frame).
    std::uint64_t frames_shed = 0;
    /// Times the brownout controller entered brownout during this run.
    std::uint64_t brownout_entries = 0;
    /// One past the last stream position this run accounted for (delivered
    /// or dropped). Equals the requested frame count on a full run; on a
    /// degraded early drain it is the exact `first_frame` to resume from.
    std::uint64_t stream_end = 0;
    /// Time from run start to the first worker loss; negative when healthy.
    double failure_seconds = -1.0;
    std::vector<WorkerLoss> losses;   ///< workers fenced by the watchdog

    [[nodiscard]] bool degraded() const noexcept { return !losses.empty(); }
    [[nodiscard]] double fps() const noexcept
    {
        return elapsed_seconds > 0.0 ? static_cast<double>(frames) / elapsed_seconds : 0.0;
    }
};

/// Pins the calling thread to the given CPU. Returns false when pinning is
/// unsupported or fails (never fatal: placement is a performance hint).
inline bool pin_current_thread_to_cpu([[maybe_unused]] int cpu)
{
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0;
#else
    return false;
#endif
}

template <typename T>
class Pipeline {
public:
    /// The sequence must outlive the pipeline. Compiles the solution into a
    /// plan::ExecutionPlan internally; throws (PlanError, a subclass of
    /// std::invalid_argument) if the solution does not cover the chain or
    /// replicates a stage containing stateful tasks.
    Pipeline(TaskSequence<T>& sequence, core::Solution solution, PipelineConfig config = {})
        : Pipeline(sequence,
                   plan::ExecutionPlan::compile(shape_of(sequence), solution,
                                                plan::PlanOptions{config.queue_capacity}),
                   config)
    {
    }

    /// Runs a pre-compiled plan (e.g. from svc::SolverService::solve_planned
    /// or plan::apply). The plan's queue capacity wins over
    /// config.queue_capacity: the plan *is* the queue topology.
    Pipeline(TaskSequence<T>& sequence, plan::ExecutionPlan plan, PipelineConfig config = {})
        : sequence_(sequence)
        , plan_(std::make_shared<const plan::ExecutionPlan>(std::move(plan)))
        , config_(config)
    {
        validate_against_sequence(*plan_);
        for (const plan::PlanStage& stage : plan_->stages())
            stages_.push_back(core::Stage{stage.first, stage.last, stage.replicas, stage.type});
    }

    /// Payload merge for fan-in stages: combines input `ordinal`'s popped
    /// payload `from` into the accumulated payload `into` (input 0's copy).
    /// When unset, `T::merge_from(const T&)` is used if the payload type
    /// provides it; otherwise input 0 wins and the other copies are
    /// discarded. Install before the first run.
    using Merge = typename FanInGate<T>::Merge;
    void set_merge(Merge merge) { merge_ = std::move(merge); }

    Pipeline(const Pipeline&) = delete;
    Pipeline& operator=(const Pipeline&) = delete;

    ~Pipeline()
    {
        {
            std::lock_guard lock{epoch_mutex_};
            shutdown_ = true;
        }
        epoch_cv_.notify_all();
        for (auto& worker : workers_)
            if (worker->thread.joinable())
                worker->thread.join();
    }

    /// Processes frames [config.first_frame, num_frames) end to end.
    /// `on_output` (optional) is invoked on the main thread, in stream
    /// order, with each final frame.
    RunResult run(std::uint64_t num_frames, const std::function<void(T&)>& on_output = {})
    {
        return run_from(config_.first_frame, num_frames, on_output);
    }

    /// Like run(), but resumes the stream at `first_frame` (ignores
    /// config.first_frame). Used by run_with_recovery to continue a stream
    /// on the same pipeline after a retarget.
    RunResult run_from(std::uint64_t first_frame, std::uint64_t num_frames,
                       const std::function<void(T&)>& on_output = {})
    {
        if (first_frame > num_frames)
            throw std::invalid_argument{"Pipeline::run: first_frame past the stream end"};

        // Segment setup mutates the same state a retarget touches (stage
        // specs, the worker census). A caller may legally retarget from
        // another thread at any time, including while a segment is starting
        // -- serialize against it, and release before the output drain so
        // mid-segment retargets proceed (running_ tells them a run is on).
        std::unique_lock swap_lock{swap_mutex_};
        if (!materialized_)
            materialize();

        SegmentState& st = seg_;
        const std::size_t k = stages_.size();

        // -- reset the per-segment state (all workers are parked) ---------
        st.num_frames = num_frames;
        st.first_frame = first_frame;
        st.next_frame.store(first_frame);
        st.retries.store(0);
        st.stop_source.store(false);
        st.end_pushed.store(false);
        st.over.store(false);
        st.first_error = nullptr;
        st.losses.clear();
        st.failure_seconds = -1.0;
        st.frames_shed.store(0);
        st.brownout = BrownoutController{config_.overload.brownout};
        st.beat_interval = config_.heartbeat_timeout.count() > 0
            ? std::max<std::chrono::milliseconds>(std::chrono::milliseconds{1},
                                                  config_.heartbeat_timeout / 4)
            : std::chrono::milliseconds{50};
        for (auto& queue : queues_)
            queue->reset(first_frame);
        for (auto& gate : gates_)
            gate->reset();
        resolve_obs_hooks(st);

        std::vector<int> live(k, 0);
        std::size_t entered = 0;
        {
            std::lock_guard lock{workers_mutex_};
            // Every worker is parked: join the ones retired or fenced since
            // the last segment start, so exited threads never pile up.
            reap_dead_workers();
            for (auto& worker : workers_) {
                worker->holding.store(kNoFrame);
                worker->exited.store(false);
                worker->retired.store(false);
                worker->seg_done.store(false);
                worker->last_beat_ns.store(now_ns());
                ++live[static_cast<std::size_t>(worker->stage)];
            }
            entered = workers_.size();
        }
        for (std::size_t s = 0; s < k; ++s) {
            if (live[s] == 0)
                throw std::logic_error{
                    "Pipeline::run: stage " + std::to_string(s)
                    + " has no live workers; retarget or rebuild the pipeline"};
            st.live_in_stage[s].store(live[s]);
        }

        const auto start = std::chrono::steady_clock::now();
        st.start = start;

        // -- release the workers into this segment ------------------------
        {
            std::lock_guard lock{epoch_mutex_};
            parked_ = 0;
            st.entered = entered;
            segment_active_ = true;
            ++epoch_;
        }
        epoch_cv_.notify_all();
        running_ = true;
        swap_lock.unlock();

        std::thread watchdog;
        if (config_.heartbeat_timeout.count() > 0 || config_.overload.enabled)
            watchdog = std::thread{[this, &st] { watchdog_loop(st); }};

        // Drain the final queue in order on this thread. Tombstones are
        // frames lost to worker failures; they keep the stream contiguous
        // but are not handed to `on_output`.
        std::uint64_t delivered = 0;
        std::uint64_t dropped = 0;
        std::uint64_t end_seq = first_frame;
        bool end_seen = false;
        try {
            while (auto envelope = drain_->pop()) {
                if (envelope->end) {
                    end_seq = envelope->seq;
                    end_seen = true;
                    break;
                }
                if (envelope->dropped) {
                    ++dropped;
                    continue;
                }
                if (on_output)
                    on_output(envelope->payload);
                ++delivered;
            }
        } catch (...) {
            record_error(st, std::current_exception());
        }

        // -- wait for every entered worker to park ------------------------
        // The predicate re-reads st.entered: an in-flight retarget may
        // admit workers into this segment while we wait. segment_active_
        // flips under the same lock, so a retarget either admits before we
        // re-check (and we wait for its workers too) or sees the segment
        // closed and parks its spawns for the next one.
        {
            std::unique_lock lock{epoch_mutex_};
            parked_cv_.wait(lock, [&] { return parked_ >= st.entered; });
            segment_active_ = false;
        }
        st.over.store(true);
        if (watchdog.joinable())
            watchdog.join();
        {
            std::lock_guard lock{st.scavenger_mutex};
            for (auto& scavenger : st.scavengers)
                scavenger.join();
            st.scavengers.clear();
        }
        const auto stop = std::chrono::steady_clock::now();
        {
            // Cleared only after the watchdog is joined: a retarget from the
            // loss handler or the monitor hook always sees the run as live.
            std::lock_guard lock{swap_mutex_};
            running_ = false;
        }

        if (st.first_error)
            std::rethrow_exception(st.first_error);

        RunResult result;
        result.frames = delivered;
        result.elapsed_seconds = std::chrono::duration<double>(stop - start).count();
        result.frames_dropped = dropped;
        result.retries = st.retries.load();
        result.frames_shed = st.frames_shed.load();
        result.brownout_entries = st.brownout.entries();
        result.stream_end = end_seen ? end_seq : first_frame + delivered + dropped;
        {
            std::lock_guard lock{st.loss_mutex};
            result.losses = st.losses;
            result.failure_seconds = st.failure_seconds;
        }
        ObsHooks& ob = st.obs;
        if (ob.metrics != nullptr) {
            // Workers have quiesced: bulk-add the drain totals and stamp the
            // run gauges.
            ob.frames_delivered->add(0, delivered);
            ob.frames_dropped->add(0, dropped);
            ob.metrics->gauge(obs::schema::kRunElapsedSeconds).set(result.elapsed_seconds);
            ob.metrics->gauge(obs::schema::kRunFps).set(result.fps());
        }
        return result;
    }

    /// Re-maps the pipeline onto `target` (docs/EXECUTION_PLAN.md §3.2).
    /// Diffs it against the plan this pipeline runs and lands the change
    /// under the swap lock, atomically with respect to every other retarget
    /// and to segment setup; whether a run is in progress is the
    /// pipeline's own state, never the caller's:
    ///
    ///   * same plan, every slot staffed -> none
    ///   * resize-only change (refilling a fenced worker's slot included)
    ///                                   -> frame: lands in place; live, at
    ///       a frame boundary (spawned workers join the running segment,
    ///       retired ones finish their frame); parked, before the next one
    ///   * anything else -- a recut, a rebind, a target the task sequence
    ///     cannot run, or a stateful stage whose original tasks are not
    ///     free within kReclaimTimeout -> rebuild_required
    ///
    /// rebuild_required leaves the pipeline untouched; the owner rebuilds
    /// it from `target`. Never throws on a bad target; safe from any
    /// thread, including the loss handler and the monitor hook. Workers
    /// spawned mid-run are not traced (obs tracks cannot be added while
    /// producers emit); their metrics are recorded as usual.
    [[nodiscard]] plan::SwapOutcome retarget(const plan::ExecutionPlan& target)
    {
        using plan::SwapOutcome;
        std::lock_guard swap_lock{swap_mutex_};
        const plan::PlanDelta delta = plan::diff(*plan_, target);
        if (delta.empty() && census_complete())
            return SwapOutcome::none;
        if (!delta.resize_only())
            return SwapOutcome::rebuild_required;
        std::shared_ptr<const plan::ExecutionPlan> next;
        try {
            next = std::make_shared<const plan::ExecutionPlan>(plan::apply(*plan_, delta));
            validate_against_sequence(*next);
        } catch (const std::invalid_argument&) { // PlanError included
            return SwapOutcome::rebuild_required;
        }
        if (running_ && !reclaim_originals(*next))
            return SwapOutcome::rebuild_required;
        land(std::move(next));
        return SwapOutcome::frame;
    }

    /// Invoked on the watchdog thread after it fences a worker (the loss is
    /// recorded and the held frame tombstoned) and *before* any graceful
    /// drain starts. Returning true means the handler restored the pipeline
    /// (typically a retarget that landed as a frame swap) and the drain is
    /// skipped; returning false keeps the fence-then-drain behavior.
    /// Install between runs only.
    using LossHandler = std::function<bool(const WorkerLoss&)>;
    void set_loss_handler(LossHandler handler) { loss_handler_ = std::move(handler); }

    /// Invoked on the watchdog thread once per overload-monitor pass with
    /// the worst inter-stage queue depth as a fraction of queue capacity
    /// (uncapped: > 1.0 when force-pushed frames exceed the nominal
    /// capacity). Requires PipelineConfig::overload.enabled -- that is what
    /// runs the monitor; the brownout watermarks may stay at their
    /// defaults. rt::Autoscaler samples its utilization signal here.
    /// Install between runs only, like the loss handler.
    using MonitorHook = std::function<void(double)>;
    void set_monitor_hook(MonitorHook hook) { monitor_hook_ = std::move(hook); }

    /// Snapshot of the plan this pipeline currently executes. A retarget
    /// publishes a new plan object; a snapshot already handed out stays
    /// valid and unchanged.
    [[nodiscard]] std::shared_ptr<const plan::ExecutionPlan> execution_plan() const
    {
        std::lock_guard lock{plan_mutex_};
        return plan_;
    }

    /// Worker threads currently alive (not fenced, not retired); for tests
    /// and the recovery bench.
    [[nodiscard]] int live_workers() const
    {
        std::lock_guard lock{workers_mutex_};
        return static_cast<int>(std::count_if(
            workers_.begin(), workers_.end(), [](const auto& worker) { return alive(*worker); }));
    }

    /// Total worker threads ever spawned by this pipeline (monotone; grows
    /// by exactly the delta's spawn count on each retarget).
    [[nodiscard]] int spawned_workers() const noexcept { return spawned_total_.load(); }

private:
    static constexpr std::uint64_t kNoFrame = WorkerLoss::kNoFrame;

    /// A stage's queue endpoints, resolved once at materialize (the queue
    /// topology is immutable for the pipeline's lifetime -- resize-only
    /// deltas never change it). Fan-in stages (>1 input) share one merge
    /// gate between their workers.
    struct StageIO {
        std::vector<OrderedQueue<T>*> ins;  ///< plan order (pred order)
        std::vector<OrderedQueue<T>*> outs; ///< plan order (succ order)
        FanInGate<T>* gate = nullptr;       ///< non-null iff ins.size() > 1
    };

    /// One persistent worker: identity and task instances live across
    /// segments; the atomics are reset at every segment start.
    struct Worker {
        // -- persistent identity (mutated only between segments) ----------
        int id = 0;    ///< stable plan worker id (tracks, heartbeats, faults)
        int stage = 0;
        std::vector<std::unique_ptr<Task<T>>> clones; ///< empty when borrowing
        std::vector<Task<T>*> tasks;
        bool owns_originals = false;
        std::size_t track = 0; ///< trace track (valid when tracing && traced)
        bool traced = true;    ///< false for spawns during a run (no track)
        std::thread thread;

        // -- lifecycle -----------------------------------------------------
        std::atomic<bool> dismissed{false}; ///< retire request (retarget)
        std::atomic<bool> gone{false};      ///< thread exited for good

        // -- per-segment ---------------------------------------------------
        std::atomic<std::int64_t> last_beat_ns{0};
        std::atomic<std::uint64_t> holding{WorkerLoss::kNoFrame};
        std::atomic<bool> fenced{false};
        std::atomic<bool> exited{false};
        std::atomic<bool> retired{false};
        /// Set once the worker will not touch its task instances again this
        /// segment (its segment body returned). Lets an in-flight retarget
        /// reclaim a dead stage's original task instances safely.
        std::atomic<bool> seg_done{false};
    };

    /// Telemetry handles resolved once per segment so the hot path never
    /// takes the registry mutex or interns names. All pointers null when
    /// the run has no (enabled) sink.
    struct ObsHooks {
        obs::MetricsRegistry* metrics = nullptr;
        obs::TraceRecorder* trace = nullptr;
        std::size_t watchdog_track = 0; ///< fence/tombstone instants
        std::vector<obs::Histogram*> stage_latency; ///< per stage, us
        std::vector<obs::Histogram*> queue_wait;    ///< per stage, us
        obs::Counter* frames_delivered = nullptr;
        obs::Counter* frames_dropped = nullptr;
        obs::Counter* retries = nullptr;
        obs::Counter* heartbeats = nullptr;
        obs::Counter* fenced = nullptr;
        obs::Counter* frames_shed = nullptr;     ///< overload monitor only
        obs::Counter* brownout_entries = nullptr;
        obs::Gauge* brownout_level = nullptr;
        std::vector<obs::Gauge*> queue_depth; ///< per stage, sampled
        std::vector<std::uint32_t> span_names; ///< per stage, interned
        std::uint32_t retry_name = 0;
        std::uint32_t tombstone_name = 0;
        std::uint32_t fence_name = 0;
        bool active = false;
    };

    /// Everything scoped to one stream segment (one run_from call). Reused
    /// across segments; reset by run_from while all workers are parked.
    struct SegmentState {
        ObsHooks obs;
        std::vector<std::atomic<int>> live_in_stage;
        std::atomic<std::uint64_t> next_frame{0};
        std::atomic<std::uint64_t> retries{0};
        std::atomic<std::uint64_t> frames_shed{0};
        /// Overload state; touched only by the watchdog/monitor thread.
        BrownoutController brownout;
        std::atomic<bool> stop_source{false};
        std::atomic<bool> end_pushed{false};
        std::atomic<bool> over{false}; ///< segment finished (drain + park done)
        std::uint64_t num_frames = 0;
        std::uint64_t first_frame = 0;
        /// Workers participating in this segment (parked_ must reach it
        /// before the segment ends). Guarded by epoch_mutex_: in-flight
        /// spawns increment it while the main thread waits on parked_cv_.
        std::size_t entered = 0;
        std::chrono::milliseconds beat_interval{50};
        std::chrono::steady_clock::time_point start{};

        std::mutex error_mutex;
        std::exception_ptr first_error;

        std::mutex loss_mutex;
        std::vector<WorkerLoss> losses;
        double failure_seconds = -1.0;

        std::mutex scavenger_mutex;
        std::vector<std::thread> scavengers;
    };

    [[nodiscard]] static plan::ChainShape shape_of(const TaskSequence<T>& sequence)
    {
        plan::ChainShape shape;
        shape.tasks = sequence.size();
        shape.replicable.reserve(static_cast<std::size_t>(sequence.size()));
        for (int i = 1; i <= sequence.size(); ++i)
            shape.replicable.push_back(sequence.task(i).replicable());
        return shape;
    }

    [[nodiscard]] static std::int64_t now_ns()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    static void beat(SegmentState& st, Worker& me)
    {
        me.last_beat_ns.store(now_ns());
        if (st.obs.heartbeats != nullptr)
            st.obs.heartbeats->inc(static_cast<std::size_t>(me.id));
    }

    [[nodiscard]] static double us_since(const SegmentState& st,
                                         std::chrono::steady_clock::time_point t)
    {
        return std::chrono::duration<double, std::micro>(t - st.start).count();
    }

    static void obs_record_span(SegmentState& st, const Worker& me,
                                std::chrono::steady_clock::time_point t0,
                                std::chrono::steady_clock::time_point t1, std::uint64_t seq)
    {
        ObsHooks& ob = st.obs;
        const auto s = static_cast<std::size_t>(me.stage);
        if (!ob.stage_latency.empty())
            ob.stage_latency[s]->record_duration(
                std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0));
        if (ob.trace != nullptr && me.traced)
            ob.trace->emit_complete(me.track, ob.span_names[s], us_since(st, t0),
                                    std::chrono::duration<double, std::micro>(t1 - t0).count(),
                                    seq, me.stage);
    }

    static void obs_record_retry(SegmentState& st, const Worker& me, std::uint64_t seq)
    {
        ObsHooks& ob = st.obs;
        if (ob.retries != nullptr)
            ob.retries->inc(static_cast<std::size_t>(me.id));
        if (ob.trace != nullptr && me.traced)
            ob.trace->emit_instant(me.track, ob.retry_name,
                                   us_since(st, std::chrono::steady_clock::now()), seq,
                                   me.stage);
    }

    /// Runtime-side checks the plan cannot do on its own: the plan's shape
    /// may come from a profiled TaskChain, but the tasks that actually run
    /// are the sequence's -- replication is only safe when *they* are
    /// stateless. Also audits fault-injection preconditions.
    void validate_against_sequence(const plan::ExecutionPlan& plan) const
    {
        if (plan.task_count() != sequence_.size())
            throw std::invalid_argument{"Pipeline: plan does not cover the task sequence"};
        for (const plan::PlanStage& stage : plan.stages())
            if (stage.replicas > 1)
                for (int i = stage.first; i <= stage.last; ++i)
                    if (sequence_.task(i).stateful())
                        throw std::invalid_argument{
                            "Pipeline: replicated stage contains stateful task '"
                            + sequence_.task(i).name() + "'"};
        if constexpr (!std::is_copy_constructible_v<T>) {
            // Fan-out duplicates the payload onto every successor queue.
            for (const plan::PlanStage& stage : plan.stages())
                if (stage.out_queues.size() > 1)
                    throw std::invalid_argument{
                        "Pipeline: fan-out stage " + std::to_string(stage.index)
                        + " requires a copy-constructible frame type"};
        }
        if (config_.faults != nullptr && config_.faults->has_liveness_faults()
            && config_.heartbeat_timeout.count() == 0)
            throw std::invalid_argument{
                "Pipeline: kill/stall fault injection requires the watchdog "
                "(set PipelineConfig::heartbeat_timeout)"};
    }

    /// First call of run(): creates the queues and spawns the initial
    /// worker threads (parked until the first epoch). Trace tracks are laid
    /// out stage-major, then the watchdog track -- the same layout one
    /// run() of the non-persistent executor produced.
    void materialize()
    {
        const std::size_t k = stages_.size();
        const auto& specs = plan_->queues();
        queues_.reserve(specs.size());
        for (const plan::QueueSpec& spec : specs)
            queues_.push_back(
                std::make_unique<OrderedQueue<T>>(spec.capacity, config_.first_frame));
        if (config_.overload.enabled) {
            const std::size_t cap = std::max<std::size_t>(1, plan_->options().queue_capacity);
            std::size_t high = config_.overload.high_watermark;
            if (high == 0 || high > cap)
                high = std::max<std::size_t>(1, cap * 3 / 4);
            std::size_t low = config_.overload.low_watermark;
            if (low == 0 || low >= high)
                low = high / 2;
            for (auto& queue : queues_)
                queue->set_watermarks(high, low);
        }

        // Queue wiring follows the plan's DAG: each stage reads its
        // in_queues (fan-in stages behind a merge gate) and writes every
        // out_queues entry. Linear plans reduce to one in, one out.
        io_.clear();
        io_.resize(k);
        for (const plan::PlanStage& stage : plan_->stages()) {
            StageIO& io = io_[static_cast<std::size_t>(stage.index)];
            for (const int q : stage.in_queues)
                io.ins.push_back(queues_[static_cast<std::size_t>(q)].get());
            for (const int q : stage.out_queues)
                io.outs.push_back(queues_[static_cast<std::size_t>(q)].get());
        }
        gates_.clear();
        for (StageIO& io : io_)
            if (io.ins.size() > 1) {
                gates_.push_back(std::make_unique<FanInGate<T>>(io.ins, merge_fn()));
                io.gate = gates_.back().get();
            }
        for (const plan::QueueSpec& spec : specs)
            if (spec.consumer_stage == plan::QueueSpec::kDrain)
                drain_ = queues_[static_cast<std::size_t>(spec.index)].get();

        seg_.live_in_stage = std::vector<std::atomic<int>>(k);

        if (config_.sink != nullptr && config_.sink->enabled()
            && config_.sink->trace_enabled())
            trace_ = &config_.sink->trace();

        for (const plan::WorkerSlot& slot : plan_->workers())
            spawn_worker(slot.stage, slot.id);
        next_worker_id_ = plan_->next_worker_id();
        if (trace_ != nullptr)
            watchdog_track_ = trace_->add_track(obs::schema::kWatchdogTrack);
        materialized_ = true;
    }

    /// Spawns one worker thread for `stage`. The stage's first worker
    /// borrows the sequence's original task instances (required for
    /// stateful stages, whose tasks cannot clone); every other worker owns
    /// clones. `id` < 0 allocates the next pipeline-local id. While a
    /// segment is open the worker joins it (it starts pulling frames at
    /// once); otherwise it parks for the next one. Caller holds
    /// swap_mutex_ and workers_mutex_ (materialize: no other thread yet).
    void spawn_worker(int stage, int id = -1)
    {
        auto worker = std::make_unique<Worker>();
        worker->id = id >= 0 ? id : next_worker_id_++;
        worker->stage = stage;
        const core::Stage& spec = stages_[static_cast<std::size_t>(stage)];
        if (originals_free(stage)) {
            worker->tasks = sequence_.stage_view(spec.first, spec.last);
            worker->owns_originals = true;
        } else {
            worker->clones = sequence_.stage_clones(spec.first, spec.last);
            worker->tasks.reserve(worker->clones.size());
            for (auto& owned : worker->clones)
                worker->tasks.push_back(owned.get());
        }
        if (trace_ != nullptr) {
            // Track tables cannot grow while producers emit; spawns during
            // a run go untraced (metrics still flow).
            if (running_)
                worker->traced = false;
            else
                worker->track = trace_->add_track(obs::schema::worker_track(worker->id, stage));
        }
        worker->last_beat_ns.store(now_ns());

        std::uint64_t born_epoch = 0;
        {
            std::lock_guard lock{epoch_mutex_};
            if (segment_active_) {
                born_epoch = epoch_ - 1; // wait predicate is already true
                ++seg_.entered;
                seg_.live_in_stage[static_cast<std::size_t>(stage)].fetch_add(1);
            } else {
                born_epoch = epoch_; // sleep until the *next* segment starts
            }
        }
        const int pin_cpu = config_.core_map.empty()
            ? -1
            : config_.core_map[static_cast<std::size_t>(worker->id)
                               % config_.core_map.size()];
        Worker* raw = worker.get();
        worker->thread = std::thread{[this, raw, born_epoch, pin_cpu] {
            if (pin_cpu >= 0)
                (void)pin_current_thread_to_cpu(pin_cpu);
            worker_main(*raw, born_epoch);
        }};
        workers_.push_back(std::move(worker));
        spawned_total_.fetch_add(1);
    }

    /// Neither fenced, retired nor exited: the worker counts toward its
    /// stage's census.
    [[nodiscard]] static bool alive(const Worker& worker)
    {
        return !worker.gone.load() && !worker.fenced.load() && !worker.dismissed.load();
    }

    /// Whether the stage's original task instances can be (re)borrowed: no
    /// live worker owns them, and no fenced or retired owner may still be
    /// executing user code with them -- it may until its segment body
    /// returns (seg_done) or its thread is gone.
    [[nodiscard]] bool originals_free(int stage) const
    {
        for (const auto& worker : workers_)
            if (worker->stage == stage && worker->owns_originals
                && (alive(*worker) || (!worker->gone.load() && !worker->seg_done.load())))
                return false;
        return true;
    }

    /// True when every task of the stage can clone (no stateful task), so
    /// an in-flight spawn never needs the originals.
    [[nodiscard]] bool stage_cloneable(int stage) const
    {
        const core::Stage& spec = stages_[static_cast<std::size_t>(stage)];
        for (int i = spec.first; i <= spec.last; ++i)
            if (sequence_.task(i).stateful())
                return false;
        return true;
    }

    [[nodiscard]] int live_worker_count(int stage) const
    {
        int count = 0;
        for (const auto& worker : workers_)
            if (worker->stage == stage && alive(*worker))
                ++count;
        return count;
    }

    /// True when every stage runs exactly the plan's replica count (a
    /// fenced worker leaves its slot empty until a retarget or a rebuild
    /// refills it). Caller holds swap_mutex_.
    [[nodiscard]] bool census_complete() const
    {
        if (!materialized_)
            return true; // materialize() staffs every slot of the plan
        std::lock_guard lock{workers_mutex_};
        for (const plan::PlanStage& stage : plan_->stages())
            if (live_worker_count(stage.index) != stage.replicas)
                return false;
        return true;
    }

    /// Joins and removes every worker that is retired, fenced or gone. Only
    /// while no segment runs: a doomed worker parked in the epoch wait
    /// wakes on its dismiss flag and exits at once. Caller holds
    /// workers_mutex_.
    void reap_dead_workers()
    {
        if (std::all_of(workers_.begin(), workers_.end(),
                        [](const auto& worker) { return alive(*worker); }))
            return;
        {
            std::lock_guard lock{epoch_mutex_}; // see dismiss()
            for (auto& worker : workers_)
                if (!alive(*worker))
                    worker->dismissed.store(true);
        }
        epoch_cv_.notify_all();
        std::erase_if(workers_, [](const std::unique_ptr<Worker>& worker) {
            if (!worker->dismissed.load())
                return false;
            if (worker->thread.joinable())
                worker->thread.join();
            return true;
        });
    }

    /// Retire request: set under epoch_mutex_ so a worker between its wait
    /// predicate and its sleep cannot miss the wake-up.
    void dismiss(Worker& worker)
    {
        {
            std::lock_guard lock{epoch_mutex_};
            worker.dismissed.store(true);
        }
        epoch_cv_.notify_all();
    }

    /// Retires one live worker of `stage` (a clone owner when possible, so
    /// the originals stay owned). Mid-segment it finishes its in-flight
    /// frame and retires from the stage count; its thread is joined at the
    /// next segment start, never here -- the caller may be the watchdog,
    /// and blocking it stalls fencing. Caller holds workers_mutex_.
    void dismiss_one(int stage)
    {
        Worker* victim = nullptr;
        for (auto& worker : workers_) {
            if (worker->stage != stage || !alive(*worker))
                continue;
            if (victim == nullptr || victim->owns_originals)
                victim = worker.get();
        }
        if (victim != nullptr)
            dismiss(*victim);
    }

    /// Bound on reclaim_originals' wait.
    static constexpr std::chrono::milliseconds kReclaimTimeout{200};

    /// Mid-segment, a stage below its target whose tasks cannot clone can
    /// only be refilled with the sequence's original task instances: waits
    /// (at most kReclaimTimeout) for their previous owner to finish its
    /// in-flight frame. False when one never does (e.g. a
    /// stalled-but-alive fenced worker still running user code). Caller
    /// holds swap_mutex_.
    bool reclaim_originals(const plan::ExecutionPlan& next)
    {
        const auto deadline = std::chrono::steady_clock::now() + kReclaimTimeout;
        for (const plan::PlanStage& stage : next.stages()) {
            if (stage_cloneable(stage.index))
                continue;
            for (;;) {
                {
                    std::lock_guard lock{workers_mutex_};
                    if (live_worker_count(stage.index) >= stage.replicas
                        || originals_free(stage.index))
                        break;
                }
                if (std::chrono::steady_clock::now() >= deadline)
                    return false;
                std::this_thread::sleep_for(std::chrono::microseconds{100});
            }
        }
        return true;
    }

    /// Publishes `next` -- a validated, resize-only successor of the
    /// running plan -- and reconciles the worker census with it. Stage
    /// intervals and core types are unchanged, and running workers hold
    /// references into stages_, so only the replica counts change in
    /// place. Caller holds swap_mutex_.
    void land(std::shared_ptr<const plan::ExecutionPlan> next)
    {
        for (const plan::PlanStage& stage : next->stages())
            stages_[static_cast<std::size_t>(stage.index)].cores = stage.replicas;
        {
            std::lock_guard lock{plan_mutex_};
            plan_ = next;
        }
        if (!materialized_)
            return; // materialize() spawns the plan's workers
        // Stay ahead of the plan's id counter: replacement workers spawned
        // for fenced slots (which the plan does not know about) must never
        // reuse an id a future delta could hand out.
        next_worker_id_ = std::max(next_worker_id_, next->next_worker_id());

        std::lock_guard lock{workers_mutex_};
        if (!running_)
            reap_dead_workers(); // frees a fenced stateful owner's originals
        for (const plan::PlanStage& stage : next->stages()) {
            int staffed = live_worker_count(stage.index);
            for (; staffed > stage.replicas; --staffed)
                dismiss_one(stage.index);
            for (; staffed < stage.replicas; ++staffed)
                spawn_worker(stage.index);
        }
    }

    void resolve_obs_hooks(SegmentState& st)
    {
        st.obs = ObsHooks{};
        obs::Sink* const sink =
            config_.sink != nullptr && config_.sink->enabled() ? config_.sink : nullptr;
        if (sink == nullptr)
            return;
        ObsHooks& ob = st.obs;
        const std::size_t k = stages_.size();
        ob.active = true;
        if (sink->metrics_enabled()) {
            obs::MetricsRegistry& m = sink->metrics();
            ob.metrics = &m;
            ob.frames_delivered = &m.counter(obs::schema::kFramesDelivered);
            ob.frames_dropped = &m.counter(obs::schema::kFramesDropped);
            ob.retries = &m.counter(obs::schema::kRetries);
            ob.heartbeats = &m.counter(obs::schema::kHeartbeats);
            ob.fenced = &m.counter(obs::schema::kWorkersFenced);
            for (std::size_t s = 0; s < k; ++s) {
                const int stage_index = static_cast<int>(s);
                ob.stage_latency.push_back(&m.histogram(obs::schema::stage_latency(stage_index)));
                ob.queue_wait.push_back(&m.histogram(obs::schema::queue_wait(stage_index)));
            }
            if (config_.overload.enabled) {
                ob.frames_shed = &m.counter(obs::schema::kFramesShed);
                ob.brownout_entries = &m.counter(obs::schema::kBrownoutEntries);
                ob.brownout_level = &m.gauge(obs::schema::kBrownoutLevel);
                // One gauge per queue (DAG plans have more queues than
                // stages); for linear plans queue index == stage index.
                for (std::size_t q = 0; q < queues_.size(); ++q)
                    ob.queue_depth.push_back(
                        &m.gauge(obs::schema::queue_depth(static_cast<int>(q))));
            }
        }
        if (trace_ != nullptr) {
            ob.trace = trace_;
            ob.watchdog_track = watchdog_track_;
            for (std::size_t s = 0; s < k; ++s)
                ob.span_names.push_back(trace_->intern(obs::schema::stage_span(
                    static_cast<int>(s), stages_[s].first, stages_[s].last)));
            ob.retry_name = trace_->intern(obs::schema::kRetry);
            ob.tombstone_name = trace_->intern(obs::schema::kTombstone);
            ob.fence_name = trace_->intern(obs::schema::kFence);
        }
    }

    // -- worker lifetime ---------------------------------------------------

    /// Thread body of a persistent worker: park on the epoch cv, run one
    /// segment, report parked, repeat. Exits on pipeline shutdown, on a
    /// dismiss request (a retarget retired the slot) or after being fenced
    /// (the thread is dead to the pipeline; it never re-enters).
    void worker_main(Worker& me, std::uint64_t seen_epoch)
    {
        for (;;) {
            {
                std::unique_lock lock{epoch_mutex_};
                epoch_cv_.wait(lock, [&] {
                    return shutdown_ || me.dismissed.load() || epoch_ > seen_epoch;
                });
                // A worker counted into the open segment always runs it,
                // even when dismissed or fenced before its first wake-up:
                // its loop then exits at once, settling the stage count and
                // parked_ that the segment's end waits for.
                if (shutdown_ || epoch_ == seen_epoch) {
                    me.gone.store(true);
                    return;
                }
                seen_epoch = epoch_;
            }
            run_segment(me);
            // Order matters: seg_done (task instances released) must be
            // visible before parked_ satisfies the segment-end predicate.
            me.seg_done.store(true);
            const bool lost = me.fenced.load();
            {
                std::lock_guard lock{epoch_mutex_};
                ++parked_;
            }
            parked_cv_.notify_all();
            if (lost) {
                me.gone.store(true);
                return;
            }
        }
    }

    void run_segment(Worker& me)
    {
        SegmentState& st = seg_;
        const core::Stage& stage = stages_[static_cast<std::size_t>(me.stage)];
        StageIO& io = io_[static_cast<std::size_t>(me.stage)];
        try {
            if (io.ins.empty())
                source_loop(st, me, stage, me.tasks, io);
            else
                stage_loop(st, me, stage, me.tasks, io);
        } catch (...) {
            me.exited.store(true);
            record_error(st, std::current_exception());
            (void)retire(st, me);
        }
    }

    void record_error(SegmentState& st, std::exception_ptr error)
    {
        {
            std::lock_guard lock{st.error_mutex};
            if (!st.first_error)
                st.first_error = error;
        }
        for (auto& queue : queues_)
            queue->abort();
    }

    /// Decrements the stage's live-worker count exactly once per worker.
    /// Returns true when this call retired the stage's last worker.
    static bool retire(SegmentState& st, Worker& me)
    {
        if (me.retired.exchange(true))
            return false;
        return st.live_in_stage[static_cast<std::size_t>(me.stage)].fetch_sub(1) == 1;
    }

    void run_tasks(const core::Stage& stage, const std::vector<Task<T>*>& tasks, T& frame,
                   std::uint64_t seq)
    {
        for (std::size_t t = 0; t < tasks.size(); ++t) {
            const int task_index = stage.first + static_cast<int>(t);
            if (config_.faults != nullptr && config_.faults->should_throw(task_index, seq))
                throw TransientTaskFault{task_index, seq};
            if (config_.emulator != nullptr) {
                const auto begin = std::chrono::steady_clock::now();
                tasks[t]->process(frame);
                const auto elapsed = std::chrono::steady_clock::now() - begin;
                config_.emulator->after_task(
                    task_index, stage.type,
                    std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed));
            } else {
                tasks[t]->process(frame);
            }
        }
    }

    /// Runs the stage's tasks on one frame with the bounded-retry policy.
    /// Throws (the last failure) once the retry budget is exhausted.
    void process_frame(SegmentState& st, Worker& me, const core::Stage& stage,
                       const std::vector<Task<T>*>& tasks, Envelope<T>& envelope)
    {
        constexpr bool restorable =
            std::is_copy_constructible_v<T> && std::is_copy_assignable_v<T>;
        T backup{};
        if constexpr (restorable) {
            if (config_.max_task_retries > 0)
                backup = envelope.payload;
        }
        for (int attempt = 0;; ++attempt) {
            try {
                run_tasks(stage, tasks, envelope.payload, envelope.seq);
                return;
            } catch (...) {
                if (attempt >= config_.max_task_retries)
                    throw;
                st.retries.fetch_add(1);
                if (st.obs.active)
                    obs_record_retry(st, me, envelope.seq);
                if constexpr (restorable)
                    envelope.payload = backup;
                const auto backoff = std::chrono::microseconds{static_cast<std::int64_t>(
                    static_cast<double>(config_.retry_backoff.count())
                    * std::pow(config_.retry_backoff_factor, attempt))};
                beat(st, me);
                std::this_thread::sleep_for(backoff);
                beat(st, me);
            }
        }
    }

    /// Pushes with periodic heartbeats so a worker blocked on a full queue
    /// stays visibly alive. Returns false only when the queue is closed
    /// (aborted teardown): the worker should stop its segment. A stale
    /// outcome -- just this frame obsolete, e.g. already delivered as a
    /// tombstone by the watchdog or the load shedder -- consumes the
    /// envelope and returns true so the worker moves on to the next frame.
    bool push_with_beat(SegmentState& st, Worker& me, OrderedQueue<T>& out,
                        Envelope<T> envelope)
    {
        for (;;) {
            const auto outcome = out.try_push_for(envelope, st.beat_interval);
            if (outcome == OrderedQueue<T>::PushOutcome::pushed
                || outcome == OrderedQueue<T>::PushOutcome::stale)
                return true;
            if (outcome == OrderedQueue<T>::PushOutcome::closed)
                return false;
            beat(st, me);
        }
    }

    /// Fan-out push: delivers `envelope` to every out queue of the stage
    /// (data payloads are copied for all but the last queue; control
    /// envelopes -- end markers and tombstones -- are rebuilt, never
    /// copied). Returns false once any out queue reports closed.
    bool push_all_with_beat(SegmentState& st, Worker& me,
                            const std::vector<OrderedQueue<T>*>& outs, Envelope<T> envelope)
    {
        bool alive = true;
        for (std::size_t o = 0; o + 1 < outs.size(); ++o) {
            Envelope<T> copy = Envelope<T>::tombstone(envelope.seq);
            if (envelope.end) {
                copy = Envelope<T>::end_of_stream(envelope.seq);
            } else if (!envelope.dropped) {
                if constexpr (std::is_copy_constructible_v<T>)
                    copy = Envelope<T>::data(envelope.seq, envelope.payload);
                // move-only T cannot reach here: validate_against_sequence
                // rejects fan-out stages for such payloads at construction.
            }
            alive = push_with_beat(st, me, *outs[o], std::move(copy)) && alive;
        }
        alive = push_with_beat(st, me, *outs.back(), std::move(envelope)) && alive;
        return alive;
    }

    /// The configured fan-in payload merge, or the default: use
    /// T::merge_from when the payload provides it, else input 0 wins.
    [[nodiscard]] Merge merge_fn() const
    {
        if (merge_)
            return merge_;
        return [](T& into, T& from, int) {
            if constexpr (requires(T& a, T& b) { a.merge_from(b); })
                into.merge_from(from);
            else
                (void)into, (void)from;
        };
    }

    /// Pops the next input envelope for a stage: through the merge gate for
    /// fan-in stages, straight off the single input queue otherwise. The
    /// result mirrors OrderedQueue::PopResult (timed_out / done / envelope).
    typename FanInGate<T>::Result pop_input(SegmentState& st, Worker& me, StageIO& io)
    {
        if (io.gate != nullptr)
            return io.gate->pop_round(
                st.beat_interval, [&] { beat(st, me); },
                [&] { return me.fenced.load() || me.dismissed.load(); });
        auto popped = io.ins.front()->try_pop_for(st.beat_interval);
        return {std::move(popped.envelope), popped.done};
    }

    void source_loop(SegmentState& st, Worker& me, const core::Stage& stage,
                     const std::vector<Task<T>*>& tasks, StageIO& io)
    {
        for (;;) {
            beat(st, me);
            if (me.fenced.load())
                return; // watchdog already did the bookkeeping
            if (me.dismissed.load())
                break; // retired by an in-flight swap: previous frame was our last
            if (st.stop_source.load())
                break;
            const std::uint64_t seq = st.next_frame.fetch_add(1, std::memory_order_relaxed);
            if (seq >= st.num_frames) {
                if (seq == st.num_frames && !st.end_pushed.exchange(true))
                    push_all_with_beat(st, me, io.outs,
                                       Envelope<T>::end_of_stream(st.num_frames));
                break;
            }
            me.holding.store(seq);
            if (config_.faults != nullptr) {
                if (config_.faults->should_kill(me.id, seq))
                    return; // silent death, frame still held -> watchdog recovers
                const auto stall = config_.faults->stall_before(me.id, seq);
                if (stall.count() > 0)
                    std::this_thread::sleep_for(stall);
            }
            Envelope<T> envelope = Envelope<T>::data(seq, T{});
            if constexpr (requires(T& p) { p.seq = seq; })
                envelope.payload.seq = seq; // payloads may carry their identity
            std::chrono::steady_clock::time_point span_begin{};
            if (st.obs.active)
                span_begin = std::chrono::steady_clock::now();
            process_frame(st, me, stage, tasks, envelope);
            if (st.obs.active)
                obs_record_span(st, me, span_begin, std::chrono::steady_clock::now(), seq);
            beat(st, me);
            if (me.holding.exchange(kNoFrame) == kNoFrame)
                return; // watchdog presumed us dead and tombstoned the frame
            if (!push_all_with_beat(st, me, io.outs, std::move(envelope)))
                break;
        }
        me.exited.store(true);
        // The last source out owns the end-of-stream marker when the stream
        // was cut short (stop_source or failures); on a full run the claimant
        // of seq == num_frames already pushed it above.
        if (retire(st, me) && !st.end_pushed.exchange(true)) {
            const std::uint64_t end_seq = std::min(st.next_frame.load(), st.num_frames);
            push_all_with_beat(st, me, io.outs, Envelope<T>::end_of_stream(end_seq));
        }
    }

    void stage_loop(SegmentState& st, Worker& me, const core::Stage& stage,
                    const std::vector<Task<T>*>& tasks, StageIO& io)
    {
        // Input-wait accounting spans timed-out pops: the clock starts when
        // the worker first goes hungry and stops at the successful pop.
        std::chrono::steady_clock::time_point wait_from{};
        bool waiting = false;
        for (;;) {
            beat(st, me);
            if (me.fenced.load())
                return;
            if (me.dismissed.load())
                break; // retired by an in-flight swap: previous frame was our last
            if (st.obs.active && !waiting) {
                wait_from = std::chrono::steady_clock::now();
                waiting = true;
            }
            auto popped = pop_input(st, me, io);
            if (popped.timed_out())
                continue;
            if (st.obs.active) {
                waiting = false;
                if (!st.obs.queue_wait.empty())
                    st.obs.queue_wait[static_cast<std::size_t>(me.stage)]->record_duration(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - wait_from));
            }
            if (popped.done)
                break; // aborted, or a sibling forwarded the end marker
            Envelope<T> envelope = std::move(*popped.envelope);
            if (envelope.end) {
                push_all_with_beat(st, me, io.outs, std::move(envelope));
                break;
            }
            if (envelope.dropped) { // tombstone: forward unprocessed
                if (!push_all_with_beat(st, me, io.outs, std::move(envelope)))
                    break;
                continue;
            }
            me.holding.store(envelope.seq);
            if (config_.faults != nullptr) {
                if (config_.faults->should_kill(me.id, envelope.seq))
                    return; // silent death, frame still held -> watchdog recovers
                const auto stall = config_.faults->stall_before(me.id, envelope.seq);
                if (stall.count() > 0)
                    std::this_thread::sleep_for(stall);
            }
            std::chrono::steady_clock::time_point span_begin{};
            if (st.obs.active)
                span_begin = std::chrono::steady_clock::now();
            process_frame(st, me, stage, tasks, envelope);
            if (st.obs.active)
                obs_record_span(st, me, span_begin, std::chrono::steady_clock::now(),
                                envelope.seq);
            beat(st, me);
            if (me.holding.exchange(kNoFrame) == kNoFrame)
                return; // watchdog presumed us dead and tombstoned the frame
            if (!push_all_with_beat(st, me, io.outs, std::move(envelope)))
                break;
        }
        me.exited.store(true);
        (void)retire(st, me);
    }

    // -- watchdog ---------------------------------------------------------

    void watchdog_loop(SegmentState& st)
    {
        const auto timeout_ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(config_.heartbeat_timeout)
                .count();
        const bool fencing = timeout_ns > 0; // overload-only runs never fence
        const auto poll = fencing ? config_.watchdog_poll
                                  : std::max(config_.overload.poll, std::chrono::milliseconds{1});
        auto next_overload_sample = std::chrono::steady_clock::now();
        std::vector<Worker*> stale;
        while (!st.over.load()) {
            std::this_thread::sleep_for(poll);
            if (config_.overload.enabled) {
                const auto now = std::chrono::steady_clock::now();
                if (now >= next_overload_sample) {
                    overload_poll(st);
                    next_overload_sample =
                        now + std::max(config_.overload.poll, std::chrono::milliseconds{1});
                }
            }
            if (!fencing)
                continue;
            const std::int64_t now = now_ns();
            // Scan under workers_mutex_ (an in-flight retarget may be
            // growing the vector), but fence outside it: the loss handler
            // may itself spawn replacements, which needs the same mutex.
            // Worker objects are stable for the whole run -- in-flight
            // retires only mark workers dismissed, they never erase.
            stale.clear();
            {
                std::lock_guard lock{workers_mutex_};
                for (auto& worker : workers_) {
                    if (worker->exited.load() || !alive(*worker))
                        continue;
                    if (now - worker->last_beat_ns.load() > timeout_ns)
                        stale.push_back(worker.get());
                }
            }
            for (Worker* worker : stale)
                fence(st, *worker);
        }
    }

    /// One overload-monitor pass, on the watchdog thread: sample queue
    /// depths, feed the worst fraction to the brownout controller, and --
    /// while browned out -- shed the oldest frames of congested non-final
    /// queues. The final queue is never shed: its frames are finished work
    /// the drain is about to deliver. queues_ is sized once at materialize,
    /// so iterating it here without a lock is safe; each queue's own mutex
    /// guards its contents.
    void overload_poll(SegmentState& st)
    {
        // One plan snapshot per pass: a concurrent retarget may publish a
        // successor (it never changes the queue topology or capacity).
        const std::shared_ptr<const plan::ExecutionPlan> plan = execution_plan();
        const double cap =
            static_cast<double>(std::max<std::size_t>(1, plan->options().queue_capacity));
        double worst = 0.0;
        for (std::size_t s = 0; s < queues_.size(); ++s) {
            const std::size_t depth = queues_[s]->buffered();
            worst = std::max(worst, static_cast<double>(depth) / cap);
            if (!st.obs.queue_depth.empty())
                st.obs.queue_depth[s]->set(static_cast<double>(depth));
        }
        if (monitor_hook_)
            monitor_hook_(worst);
        const bool was = st.brownout.browned_out();
        const bool browned = st.brownout.feed(std::min(1.0, worst));
        if (st.obs.brownout_level != nullptr)
            st.obs.brownout_level->set(browned ? 1.0 : 0.0);
        if (browned && !was && st.obs.brownout_entries != nullptr)
            st.obs.brownout_entries->inc(0);
        if (!browned)
            return;
        const auto& specs = plan->queues();
        for (std::size_t s = 0; s < queues_.size(); ++s) {
            if (specs[s].consumer_stage == plan::QueueSpec::kDrain)
                continue; // finished work the drain is about to deliver
            if (!queues_[s]->congested())
                continue;
            const std::size_t shed = queues_[s]->shed_oldest(config_.overload.shed_batch);
            if (shed == 0)
                continue;
            st.frames_shed.fetch_add(shed);
            if (st.obs.frames_shed != nullptr)
                st.obs.frames_shed->add(0, shed); // a shed is never silent
        }
    }

    /// Declares a worker permanently lost: records the loss, tombstones the
    /// frame it held, and starts a graceful drain if its stage is now empty.
    void fence(SegmentState& st, Worker& me)
    {
        me.fenced.store(true);
        const core::Stage& stage = stages_[static_cast<std::size_t>(me.stage)];
        const std::uint64_t held = me.holding.exchange(kNoFrame);
        {
            std::lock_guard lock{st.loss_mutex};
            if (st.failure_seconds < 0.0)
                st.failure_seconds =
                    std::chrono::duration<double>(std::chrono::steady_clock::now() - st.start)
                        .count();
            st.losses.push_back(WorkerLoss{me.id, me.stage, stage.type, held});
        }
        {
            // Trace instants go on the watchdog's own track: the fenced
            // worker may still be alive and writing to its ring.
            ObsHooks& ob = st.obs;
            if (ob.fenced != nullptr)
                ob.fenced->inc(static_cast<std::size_t>(me.id));
            if (ob.trace != nullptr) {
                const double now_us = us_since(st, std::chrono::steady_clock::now());
                ob.trace->emit_instant(ob.watchdog_track, ob.fence_name, now_us,
                                       held == kNoFrame ? obs::TraceEvent::kNoFrame : held,
                                       me.stage);
                if (held != kNoFrame)
                    ob.trace->emit_instant(ob.watchdog_track, ob.tombstone_name, now_us, held,
                                           me.stage);
            }
        }
        if (held != kNoFrame)
            for (OrderedQueue<T>* out : io_[static_cast<std::size_t>(me.stage)].outs)
                watchdog_push(st, *out, Envelope<T>::tombstone(held));
        const bool stage_empty = retire(st, me);
        // Give the loss handler (rt::run_with_recovery) a chance to restore
        // the pipeline with an in-flight frame swap before falling back to
        // the graceful drain. The handler runs on this (watchdog) thread;
        // losses it declines keep the legacy fence-then-drain behavior.
        bool restored = false;
        if (loss_handler_ && !st.over.load())
            restored = loss_handler_(WorkerLoss{me.id, me.stage, stage.type, held});
        if (stage_empty && !restored)
            initiate_drain(st, me.stage);
    }

    /// The stage lost its last worker: no frame can cross it any more. Stop
    /// the source and flush everything already in flight, in stream order.
    void initiate_drain(SegmentState& st, int stage)
    {
        st.stop_source.store(true);
        StageIO& io = io_[static_cast<std::size_t>(stage)];
        if (io.ins.empty()) { // the source itself died: just close the stream
            if (!st.end_pushed.exchange(true)) {
                const std::uint64_t end_seq = std::min(st.next_frame.load(), st.num_frames);
                for (OrderedQueue<T>* out : io.outs)
                    watchdog_push(st, *out, Envelope<T>::end_of_stream(end_seq));
            }
            return;
        }
        std::lock_guard lock{st.scavenger_mutex};
        st.scavengers.emplace_back([this, &st, stage] { scavenge(st, stage); });
    }

    /// Stands in for a fully-dead stage: converts its input frames into
    /// tombstones on its output queues and forwards the end marker, so the
    /// tail of the pipeline drains in order. A dead fan-in stage is drained
    /// through its merge gate, which keeps the per-input pops aligned.
    void scavenge(SegmentState& st, int stage)
    {
        StageIO& io = io_[static_cast<std::size_t>(stage)];
        for (;;) {
            typename FanInGate<T>::Result popped;
            if (io.gate != nullptr) {
                popped = io.gate->pop_round(
                    std::chrono::milliseconds{5}, [] {}, [&] { return st.over.load(); });
            } else {
                auto r = io.ins.front()->try_pop_for(std::chrono::milliseconds{5});
                popped = {std::move(r.envelope), r.done};
            }
            if (popped.timed_out()) {
                if (st.over.load())
                    return;
                continue;
            }
            if (popped.done)
                return;
            const Envelope<T>& envelope = *popped.envelope;
            for (OrderedQueue<T>* out : io.outs)
                watchdog_push(st, *out,
                              envelope.end ? Envelope<T>::end_of_stream(envelope.seq)
                                           : Envelope<T>::tombstone(envelope.seq));
            if (envelope.end)
                return;
        }
    }

    /// Push used by the watchdog and scavengers -- always a tombstone or an
    /// end-of-stream marker, delivered unconditionally. It must never block:
    /// the watchdog fences stale workers one at a time, and a fence blocked
    /// on a full queue would keep the *next* fence (whose tombstone may be
    /// the very hole the consumer is stuck on) from ever happening -- a
    /// deadlock we hit in practice when two workers died close together
    /// with the survivor keeping the output queue at capacity.
    void watchdog_push(SegmentState&, OrderedQueue<T>& queue, Envelope<T> envelope)
    {
        queue.force_push(std::move(envelope));
    }

    TaskSequence<T>& sequence_;
    /// The running plan. Replaced (never mutated) by retarget, under
    /// swap_mutex_ and plan_mutex_; read under either.
    std::shared_ptr<const plan::ExecutionPlan> plan_;
    PipelineConfig config_;
    Merge merge_; ///< fan-in payload merge (set_merge); null = default

    std::vector<core::Stage> stages_; ///< runtime stage specs (follow plan_)
    std::vector<std::unique_ptr<OrderedQueue<T>>> queues_;
    std::vector<StageIO> io_;         ///< per stage, follows plan_ wiring
    std::vector<std::unique_ptr<FanInGate<T>>> gates_;
    OrderedQueue<T>* drain_ = nullptr; ///< the queue run_from consumes
    std::vector<std::unique_ptr<Worker>> workers_;
    int next_worker_id_ = 0;
    std::atomic<int> spawned_total_{0};
    bool materialized_ = false;

    /// Guards the workers_ vector whenever a run is in flight: the
    /// watchdog scans it while an in-flight retarget may be appending to
    /// it. Erasure stays a between-segment affair, so Worker* stay valid for
    /// a whole run. Acquired before epoch_mutex_ when both are needed.
    mutable std::mutex workers_mutex_;
    /// Serializes retarget calls against each other and against segment
    /// setup; guards running_.
    std::mutex swap_mutex_;
    mutable std::mutex plan_mutex_; ///< publishes plan_ to snapshot readers
    /// A run_from is in progress: set at segment setup, cleared after its
    /// watchdog is joined. Decides live vs parked for retarget.
    bool running_ = false;
    LossHandler loss_handler_;
    MonitorHook monitor_hook_;

    obs::TraceRecorder* trace_ = nullptr; ///< resolved once at materialize
    std::size_t watchdog_track_ = 0;

    // Segment synchronization: run_from bumps epoch_ to release the parked
    // workers, each worker increments parked_ when its segment work is done,
    // and run_from returns only after parked_ reaches the entered count.
    std::mutex epoch_mutex_;
    std::condition_variable epoch_cv_;
    std::condition_variable parked_cv_;
    std::uint64_t epoch_ = 0;
    std::size_t parked_ = 0;
    bool shutdown_ = false;
    /// True while run_from has a segment open (guarded by epoch_mutex_):
    /// decides whether an in-flight spawn joins the current epoch or parks.
    bool segment_active_ = false;

    SegmentState seg_;
};

} // namespace amp::rt
