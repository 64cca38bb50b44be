#pragma once
// Batched, multi-threaded, memoizing solver service.
//
// SolverService turns the synchronous core::schedule(ScheduleRequest) API
// into a serving layer: batches of independent requests are solved in
// parallel by a pool of workers (work-stealing over bounded per-worker
// deques), and every result is memoized in a sharded LRU cache keyed by
// (chain fingerprint, strategy, resources, options) -- see
// svc/solution_cache.hpp. Sweep-style callers (benchmark grids, the
// energy-aware MODCOD sweeps, online rescheduling) that re-solve the same
// (chain, resources) pairs get cached, bit-identical solutions in
// microseconds instead of re-running the solver.
//
// Concurrency model: submit_batch distributes jobs round-robin across the
// worker deques; workers pop their own deque from the front and steal from
// the back of a victim's when empty; the submitting thread participates in
// draining its own batch instead of blocking, so a single-threaded service
// (workers = 1 on a small machine) is never slower than a sequential loop.
// When every deque is full the submitter solves the job inline
// (backpressure instead of unbounded queue growth).
//
// Overload protection (docs/FAULT_MODEL.md, "Overload model"): batch jobs
// pass through a bounded admission queue with configurable shedding
// (reject-newest / drop-oldest / priority-aware); shed requests answer
// ScheduleError::rejected, never hang. A circuit breaker trips after
// consecutive slow solves and fails fast while open, half-opening with
// probes after a cooldown. With brownout serving enabled, a request that
// would be rejected (or arrives under queue pressure) is answered with a
// *stale* compatible cached plan -- flagged ScheduleResult::degraded --
// while a background refinement re-solves and reports the fresh plan
// through ServiceConfig::on_refined for in-flight hot-swapping.
//
// Telemetry: per-strategy cache hit/miss counters and solve-latency
// histograms, plus overload counters (admission sheds, breaker trips,
// degraded serves), are recorded into an obs::MetricsRegistry (an injected
// one or the service's own); names are listed in docs/SOLVER_SERVICE.md
// and src/obs/schema.hpp.

#include "core/scheduler.hpp"
#include "obs/metrics.hpp"
#include "plan/execution_plan.hpp"
#include "svc/admission.hpp"
#include "svc/circuit_breaker.hpp"
#include "svc/solution_cache.hpp"

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_set>
#include <vector>

namespace amp::svc {

/// A schedule plus its compiled execution plan: what an executor needs to
/// run the solution without re-deriving (and re-validating) its structure.
/// `plan` is non-null iff the solve succeeded. The plan is shared with the
/// solution cache: repeated solve_planned calls for an equal request return
/// the *same* immutable plan object with zero compile work (executors copy
/// it when they need a mutable instance, e.g. rt::Pipeline).
struct PlannedSchedule {
    core::ScheduleResult result;
    std::shared_ptr<const plan::ExecutionPlan> plan;

    [[nodiscard]] bool ok() const noexcept { return result.ok() && plan != nullptr; }
};

/// Outcome of one background brownout refinement (stale-while-revalidate):
/// the fresh solve that replaces a degraded stale serve. A caller running
/// the stale plan hot-swaps onto `fresh.plan` with rt::Pipeline::retarget.
struct RefineOutcome {
    core::ScheduleRequest request; ///< the request that was served stale
    std::shared_ptr<const plan::ExecutionPlan> stale; ///< plan served (may be null)
    PlannedSchedule fresh;                            ///< the re-solve
};

struct ServiceConfig {
    /// Worker threads; 0 means hardware_concurrency (at least 1).
    int workers = 0;
    /// Total cached entries across all shards; 0 disables caching.
    std::size_t cache_capacity = 8192;
    std::size_t cache_shards = 16;
    /// Bounded per-worker deque capacity; submitters solve inline when the
    /// queues are full.
    std::size_t queue_capacity = 256;
    /// Metrics sink; the service owns a private registry when null.
    obs::MetricsRegistry* metrics = nullptr;

    // -- overload protection (docs/FAULT_MODEL.md, "Overload model") ------

    /// Bounded admission queue for batch jobs; max_pending == 0 (default)
    /// admits everything.
    AdmissionConfig admission{};
    /// Circuit breaker over solver invocations (cache hits bypass it);
    /// disabled by default.
    BreakerConfig breaker{.failure_threshold = 0};
    /// Solves slower than this count as breaker failures; 0 means no solve
    /// is ever slow (the breaker then never trips, since core::schedule
    /// maps solver exceptions to error results).
    std::uint64_t slow_solve_ns = 0;
    /// Stale-while-revalidate serving: under pressure (admission queue at
    /// or past `brownout_watermark`, or breaker open) a request whose chain
    /// has *any* compatible successful cached entry is answered with that
    /// stale result immediately, flagged ScheduleResult::degraded, while a
    /// background refinement re-solves at the lowest priority.
    bool brownout = false;
    double brownout_watermark = 0.75;
    /// Invoked on a worker thread after each background refinement. Must be
    /// cheap and thread-safe; the fresh plan enables in-flight hot-swaps.
    std::function<void(const RefineOutcome&)> on_refined{};
};

class SolverService {
public:
    explicit SolverService(ServiceConfig config = {});
    ~SolverService();

    SolverService(const SolverService&) = delete;
    SolverService& operator=(const SolverService&) = delete;

    /// Solves one request through the cache, on the calling thread.
    [[nodiscard]] core::ScheduleResult solve(const core::ScheduleRequest& request);

    /// Like solve(), but also compiles the winning solution into a
    /// plan::ExecutionPlan (profiled against the request's chain) that
    /// rt::Pipeline or dsim::simulate can execute directly. The compiled
    /// plan is stored in the solution cache alongside the result, so a
    /// cache hit whose stored plan was compiled with the same PlanOptions
    /// returns that exact plan object -- zero compile work, pointer-equal
    /// across hits. The plan is only compiled on success; compilation
    /// failures (a solver bug -- schedulers never emit malformed solutions)
    /// propagate as plan::PlanError rather than being swallowed.
    [[nodiscard]] PlannedSchedule solve_planned(const core::ScheduleRequest& request,
                                                plan::PlanOptions options = {});

    /// Solves a batch of independent requests, in parallel across the
    /// worker pool; the calling thread helps drain the batch. Results are
    /// aligned with `requests`. Thread-safe: concurrent batches interleave.
    /// With admission control enabled, jobs the shedding policy refuses
    /// (and queued jobs displaced by later arrivals) complete with
    /// ScheduleError::rejected -- or a degraded stale result under
    /// brownout -- instead of queueing unboundedly.
    [[nodiscard]] std::vector<core::ScheduleResult>
    solve_batch(const std::vector<core::ScheduleRequest>& requests);

    /// Cooperative shutdown: stops the workers, then completes every job
    /// still queued with ScheduleError::rejected, so no solve_batch caller
    /// is ever left waiting on its batch condvar. Submissions racing (or
    /// following) stop() resolve the same way. Idempotent and thread-safe;
    /// concurrent callers block until the first finishes. The destructor
    /// calls it.
    void stop();
    [[nodiscard]] bool stopped() const noexcept
    {
        return stop_.load(std::memory_order_acquire);
    }

    [[nodiscard]] CacheStats cache_stats() const { return cache_.stats(); }
    [[nodiscard]] AdmissionStats admission_stats() const { return admission_.stats(); }
    [[nodiscard]] std::size_t admission_depth() const { return admission_.depth(); }
    /// Read-only breaker view (state / trips / transition log).
    [[nodiscard]] const CircuitBreaker& breaker() const noexcept { return breaker_; }
    /// True while the brownout trigger condition holds: admission pressure
    /// at or past the watermark, or the breaker open.
    [[nodiscard]] bool under_pressure() const;

    [[nodiscard]] int workers() const noexcept { return static_cast<int>(threads_.size()); }
    [[nodiscard]] const ServiceConfig& config() const noexcept { return config_; }

    /// The metrics registry results are recorded into (injected or owned).
    [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return *metrics_; }

    void clear_cache() { cache_.clear(); }

private:
    /// Completion state of one solve_batch call, stack-allocated by the
    /// submitter. Lifetime protocol: workers decrement `remaining` and
    /// notify `done` while holding `mutex`, and the submitter only treats
    /// the batch as complete after observing remaining == 0 under the same
    /// mutex — so the last worker is guaranteed to have released the Batch
    /// before the submitter can return and destroy it.
    struct Batch {
        std::mutex mutex;
        std::condition_variable done;
        std::atomic<std::size_t> remaining{0};
    };

    /// A queued brownout refinement (owns its request; no Batch to notify).
    struct RefineJob {
        core::ScheduleRequest request;
        plan::PlanOptions options;
        std::shared_ptr<const plan::ExecutionPlan> stale;
    };

    struct Job {
        const core::ScheduleRequest* request = nullptr;
        core::ScheduleResult* result = nullptr;
        Batch* batch = nullptr;
        /// Admission state shared with the queue; null when admission is
        /// disabled. A worker must win ticket->claim() to run the job --
        /// losing means the shedding policy already answered it.
        std::shared_ptr<AdmissionTicket> ticket;
        /// When set, this is a background refinement, not a batch job.
        std::shared_ptr<RefineJob> refine;
    };

    /// Bounded mutex-guarded deque: owner pops the front, thieves steal the
    /// back. Small and simple; the solver calls it guards cost orders of
    /// magnitude more than the lock.
    struct WorkDeque {
        std::mutex mutex;
        std::vector<Job> jobs; ///< ring buffer of `capacity` slots
        std::size_t head = 0;  ///< next pop position
        std::size_t count = 0;
    };

    [[nodiscard]] static std::int64_t now_ns() noexcept;

    void worker_loop(std::size_t worker_index);
    [[nodiscard]] bool try_pop(std::size_t worker_index, Job& out);
    [[nodiscard]] bool try_steal(std::size_t thief_index, Job& out);
    [[nodiscard]] bool try_push(std::size_t worker_index, const Job& job);
    void run_job(const Job& job, std::size_t worker_index);
    void finish_batch_job(const Job& job);
    [[nodiscard]] core::ScheduleResult solve_on(const core::ScheduleRequest& request,
                                                std::size_t worker_index,
                                                bool allow_brownout = true);

    // -- overload protection internals --------------------------------------
    [[nodiscard]] AdmissionQueue::Offer admit(const std::shared_ptr<AdmissionTicket>& ticket);
    void publish_admission_depth();
    void publish_breaker();
    void record_breaker_outcome(const core::ScheduleResult& result);
    /// Stale compatible entry for brownout serving, or nullopt.
    [[nodiscard]] std::optional<SolutionCache::PlannedHit>
    stale_for(const CacheKey& key, std::size_t worker_index);
    /// Answer for a request shed at the admission door: degraded stale
    /// result under brownout, ScheduleError::rejected otherwise.
    [[nodiscard]] core::ScheduleResult shed_result(const core::ScheduleRequest& request,
                                                   std::size_t worker_index);
    void enqueue_refinement(const core::ScheduleRequest& request, plan::PlanOptions options,
                            std::shared_ptr<const plan::ExecutionPlan> stale);
    void run_refine(const Job& job, std::size_t worker_index);
    /// The solve+compile+memoize tail of solve_planned: no brownout checks
    /// and no breaker gate. solve_planned gates before calling (gating
    /// again would consume a second half-open probe slot and self-reject
    /// the probe); run_refine deliberately bypasses the breaker -- a
    /// refinement replaces an already-served degraded answer, is deduped to
    /// one in flight per fingerprint, and is exactly the probe traffic an
    /// open breaker wants, so rejecting it would leave the cache stale
    /// forever. Solve outcomes still feed the breaker state.
    [[nodiscard]] PlannedSchedule solve_fresh_planned(const core::ScheduleRequest& request,
                                                      plan::PlanOptions options,
                                                      std::size_t worker_index);
    /// Completes every job still queued with ScheduleError::rejected.
    void drain_rejected();

    ServiceConfig config_;
    SolutionCache cache_;
    AdmissionQueue admission_;
    CircuitBreaker breaker_;
    std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
    obs::MetricsRegistry* metrics_ = nullptr;

    // Pre-resolved per-strategy instruments (registration is mutex-guarded;
    // the hot path only touches lock-free handles).
    struct StrategyInstruments {
        obs::Counter* hits = nullptr;
        obs::Counter* misses = nullptr;
        obs::Counter* errors = nullptr;
        obs::Histogram* solve_latency = nullptr;
    };
    std::vector<StrategyInstruments> instruments_; ///< indexed by Strategy

    /// Overload instruments (names in obs::schema), resolved once.
    struct OverloadInstruments {
        obs::Counter* admission_rejected = nullptr;
        obs::Counter* admission_displaced = nullptr;
        obs::Counter* deadline_exceeded = nullptr;
        obs::Counter* degraded_serves = nullptr;
        obs::Counter* refinements = nullptr;
        obs::Counter* breaker_rejected = nullptr;
        obs::Counter* breaker_trips = nullptr;
        obs::Gauge* admission_depth = nullptr;
        obs::Gauge* breaker_state = nullptr;
    };
    OverloadInstruments overload_;

    std::vector<std::unique_ptr<WorkDeque>> deques_;
    std::vector<std::thread> threads_;
    std::mutex sleep_mutex_;
    std::condition_variable work_ready_;
    std::atomic<bool> stop_{false};
    std::once_flag stop_once_;
    std::atomic<std::size_t> next_deque_{0};
    std::atomic<std::uint64_t> next_ticket_id_{1};

    std::mutex breaker_obs_mutex_;
    std::uint64_t published_trips_ = 0; ///< guarded by breaker_obs_mutex_

    std::mutex refine_mutex_;
    /// hash_key()s of requests with a refinement in flight (dedup); a 64-bit
    /// collision merely skips one refinement, which is harmless.
    std::unordered_set<std::uint64_t> refining_;
};

/// Process-wide service with the default configuration, constructed on
/// first use. rt::Rescheduler (and through it the failure simulator) solve
/// through this instance unless a ReschedulePolicy injects its own.
[[nodiscard]] SolverService& shared_service();

/// Redirects shared_service() to `service` (tests only: lets a fixture
/// substitute an instrumented instance and count the solves reaching it
/// from components that default to the shared service, e.g. arb::Arbiter
/// or rt::Rescheduler). Pass nullptr to restore the real shared instance.
/// Returns the previous override. Not thread-safe against concurrent
/// shared_service() callers; swap only while quiescent.
SolverService* set_shared_service_for_test(SolverService* service) noexcept;

} // namespace amp::svc
