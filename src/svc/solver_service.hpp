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
// (backpressure instead of unbounded queue growth). stop() answers every
// job still queued with ScheduleError::rejected, so no caller ever hangs
// on a stopped service.
//
// Telemetry: per-strategy cache hit/miss counters and solve-latency
// histograms are recorded into an obs::MetricsRegistry (an injected one or
// the service's own); names are listed in docs/SOLVER_SERVICE.md.

#include "core/scheduler.hpp"
#include "obs/metrics.hpp"
#include "plan/execution_plan.hpp"
#include "svc/solution_cache.hpp"

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>
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

    struct Job {
        const core::ScheduleRequest* request = nullptr;
        core::ScheduleResult* result = nullptr;
        Batch* batch = nullptr;
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

    void worker_loop(std::size_t worker_index);
    [[nodiscard]] bool try_pop(std::size_t worker_index, Job& out);
    [[nodiscard]] bool try_steal(std::size_t thief_index, Job& out);
    [[nodiscard]] bool try_push(std::size_t worker_index, const Job& job);
    void run_job(const Job& job, std::size_t worker_index);
    void finish_batch_job(const Job& job);
    [[nodiscard]] core::ScheduleResult solve_on(const core::ScheduleRequest& request,
                                                std::size_t worker_index);
    /// Runs the solver for an exact miss and records the solve.
    [[nodiscard]] core::ScheduleResult solve_miss(const core::ScheduleRequest& request,
                                                  std::size_t worker_index);
    /// Caches `result` (and `plan`, when non-null) under `key`.
    void memoize(const CacheKey& key, const core::ScheduleResult& result,
                 std::shared_ptr<const plan::ExecutionPlan> plan);
    /// Completes every job still queued with ScheduleError::rejected.
    void drain_rejected();

    ServiceConfig config_;
    SolutionCache cache_;
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

    std::vector<std::unique_ptr<WorkDeque>> deques_;
    std::vector<std::thread> threads_;
    std::mutex sleep_mutex_;
    std::condition_variable work_ready_;
    std::atomic<bool> stop_{false};
    std::once_flag stop_once_;
    std::atomic<std::size_t> next_deque_{0};
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
