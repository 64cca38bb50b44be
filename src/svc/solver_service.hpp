#pragma once
// Batched, multi-threaded, memoizing solver service.
//
// SolverService turns the synchronous core::schedule(ScheduleRequest) API
// into a serving layer: batches of independent requests are solved in
// parallel by a pool of workers, and every result is memoized in a sharded
// LRU cache keyed by (chain fingerprint, strategy, resources, options) --
// see svc/solution_cache.hpp. Sweep-style callers (benchmark grids, the
// energy-aware MODCOD sweeps, online rescheduling) that re-solve the same
// (chain, resources) pairs get cached, bit-identical solutions in
// microseconds instead of re-running the solver.
//
// Concurrency model: one FIFO of open batches behind one mutex; idle
// workers wait on one condition variable, submitters for their batch on
// another. solve() and solve_planned() run on the caller, so the pool
// starts only with the first batch of two or more claims (under the mutex,
// never after stop()); a service that batches nothing starts no thread.
// A batch lives on its submitter's stack. Workers claim request indices
// from the oldest open batch, the submitter claims from its own (so
// workers = 1 is never slower than a sequential loop), and the claim that
// takes a batch's last index unlinks it. With the cache on, a batch
// claims only the lowest index of each distinct request; its submitter
// answers the repeats once those finished, through the solve path (cache
// hits). solve_batch returns once it reads finished == size under the
// mutex and has answered the repeats. After stop() the workers exit
// and each submitter claims the rest of its own batch, which the solve
// path answers with ScheduleError::rejected, so no caller hangs on a
// stopped service.
//
// One solve path serves solve(), solve_planned() and batch requests: stop
// check, cache lookup, solve on a miss, compile when a plan is asked for
// and the entry has none for those PlanOptions, store without the
// warm-start frontier.
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
#include <deque>
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
    /// Worker threads; 0 means hardware_concurrency (at least 1). They
    /// start with the first solve_batch that has two or more claims.
    int workers = 0;
    /// Total cached entries across all shards; 0 disables caching.
    std::size_t cache_capacity = 8192;
    std::size_t cache_shards = 16;
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
    /// worker pool; the calling thread helps solve its own batch. Results
    /// are aligned with `requests`. With the cache on, each distinct
    /// request is solved once and its repeats are answered from the cache
    /// afterwards (cache_hit set, counted as hits). Thread-safe: concurrent
    /// batches are served oldest first.
    [[nodiscard]] std::vector<core::ScheduleResult>
    solve_batch(const std::vector<core::ScheduleRequest>& requests);

    /// Cooperative shutdown: stops and joins the workers. Every request
    /// not yet solved -- queued in an open batch, racing stop() or
    /// following it -- is answered with ScheduleError::rejected, so no
    /// caller is left waiting. Idempotent and thread-safe; concurrent
    /// callers block until the first finishes. The destructor calls it.
    void stop();
    [[nodiscard]] bool stopped() const noexcept
    {
        return stop_.load(std::memory_order_acquire);
    }

    [[nodiscard]] CacheStats cache_stats() const { return cache_.stats(); }

    /// The configured pool size (ServiceConfig::workers, or the host's
    /// core count for 0), whether or not the pool has started yet.
    [[nodiscard]] int workers() const noexcept { return workers_; }
    [[nodiscard]] const ServiceConfig& config() const noexcept { return config_; }

    /// The metrics registry results are recorded into (injected or owned).
    [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return *metrics_; }

    void clear_cache() { cache_.clear(); }

private:
    /// One solve_batch call, on its submitter's stack. `next` and
    /// `finished` are guarded by mutex_; a request slot belongs to whoever
    /// claimed its index.
    struct Batch {
        const core::ScheduleRequest* requests = nullptr;
        core::ScheduleResult* results = nullptr;
        /// Request index of each claim; null claims every index.
        const std::size_t* indices = nullptr;
        std::size_t size = 0;     ///< claims in the batch
        std::size_t next = 0;     ///< requests claimed
        std::size_t finished = 0; ///< requests answered
    };

    /// Starts the workers; a thread that cannot start leaves the pool
    /// short. Caller holds mutex_, has a batch of two or more claims and
    /// has checked that the service is neither started nor stopped.
    void start_pool() noexcept;
    void worker_loop(std::size_t worker_index);
    /// Metric counter slot of a solve on the calling thread (workers take
    /// 0 .. workers() - 1).
    [[nodiscard]] std::size_t caller_shard() const noexcept
    {
        return static_cast<std::size_t>(workers_);
    }
    /// Takes `batch`'s next request index, from the back: sweeps list their
    /// grids smallest resource vector first, so the slowest solves start
    /// first and fewer are left for the batch's tail. The claim that takes
    /// the last index unlinks the batch from open_. Caller holds mutex_.
    [[nodiscard]] std::size_t claim(Batch& batch);
    /// The one solve path; compiles a plan only when `plan_options` is set.
    /// `shard` picks the metric counter slot (a worker's index).
    [[nodiscard]] PlannedSchedule serve(const core::ScheduleRequest& request,
                                        const plan::PlanOptions* plan_options, std::size_t shard);

    ServiceConfig config_;
    int workers_ = 1;
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

    std::mutex mutex_;
    std::condition_variable work_;    ///< workers: a batch opened, or stop
    std::condition_variable done_;    ///< submitters: a batch finished
    std::deque<Batch*> open_;         ///< batches with unclaimed requests, oldest first
    std::atomic<bool> stop_{false};
    std::once_flag stop_once_;
    bool pool_started_ = false;       ///< guarded by mutex_
    std::vector<std::thread> threads_; ///< grows once, under mutex_, before stop
};

/// Process-wide service with the default configuration, constructed on
/// first use. rt::Controller (and through it the failure simulator) solves
/// through this instance unless its ControlConfig injects its own.
[[nodiscard]] SolverService& shared_service();

/// Redirects shared_service() to `service` (tests only: lets a fixture
/// substitute an instrumented instance and count the solves reaching it
/// from components that default to the shared service, e.g. arb::Arbiter
/// or rt::Controller). Pass nullptr to restore the real shared instance.
/// Returns the previous override. Not thread-safe against concurrent
/// shared_service() callers; swap only while quiescent.
SolverService* set_shared_service_for_test(SolverService* service) noexcept;

} // namespace amp::svc
