#include "svc/solver_service.hpp"

#include <algorithm>
#include <chrono>
#include <string>

namespace amp::svc {

namespace {

std::string labelled(const char* name, core::Strategy strategy)
{
    return std::string{name} + "{strategy=\"" + core::to_key(strategy) + "\"}";
}

[[nodiscard]] core::ScheduleResult error_result(core::ScheduleError error)
{
    core::ScheduleResult result;
    result.error = error;
    return result;
}

} // namespace

SolverService::SolverService(ServiceConfig config)
    : config_(config)
    , cache_(config.cache_capacity, config.cache_shards)
{
    if (config_.metrics != nullptr) {
        metrics_ = config_.metrics;
    } else {
        owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
        metrics_ = owned_metrics_.get();
    }

    instruments_.resize(std::size(core::kAllStrategies));
    for (const core::Strategy strategy : core::kAllStrategies) {
        StrategyInstruments& inst = instruments_[static_cast<std::size_t>(strategy)];
        inst.hits = &metrics_->counter(labelled("amp_svc_cache_hits", strategy));
        inst.misses = &metrics_->counter(labelled("amp_svc_cache_misses", strategy));
        inst.errors = &metrics_->counter(labelled("amp_svc_solve_errors", strategy));
        inst.solve_latency =
            &metrics_->histogram(labelled("amp_svc_solve_latency_us", strategy));
    }

    int workers = config_.workers;
    if (workers <= 0)
        workers = std::max(1u, std::thread::hardware_concurrency());
    const std::size_t queue_capacity = std::max<std::size_t>(1, config_.queue_capacity);

    deques_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i) {
        auto deque = std::make_unique<WorkDeque>();
        deque->jobs.resize(queue_capacity);
        deques_.push_back(std::move(deque));
    }
    threads_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i)
        threads_.emplace_back([this, i] { worker_loop(static_cast<std::size_t>(i)); });
}

SolverService::~SolverService()
{
    stop();
}

void SolverService::stop()
{
    std::call_once(stop_once_, [this] {
        stop_.store(true, std::memory_order_release);
        {
            std::lock_guard lock{sleep_mutex_};
        }
        work_ready_.notify_all();
        for (std::thread& thread : threads_)
            thread.join();
        // Workers are gone; anything still queued (including jobs a
        // submitter raced in after the flag) is answered, never orphaned.
        // A try_push after this drain sees stop_ under the deque mutex and
        // fails, sending the submitter down the inline (rejected) path.
        drain_rejected();
    });
}

void SolverService::drain_rejected()
{
    for (std::size_t index = 0; index < deques_.size(); ++index) {
        Job job;
        while (try_pop(index, job)) {
            *job.result = error_result(core::ScheduleError::rejected);
            finish_batch_job(job);
        }
    }
}

bool SolverService::try_push(std::size_t worker_index, const Job& job)
{
    WorkDeque& deque = *deques_[worker_index % deques_.size()];
    {
        std::lock_guard lock{deque.mutex};
        // Checked under the deque mutex: stop() sets the flag before its
        // drain locks each deque, so a push that wins the mutex race is
        // drained and one that loses observes the flag -- a job can never
        // slip in behind the drain and strand its batch.
        if (stop_.load(std::memory_order_acquire))
            return false;
        if (deque.count == deque.jobs.size())
            return false;
        deque.jobs[(deque.head + deque.count) % deque.jobs.size()] = job;
        ++deque.count;
    }
    // Unfenced notify: a worker racing between its failed pop and its wait
    // can miss this wakeup, but the 10ms wait_for poll in worker_loop bounds
    // the latency. Taking sleep_mutex_ here would serialize every submitter
    // on one global lock for a correctness property the poll already gives.
    work_ready_.notify_one();
    return true;
}

bool SolverService::try_pop(std::size_t worker_index, Job& out)
{
    WorkDeque& deque = *deques_[worker_index];
    std::lock_guard lock{deque.mutex};
    if (deque.count == 0)
        return false;
    out = deque.jobs[deque.head];
    deque.head = (deque.head + 1) % deque.jobs.size();
    --deque.count;
    return true;
}

bool SolverService::try_steal(std::size_t thief_index, Job& out)
{
    for (std::size_t offset = 1; offset <= deques_.size(); ++offset) {
        const std::size_t victim = (thief_index + offset) % deques_.size();
        if (victim == thief_index)
            continue;
        WorkDeque& deque = *deques_[victim];
        std::lock_guard lock{deque.mutex};
        if (deque.count == 0)
            continue;
        // Steal the newest entry (the back); the owner drains the front.
        --deque.count;
        out = deque.jobs[(deque.head + deque.count) % deque.jobs.size()];
        return true;
    }
    return false;
}

void SolverService::worker_loop(std::size_t worker_index)
{
    for (;;) {
        if (stop_.load(std::memory_order_acquire))
            return; // leftovers are answered by stop()'s drain
        Job job;
        if (try_pop(worker_index, job) || try_steal(worker_index, job)) {
            run_job(job, worker_index);
            continue;
        }
        std::unique_lock lock{sleep_mutex_};
        if (stop_.load(std::memory_order_acquire))
            return;
        work_ready_.wait_for(lock, std::chrono::milliseconds(10));
        if (stop_.load(std::memory_order_acquire))
            return;
    }
}

void SolverService::finish_batch_job(const Job& job)
{
    // Decrement and notify while holding the batch mutex: the submitter only
    // concludes completion under the same mutex, so it cannot observe
    // remaining == 0 and destroy the Batch while we are still touching it.
    std::lock_guard lock{job.batch->mutex};
    if (job.batch->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
        job.batch->done.notify_all();
}

void SolverService::run_job(const Job& job, std::size_t worker_index)
{
    *job.result = solve_on(*job.request, worker_index);
    finish_batch_job(job);
}

core::ScheduleResult SolverService::solve_on(const core::ScheduleRequest& request,
                                             std::size_t worker_index)
{
    if (stop_.load(std::memory_order_acquire))
        return error_result(core::ScheduleError::rejected);

    const CacheKey key = key_of(request);
    if (cache_.enabled()) {
        const auto t0 = std::chrono::steady_clock::now();
        if (auto hit = cache_.get(key)) {
            hit->solve_ns = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
            instruments_[static_cast<std::size_t>(request.strategy)].hits->inc(worker_index);
            return std::move(*hit);
        }
    }

    core::ScheduleResult result = solve_miss(request, worker_index);
    memoize(key, result, nullptr);
    return result;
}

core::ScheduleResult SolverService::solve_miss(const core::ScheduleRequest& request,
                                               std::size_t worker_index)
{
    StrategyInstruments& inst = instruments_[static_cast<std::size_t>(request.strategy)];
    core::ScheduleResult result = core::schedule(request);
    inst.misses->inc(worker_index);
    inst.solve_latency->record(result.solve_ns);
    if (!result.ok())
        inst.errors->inc(worker_index);
    return result;
}

void SolverService::memoize(const CacheKey& key, const core::ScheduleResult& result,
                            std::shared_ptr<const plan::ExecutionPlan> plan)
{
    // Infeasible outcomes are deterministic too and worth memoizing;
    // invalid requests are rejected in microseconds, skip them. Cache the
    // solution WITHOUT the warm-start frontier -- a frontier is the whole
    // O(n * b * l) DP matrix, and the LRU must hold solutions, not matrices
    // (callers chain frontiers through the returned result instead).
    if (!cache_.enabled() || result.error == core::ScheduleError::invalid_request)
        return;
    core::ScheduleResult memo = result;
    memo.frontier.reset();
    memo.warm_start = false;
    cache_.put_planned(key, memo, std::move(plan));
}

core::ScheduleResult SolverService::solve(const core::ScheduleRequest& request)
{
    return solve_on(request, deques_.size());
}

PlannedSchedule SolverService::solve_planned(const core::ScheduleRequest& request,
                                             plan::PlanOptions options)
{
    const std::size_t external = deques_.size();
    const CacheKey key = key_of(request);

    PlannedSchedule planned;
    if (stop_.load(std::memory_order_acquire)) {
        planned.result = error_result(core::ScheduleError::rejected);
        return planned;
    }

    if (cache_.enabled()) {
        const auto t0 = std::chrono::steady_clock::now();
        if (auto hit = cache_.get_planned(key)) {
            hit->result.solve_ns = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
            instruments_[static_cast<std::size_t>(request.strategy)].hits->inc(external);
            planned.result = std::move(hit->result);
            if (hit->plan != nullptr && hit->plan->options() == options) {
                planned.plan = std::move(hit->plan); // zero compile work
                return planned;
            }
            if (planned.result.ok()) {
                // Result hit without a (matching) compiled plan: compile
                // once and attach, so the next hit skips this too.
                auto compiled = std::make_shared<const plan::ExecutionPlan>(
                    plan::ExecutionPlan::compile(request.chain, planned.result.solution,
                                                 options));
                cache_.attach_plan(key, compiled);
                planned.plan = std::move(compiled);
            }
            return planned;
        }
    }

    planned.result = solve_miss(request, external);
    if (planned.result.ok())
        planned.plan = std::make_shared<const plan::ExecutionPlan>(
            plan::ExecutionPlan::compile(request.chain, planned.result.solution, options));
    memoize(key, planned.result, planned.plan);
    return planned;
}

std::vector<core::ScheduleResult>
SolverService::solve_batch(const std::vector<core::ScheduleRequest>& requests)
{
    std::vector<core::ScheduleResult> results(requests.size());
    if (requests.empty())
        return results;

    const std::size_t external = deques_.size();
    if (stop_.load(std::memory_order_acquire)) {
        for (core::ScheduleResult& result : results)
            result = error_result(core::ScheduleError::rejected);
        return results;
    }

    Batch batch;
    batch.remaining.store(requests.size(), std::memory_order_relaxed);

    for (std::size_t i = 0; i < requests.size(); ++i) {
        Job job;
        job.request = &requests[i];
        job.result = &results[i];
        job.batch = &batch;
        const std::size_t start = next_deque_.fetch_add(1, std::memory_order_relaxed);
        bool queued = false;
        for (std::size_t attempt = 0; attempt < deques_.size() && !queued; ++attempt)
            queued = try_push(start + attempt, job);
        if (!queued)
            run_job(job, external); // every deque full: backpressure, solve inline
    }

    // Help drain: steal queued jobs (this batch's or a concurrent one's)
    // instead of blocking, then wait for in-flight solves to finish. Only
    // conclude completion while holding batch.mutex — workers decrement
    // `remaining` under that mutex, so once we see 0 here the last worker
    // has released the mutex and will never touch the Batch again; a naked
    // atomic load could observe 0 while that worker is still about to
    // notify, letting us destroy the Batch under it.
    for (;;) {
        Job job;
        if (try_steal(external, job)) {
            run_job(job, external);
            continue;
        }
        std::unique_lock lock{batch.mutex};
        if (batch.done.wait_for(lock, std::chrono::milliseconds(1), [&] {
                return batch.remaining.load(std::memory_order_acquire) == 0;
            }))
            break;
    }
    return results;
}

namespace {
std::atomic<SolverService*> shared_override{nullptr};
} // namespace

SolverService& shared_service()
{
    if (SolverService* override_service = shared_override.load(std::memory_order_acquire))
        return *override_service;
    static SolverService service{};
    return service;
}

SolverService* set_shared_service_for_test(SolverService* service) noexcept
{
    return shared_override.exchange(service, std::memory_order_acq_rel);
}

} // namespace amp::svc
