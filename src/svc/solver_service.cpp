#include "svc/solver_service.hpp"

#include "obs/schema.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
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

/// The plan to serve with a stale hit: the cached one when its options
/// match, else compiled fresh from the stale (successful) solution -- the
/// entry's chain identity equals the request's, so the compile is valid.
[[nodiscard]] std::shared_ptr<const plan::ExecutionPlan>
plan_for_stale(const core::ScheduleRequest& request, const SolutionCache::PlannedHit& hit,
               plan::PlanOptions options)
{
    if (hit.plan != nullptr && hit.plan->options() == options)
        return hit.plan;
    return std::make_shared<const plan::ExecutionPlan>(
        plan::ExecutionPlan::compile(request.chain, hit.result.solution, options));
}

} // namespace

std::int64_t SolverService::now_ns() noexcept
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

SolverService::SolverService(ServiceConfig config)
    : config_(config)
    , cache_(config.cache_capacity, config.cache_shards)
    , admission_(config.admission)
    , breaker_(config.breaker)
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

    overload_.admission_rejected = &metrics_->counter(obs::schema::kSvcAdmissionRejected);
    overload_.admission_displaced = &metrics_->counter(obs::schema::kSvcAdmissionDisplaced);
    overload_.deadline_exceeded = &metrics_->counter(obs::schema::kSvcDeadlineExceeded);
    overload_.degraded_serves = &metrics_->counter(obs::schema::kSvcDegradedServes);
    overload_.refinements = &metrics_->counter(obs::schema::kSvcRefinements);
    overload_.breaker_rejected = &metrics_->counter(obs::schema::kSvcBreakerRejected);
    overload_.breaker_trips = &metrics_->counter(obs::schema::kSvcBreakerTrips);
    overload_.admission_depth = &metrics_->gauge(obs::schema::kSvcAdmissionDepth);
    overload_.breaker_state = &metrics_->gauge(obs::schema::kSvcBreakerState);

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
            if (job.ticket != nullptr)
                admission_.release(*job.ticket);
            if (job.refine != nullptr) {
                std::lock_guard lock{refine_mutex_};
                refining_.erase(hash_key(key_of(job.refine->request)));
                continue; // best-effort; nobody waits on a refinement
            }
            *job.result = error_result(core::ScheduleError::rejected);
            finish_batch_job(job);
        }
    }
    publish_admission_depth();
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
    deque.jobs[deque.head] = Job{}; // release the slot's shared_ptrs
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
        const std::size_t slot = (deque.head + deque.count) % deque.jobs.size();
        out = deque.jobs[slot];
        deque.jobs[slot] = Job{};
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
    if (job.refine != nullptr) {
        run_refine(job, worker_index);
        return;
    }
    if (job.ticket != nullptr) {
        const bool claimed = job.ticket->claim();
        admission_.release(*job.ticket);
        publish_admission_depth();
        if (!claimed) {
            // Displaced while queued (the shedding policy counted it).
            *job.result = shed_result(*job.request, worker_index);
            finish_batch_job(job);
            return;
        }
    }
    *job.result = solve_on(*job.request, worker_index);
    finish_batch_job(job);
}

AdmissionQueue::Offer SolverService::admit(const std::shared_ptr<AdmissionTicket>& ticket)
{
    AdmissionQueue::Offer offer = admission_.offer(ticket);
    if (offer.verdict == AdmissionQueue::Verdict::rejected)
        overload_.admission_rejected->inc(0);
    else if (offer.verdict == AdmissionQueue::Verdict::displaced)
        overload_.admission_displaced->inc(0);
    publish_admission_depth();
    return offer;
}

void SolverService::publish_admission_depth()
{
    if (admission_.enabled())
        overload_.admission_depth->set(static_cast<double>(admission_.depth()));
}

void SolverService::publish_breaker()
{
    if (!config_.breaker.enabled())
        return;
    std::lock_guard lock{breaker_obs_mutex_};
    overload_.breaker_state->set(static_cast<double>(static_cast<int>(breaker_.state())));
    const std::uint64_t trips = breaker_.trips();
    if (trips > published_trips_) {
        overload_.breaker_trips->add(0, trips - published_trips_);
        published_trips_ = trips;
    }
}

void SolverService::record_breaker_outcome(const core::ScheduleResult& result)
{
    if (!config_.breaker.enabled())
        return;
    // A failure, to the breaker, is a solve over the slow-solve budget:
    // infeasible/invalid outcomes are deterministic answers (memoized like
    // any other), not signs of an unhealthy solver.
    const bool slow = config_.slow_solve_ns > 0 && result.solve_ns > config_.slow_solve_ns;
    if (slow)
        breaker_.on_failure(now_ns());
    else
        breaker_.on_success(now_ns());
    publish_breaker();
}

bool SolverService::under_pressure() const
{
    if (admission_.enabled() && admission_.pressure() >= config_.brownout_watermark)
        return true;
    return config_.breaker.enabled() && breaker_.state() == BreakerState::open;
}

std::optional<SolutionCache::PlannedHit> SolverService::stale_for(const CacheKey& key,
                                                                  std::size_t worker_index)
{
    if (!config_.brownout)
        return std::nullopt;
    auto hit = cache_.find_stale(key);
    if (!hit)
        return std::nullopt;
    hit->result.degraded = true;
    overload_.degraded_serves->inc(worker_index);
    return hit;
}

core::ScheduleResult SolverService::shed_result(const core::ScheduleRequest& request,
                                                std::size_t worker_index)
{
    // Shed at the admission door: serve stale if brownout has anything, but
    // enqueue no refinement -- the queue is saturated, and a lowest-priority
    // refinement would either be shed immediately or displace real work.
    if (auto stale = stale_for(key_of(request), worker_index))
        return std::move(stale->result);
    return error_result(core::ScheduleError::rejected);
}

void SolverService::enqueue_refinement(const core::ScheduleRequest& request,
                                       plan::PlanOptions options,
                                       std::shared_ptr<const plan::ExecutionPlan> stale)
{
    if (stop_.load(std::memory_order_acquire))
        return;
    const std::uint64_t dedup = hash_key(key_of(request));
    {
        std::lock_guard lock{refine_mutex_};
        if (!refining_.insert(dedup).second)
            return; // a refinement for this identity is already in flight
    }
    const auto abandon = [&] {
        std::lock_guard lock{refine_mutex_};
        refining_.erase(dedup);
    };

    Job job;
    auto refine = std::make_shared<RefineJob>();
    refine->request = request;
    refine->options = options;
    refine->stale = std::move(stale);
    job.refine = std::move(refine);

    if (admission_.enabled()) {
        if (admission_.pressure() >= 1.0)
            return abandon(); // saturated: never displace real work for this
        auto ticket = std::make_shared<AdmissionTicket>();
        ticket->priority = std::numeric_limits<std::int8_t>::min();
        ticket->id = next_ticket_id_.fetch_add(1, std::memory_order_relaxed);
        if (admit(ticket).verdict == AdmissionQueue::Verdict::rejected)
            return abandon();
        job.ticket = std::move(ticket);
    }

    const std::size_t start = next_deque_.fetch_add(1, std::memory_order_relaxed);
    bool queued = false;
    for (std::size_t attempt = 0; attempt < deques_.size() && !queued; ++attempt)
        queued = try_push(start + attempt, job);
    if (!queued) {
        // Every deque full (or the service stopping): refinement is
        // best-effort and never solved inline on the serving thread.
        if (job.ticket != nullptr)
            admission_.release(*job.ticket);
        abandon();
    }
}

void SolverService::run_refine(const Job& job, std::size_t worker_index)
{
    const RefineJob& refine = *job.refine;
    const std::uint64_t dedup = hash_key(key_of(refine.request));
    const auto conclude = [&] {
        std::lock_guard lock{refine_mutex_};
        refining_.erase(dedup);
    };
    if (job.ticket != nullptr) {
        const bool claimed = job.ticket->claim();
        admission_.release(*job.ticket);
        publish_admission_depth();
        if (!claimed)
            return conclude(); // shed while queued
    }
    if (stop_.load(std::memory_order_acquire))
        return conclude();

    RefineOutcome outcome;
    outcome.request = refine.request;
    outcome.stale = refine.stale;
    try {
        outcome.fresh = solve_fresh_planned(refine.request, refine.options, worker_index);
    } catch (...) {
        // plan::PlanError from compile (a solver bug): a background
        // refinement must never take down a worker thread.
        outcome.fresh = PlannedSchedule{};
        outcome.fresh.result = error_result(core::ScheduleError::infeasible);
    }
    overload_.refinements->inc(worker_index);
    conclude();
    if (config_.on_refined)
        config_.on_refined(outcome);
}

core::ScheduleResult SolverService::solve_on(const core::ScheduleRequest& request,
                                             std::size_t worker_index, bool allow_brownout)
{
    StrategyInstruments& inst = instruments_[static_cast<std::size_t>(request.strategy)];

    if (stop_.load(std::memory_order_acquire))
        return error_result(core::ScheduleError::rejected);
    if (request.deadline_ns > 0 && now_ns() > request.deadline_ns) {
        overload_.deadline_exceeded->inc(worker_index);
        return error_result(core::ScheduleError::deadline_exceeded);
    }

    const CacheKey key = key_of(request);
    if (cache_.enabled()) {
        const auto t0 = std::chrono::steady_clock::now();
        if (auto hit = cache_.get(key)) {
            hit->solve_ns = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
            inst.hits->inc(worker_index);
            return std::move(*hit);
        }
    }

    // An exact hit is free and bypasses the breaker; from here on the
    // solver would actually run, so the breaker gates the path.
    if (config_.breaker.enabled() && !breaker_.allow(now_ns())) {
        overload_.breaker_rejected->inc(worker_index);
        publish_breaker();
        if (allow_brownout) {
            if (auto stale = stale_for(key, worker_index)) {
                enqueue_refinement(request, {}, stale->plan);
                return std::move(stale->result);
            }
        }
        return error_result(core::ScheduleError::rejected);
    }
    if (allow_brownout && config_.brownout && under_pressure()) {
        if (auto stale = stale_for(key, worker_index)) {
            enqueue_refinement(request, {}, stale->plan);
            return std::move(stale->result);
        }
    }

    core::ScheduleResult result = core::schedule(request);
    inst.misses->inc(worker_index);
    inst.solve_latency->record(result.solve_ns);
    if (!result.ok())
        inst.errors->inc(worker_index);
    record_breaker_outcome(result);
    // Infeasible outcomes are deterministic too and worth memoizing;
    // invalid requests are rejected in microseconds, skip them. Cache the
    // solution WITHOUT the warm-start frontier -- a frontier is the whole
    // O(n * b * l) DP matrix, and the LRU must hold solutions, not matrices
    // (callers chain frontiers through the returned result instead).
    if (cache_.enabled() && result.error != core::ScheduleError::invalid_request) {
        core::ScheduleResult memo = result;
        memo.frontier.reset();
        memo.warm_start = false;
        cache_.put(key, std::move(memo));
    }
    return result;
}

core::ScheduleResult SolverService::solve(const core::ScheduleRequest& request)
{
    return solve_on(request, deques_.size());
}

PlannedSchedule SolverService::solve_fresh_planned(const core::ScheduleRequest& request,
                                                   plan::PlanOptions options,
                                                   std::size_t worker_index)
{
    StrategyInstruments& inst = instruments_[static_cast<std::size_t>(request.strategy)];
    PlannedSchedule planned;
    planned.result = core::schedule(request);
    inst.misses->inc(worker_index);
    inst.solve_latency->record(planned.result.solve_ns);
    if (!planned.result.ok())
        inst.errors->inc(worker_index);
    record_breaker_outcome(planned.result);
    if (planned.result.ok())
        planned.plan = std::make_shared<const plan::ExecutionPlan>(
            plan::ExecutionPlan::compile(request.chain, planned.result.solution, options));
    if (cache_.enabled() && planned.result.error != core::ScheduleError::invalid_request) {
        // Same frontier stripping as solve_on: the cache keeps solutions
        // and compiled plans, never DP matrices.
        core::ScheduleResult memo = planned.result;
        memo.frontier.reset();
        memo.warm_start = false;
        cache_.put_planned(key_of(request), std::move(memo), planned.plan);
    }
    return planned;
}

PlannedSchedule SolverService::solve_planned(const core::ScheduleRequest& request,
                                             plan::PlanOptions options)
{
    const std::size_t external = deques_.size();
    StrategyInstruments& inst = instruments_[static_cast<std::size_t>(request.strategy)];
    const CacheKey key = key_of(request);

    PlannedSchedule planned;
    if (stop_.load(std::memory_order_acquire)) {
        planned.result = error_result(core::ScheduleError::rejected);
        return planned;
    }
    if (request.deadline_ns > 0 && now_ns() > request.deadline_ns) {
        overload_.deadline_exceeded->inc(external);
        planned.result = error_result(core::ScheduleError::deadline_exceeded);
        return planned;
    }

    if (cache_.enabled()) {
        const auto t0 = std::chrono::steady_clock::now();
        if (auto hit = cache_.get_planned(key)) {
            hit->result.solve_ns = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
            inst.hits->inc(external);
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

    // Exact miss: the solver would run from here, so the breaker gates the
    // path; brownout serves a stale compatible plan instead of piling on.
    if (config_.breaker.enabled() && !breaker_.allow(now_ns())) {
        overload_.breaker_rejected->inc(external);
        publish_breaker();
        if (auto stale = stale_for(key, external)) {
            planned.plan = plan_for_stale(request, *stale, options);
            planned.result = std::move(stale->result);
            enqueue_refinement(request, options, planned.plan);
            return planned;
        }
        planned.result = error_result(core::ScheduleError::rejected);
        return planned;
    }
    if (config_.brownout && under_pressure()) {
        if (auto stale = stale_for(key, external)) {
            planned.plan = plan_for_stale(request, *stale, options);
            planned.result = std::move(stale->result);
            enqueue_refinement(request, options, planned.plan);
            return planned;
        }
    }

    return solve_fresh_planned(request, options, external);
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
        if (admission_.enabled()) {
            auto ticket = std::make_shared<AdmissionTicket>();
            ticket->priority = requests[i].priority;
            ticket->deadline_ns = requests[i].deadline_ns;
            ticket->id = next_ticket_id_.fetch_add(1, std::memory_order_relaxed);
            if (admit(ticket).verdict == AdmissionQueue::Verdict::rejected) {
                *job.result = shed_result(requests[i], external);
                finish_batch_job(job);
                continue;
            }
            job.ticket = std::move(ticket);
        }
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
