#include "svc/solver_service.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <optional>
#include <string>
#include <unordered_map>

namespace amp::svc {

namespace {

std::string labelled(const char* name, core::Strategy strategy)
{
    return std::string{name} + "{strategy=\"" + core::to_key(strategy) + "\"}";
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

    workers_ = config_.workers > 0
        ? config_.workers
        : static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

SolverService::~SolverService()
{
    stop();
}

void SolverService::stop()
{
    std::call_once(stop_once_, [this] {
        {
            std::lock_guard lock{mutex_};
            stop_.store(true, std::memory_order_release);
        }
        work_.notify_all();
        for (std::thread& thread : threads_)
            thread.join();
    });
}

void SolverService::start_pool() noexcept
{
    pool_started_ = true;
    try {
        threads_.reserve(static_cast<std::size_t>(workers_));
        for (int i = 0; i < workers_; ++i)
            threads_.emplace_back([this, i] { worker_loop(static_cast<std::size_t>(i)); });
    } catch (const std::exception&) {
        // No thread (or not every thread) could start: the submitter and
        // whichever workers did start serve the batch.
    }
}

std::size_t SolverService::claim(Batch& batch)
{
    const std::size_t slot = batch.size - 1 - batch.next++;
    if (batch.next == batch.size)
        std::erase(open_, &batch);
    return batch.indices != nullptr ? batch.indices[slot] : slot;
}

void SolverService::worker_loop(std::size_t worker_index)
{
    std::unique_lock lock{mutex_};
    for (;;) {
        work_.wait(lock, [this] { return stopped() || !open_.empty(); });
        if (stopped())
            return; // each submitter answers the rest of its own batch
        Batch& batch = *open_.front();
        const std::size_t index = claim(batch);
        lock.unlock();
        batch.results[index] = serve(batch.requests[index], nullptr, worker_index).result;
        lock.lock();
        // Counted under mutex_, after the last touch of the batch: its
        // submitter returns only once it reads finished == size here.
        if (++batch.finished == batch.size)
            done_.notify_all();
    }
}

PlannedSchedule SolverService::serve(const core::ScheduleRequest& request,
                                     const plan::PlanOptions* plan_options, std::size_t shard)
{
    PlannedSchedule out;
    if (stopped()) {
        out.result.error = core::ScheduleError::rejected;
        return out;
    }

    StrategyInstruments& inst = instruments_[static_cast<std::size_t>(request.strategy)];
    const CacheKey key = key_of(request);
    const auto t0 = std::chrono::steady_clock::now();
    std::optional<SolutionCache::Hit> hit = cache_.get(key);
    if (hit) {
        out.result = std::move(hit->result);
        out.result.solve_ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        out.plan = std::move(hit->plan);
        inst.hits->inc(shard);
    } else {
        out.result = core::schedule(request);
        inst.misses->inc(shard);
        inst.solve_latency->record(out.result.solve_ns);
        if (!out.result.ok())
            inst.errors->inc(shard);
    }

    bool store = !hit.has_value();
    if (plan_options != nullptr && out.result.ok()
        && (out.plan == nullptr || out.plan->options() != *plan_options)) {
        out.plan = std::make_shared<const plan::ExecutionPlan>(
            plan::ExecutionPlan::compile(request.chain, out.result.solution, *plan_options));
        store = true; // the next hit with these options skips the compile
    }
    // Infeasible outcomes are deterministic too and worth memoizing;
    // invalid requests are rejected in microseconds, skip them. Cache the
    // solution WITHOUT the warm-start frontier -- a frontier is the whole
    // O(n * b * l) DP matrix, and the LRU must hold solutions, not matrices
    // (callers chain frontiers through the returned result instead).
    if (store && out.result.error != core::ScheduleError::invalid_request) {
        core::ScheduleResult memo = out.result;
        memo.frontier.reset();
        memo.warm_start = false;
        cache_.put(key, memo, out.plan);
    }
    return out;
}

core::ScheduleResult SolverService::solve(const core::ScheduleRequest& request)
{
    return serve(request, nullptr, caller_shard()).result;
}

PlannedSchedule SolverService::solve_planned(const core::ScheduleRequest& request,
                                             plan::PlanOptions options)
{
    return serve(request, &options, caller_shard());
}

std::vector<core::ScheduleResult>
SolverService::solve_batch(const std::vector<core::ScheduleRequest>& requests)
{
    std::vector<core::ScheduleResult> results(requests.size());
    if (requests.empty())
        return results;

    // With a cache, equal requests are solved once: the batch claims the
    // lowest index of each CacheKey, and the repeats go through the solve
    // path after those finish, as the cache hits they are. Without one,
    // every request is solved.
    std::vector<std::size_t> firsts;
    std::vector<std::size_t> repeats;
    if (config_.cache_capacity > 0) {
        const auto hash = [](const CacheKey& key) {
            return static_cast<std::size_t>(hash_key(key));
        };
        std::unordered_map<CacheKey, std::size_t, decltype(hash)> seen(requests.size(), hash);
        for (std::size_t i = 0; i < requests.size(); ++i)
            (seen.try_emplace(key_of(requests[i]), i).second ? firsts : repeats).push_back(i);
    }
    Batch batch{.requests = requests.data(),
                .results = results.data(),
                .indices = firsts.empty() ? nullptr : firsts.data(),
                .size = firsts.empty() ? requests.size() : firsts.size()};
    std::size_t helpers = 0;
    {
        std::lock_guard lock{mutex_};
        open_.push_back(&batch);
        // A batch the submitter cannot finish alone starts the pool; one
        // that only ever sees solve() and solve_planned() never does.
        if (batch.size > 1 && !pool_started_ && !stopped())
            start_pool();
        helpers = std::min(batch.size - 1, threads_.size());
    }
    // The submitter takes one request itself; wake one worker for each of
    // the others, up to the pool size, not every idle worker.
    for (std::size_t i = 0; i < helpers; ++i)
        work_.notify_one();
    const std::size_t shard = caller_shard();
    std::unique_lock lock{mutex_};
    while (batch.next < batch.size) {
        const std::size_t index = claim(batch);
        lock.unlock();
        results[index] = serve(requests[index], nullptr, shard).result;
        lock.lock();
        ++batch.finished;
    }
    // Workers count their answers under mutex_ after their last touch of
    // the batch, so reading finished == size here is what lets it leave
    // the stack.
    done_.wait(lock, [&] { return batch.finished == batch.size; });
    lock.unlock();
    for (const std::size_t index : repeats)
        results[index] = serve(requests[index], nullptr, shard).result;
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
