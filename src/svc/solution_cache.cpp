#include "svc/solution_cache.hpp"

#include <algorithm>

namespace amp::svc {

namespace {

// At least one shard, and never more shards than total entries: with
// 0 < capacity < shards, one-entry shards would otherwise admit up to
// `shards` entries, exceeding the configured budget.
[[nodiscard]] std::size_t shard_count(std::size_t capacity, std::size_t shards) noexcept
{
    const std::size_t requested = std::max<std::size_t>(1, shards);
    return capacity > 0 ? std::min(requested, capacity) : requested;
}

} // namespace

SolutionCache::SolutionCache(std::size_t capacity, std::size_t shards)
    : capacity_(capacity)
    , per_shard_(capacity / shard_count(capacity, shards))
    , shards_(shard_count(capacity, shards))
{
}

std::optional<SolutionCache::Hit> SolutionCache::get(const CacheKey& key)
{
    if (!enabled())
        return std::nullopt;
    Shard& shard = shard_for(hash_key(key));
    std::lock_guard lock{shard.mutex};
    const auto it = shard.index.find(key);
    if (it == shard.index.end()) {
        ++shard.misses;
        return std::nullopt;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    ++shard.hits;
    Hit hit{it->second->result, it->second->plan};
    hit.result.cache_hit = true;
    return hit;
}

void SolutionCache::put(const CacheKey& key, const core::ScheduleResult& result,
                        std::shared_ptr<const plan::ExecutionPlan> plan)
{
    if (!enabled())
        return;
    Shard& shard = shard_for(hash_key(key));
    std::lock_guard lock{shard.mutex};
    if (const auto it = shard.index.find(key); it != shard.index.end()) {
        it->second->result = result;
        it->second->result.cache_hit = false;
        if (plan != nullptr) // a refresh keeps an already-stored plan
            it->second->plan = std::move(plan);
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        return;
    }
    shard.lru.push_front(Entry{key, result, std::move(plan)});
    shard.lru.front().result.cache_hit = false;
    shard.index.emplace(key, shard.lru.begin());
    if (shard.lru.size() > per_shard_) {
        shard.index.erase(shard.lru.back().key);
        shard.lru.pop_back();
        ++shard.evictions;
    }
}

CacheStats SolutionCache::stats() const
{
    CacheStats stats;
    for (const Shard& shard : shards_) {
        std::lock_guard lock{shard.mutex};
        stats.hits += shard.hits;
        stats.misses += shard.misses;
        stats.evictions += shard.evictions;
        stats.entries += shard.lru.size();
    }
    return stats;
}

void SolutionCache::clear()
{
    for (Shard& shard : shards_) {
        std::lock_guard lock{shard.mutex};
        shard.lru.clear();
        shard.index.clear();
    }
}

} // namespace amp::svc
