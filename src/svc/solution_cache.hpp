#pragma once
// Sharded LRU cache of schedule results, each with the execution plan
// compiled from it once a solve_planned call has asked for one.
//
// The key is the full identity of a solve: the chain's two independent
// 64-bit digests (over weights, replicability flags and energy weights,
// computed once when the shared TaskChain block is built; see
// TaskChain::fingerprint) plus its task count, the strategy, the resource
// vector R = (b, l), and the dense ScheduleOptions encoding. Two requests with equal keys are solved identically by the
// (deterministic) strategies, so a hit returns a bit-identical Solution
// without running the solver.
//
// Sharding: the key hash selects one of `shards` independent LRU maps, each
// behind its own mutex, so concurrent workers rarely contend. Capacity is
// split evenly across shards; eviction is strict LRU per shard. Two entry
// points: get() returns the result and its stored plan, put() stores a
// result with or without one.

#include "core/scheduler.hpp"

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

namespace amp::plan {
class ExecutionPlan; // entries may carry a compiled plan (see SolutionCache::Hit)
}

namespace amp::svc {

/// Cache identity of a ScheduleRequest. Chain identity is two independent
/// 64-bit digests plus the task count: a silent collision (a hit returning
/// another chain's solution) requires both digest constructions to collide
/// simultaneously on chains of equal length, instead of a single 64-bit
/// birthday bound. Digests identify chains inside one process only; they
/// are never persisted.
struct CacheKey {
    std::uint64_t chain_fingerprint = 0;
    std::uint64_t chain_fingerprint2 = 0;
    /// ScheduleOptions::energy_fingerprint(): 0 for min_period, otherwise a
    /// digest of (objective, target_period, PowerModel). Energy-objective
    /// solves depend on these continuous parameters, which cannot fit in the
    /// dense `options` bitmask, so they get their own 64-bit identity.
    std::uint64_t energy = 0;
    std::int32_t chain_tasks = 0;
    std::int32_t big = 0;
    std::int32_t little = 0;
    std::uint8_t strategy = 0;
    /// ScheduleOptions::key_bits(): dense boolean/enum option encoding.
    /// 16 bits wide -- 4 are in use (merge, prune, big-first preference,
    /// energy objective) and the headroom keeps the next option from
    /// silently truncating.
    std::uint16_t options = 0;

    [[nodiscard]] constexpr bool operator==(const CacheKey&) const noexcept = default;
};

[[nodiscard]] inline CacheKey key_of(const core::ScheduleRequest& request) noexcept
{
    return CacheKey{.chain_fingerprint = request.chain.fingerprint(),
                    .chain_fingerprint2 = request.chain.fingerprint2(),
                    .energy = request.options.energy_fingerprint(),
                    .chain_tasks = request.chain.size(),
                    .big = request.resources.big,
                    .little = request.resources.little,
                    .strategy = static_cast<std::uint8_t>(request.strategy),
                    .options = request.options.key_bits()};
}

/// splitmix64-style mix of the key fields; also decides the shard.
[[nodiscard]] constexpr std::uint64_t hash_key(const CacheKey& key) noexcept
{
    std::uint64_t x = key.chain_fingerprint;
    x ^= key.chain_fingerprint2 * 0xff51afd7ed558ccdull;
    x ^= key.energy * 0xc2b2ae3d27d4eb4full;
    x ^= (static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.big)) << 32)
        | static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.little));
    x ^= (static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.chain_tasks)) << 16)
        ^ (static_cast<std::uint64_t>(key.strategy) << 40)
        ^ (static_cast<std::uint64_t>(key.options) << 48);
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// Aggregate cache counters (monotone except `entries`).
struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t entries = 0;

    [[nodiscard]] double hit_rate() const noexcept
    {
        const double total = static_cast<double>(hits + misses);
        return total > 0.0 ? static_cast<double>(hits) / total : 0.0;
    }
};

/// Thread-safe sharded LRU map CacheKey -> (ScheduleResult, compiled plan).
class SolutionCache {
public:
    /// `capacity` is the total entry budget, split evenly across `shards`.
    /// The shard count is clamped to `capacity` so the cache never admits
    /// more than `capacity` entries in total. capacity == 0 disables the
    /// cache: get() always misses and put() is a no-op.
    SolutionCache(std::size_t capacity, std::size_t shards);

    SolutionCache(const SolutionCache&) = delete;
    SolutionCache& operator=(const SolutionCache&) = delete;

    /// A hit: the stored result (cache_hit set) and the compiled plan
    /// stored with it, null when it was stored without one. The plan is
    /// shared, immutable and identical across hits -- svc::solve_planned
    /// returns it with zero compile work.
    struct Hit {
        core::ScheduleResult result;
        std::shared_ptr<const plan::ExecutionPlan> plan;
    };

    /// The entry under `key`, or nullopt on a miss (always when disabled).
    [[nodiscard]] std::optional<Hit> get(const CacheKey& key);

    /// Inserts or refreshes `result` under `key`, evicting the shard's LRU
    /// entry when full. A non-null `plan` is stored with the result; a
    /// null one keeps the plan a refreshed entry already holds (the result
    /// is bit-identical for an equal key).
    void put(const CacheKey& key, const core::ScheduleResult& result,
             std::shared_ptr<const plan::ExecutionPlan> plan = nullptr);

    [[nodiscard]] CacheStats stats() const;
    [[nodiscard]] bool enabled() const noexcept { return capacity_ > 0; }
    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

    void clear();

private:
    struct Entry {
        CacheKey key;
        core::ScheduleResult result;
        std::shared_ptr<const plan::ExecutionPlan> plan; ///< null until one is put
    };

    struct KeyHasher {
        [[nodiscard]] std::size_t operator()(const CacheKey& key) const noexcept
        {
            return static_cast<std::size_t>(hash_key(key));
        }
    };

    struct Shard {
        mutable std::mutex mutex;
        std::list<Entry> lru; ///< front = most recently used
        std::unordered_map<CacheKey, std::list<Entry>::iterator, KeyHasher> index;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
    };

    [[nodiscard]] Shard& shard_for(std::uint64_t hash) noexcept
    {
        return shards_[static_cast<std::size_t>(hash) % shards_.size()];
    }

    std::size_t capacity_;
    std::size_t per_shard_;
    std::vector<Shard> shards_;
};

} // namespace amp::svc
