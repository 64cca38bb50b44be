#pragma once
// Task-chain model of the paper's §III problem formulation.
//
// A linear chain of n tasks, each either replicable (stateless) or sequential
// (stateful), with one computation weight (latency) per core type. Tasks are
// 1-based, matching the paper's pseudocode, so that interval [s, e] means
// tasks tau_s..tau_e inclusive.

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace amp::core {

/// The two kinds of cores of the asymmetric multicore (paper's B and L).
enum class CoreType : std::uint8_t { big = 0, little = 1 };

[[nodiscard]] constexpr CoreType other(CoreType v) noexcept
{
    return v == CoreType::big ? CoreType::little : CoreType::big;
}

[[nodiscard]] constexpr const char* to_string(CoreType v) noexcept
{
    return v == CoreType::big ? "B" : "L";
}

/// Available resources R = (b, l).
struct Resources {
    int big = 0;
    int little = 0;

    [[nodiscard]] constexpr int total() const noexcept { return big + little; }
    [[nodiscard]] constexpr int count(CoreType v) const noexcept
    {
        return v == CoreType::big ? big : little;
    }
    constexpr int& count(CoreType v) noexcept
    {
        return v == CoreType::big ? big : little;
    }
    [[nodiscard]] constexpr bool operator==(const Resources&) const noexcept = default;
};

/// One task of the chain: weights per core type and the replicability flag.
struct TaskDesc {
    std::string name;
    double w_big = 0.0;
    double w_little = 0.0;
    bool replicable = false;
    /// Per-task energy weight: a dimensionless multiplier on the task's
    /// active energy (energy of running task i on core type v is
    /// energy * w(i, v) * watts(v), see core/power.hpp). 1.0 models a task
    /// whose energy is proportional to its runtime; memory-bound or
    /// accelerator-offloaded tasks can scale it. Must be strictly positive.
    double energy = 1.0;
};

constexpr double kInfiniteWeight = std::numeric_limits<double>::infinity();

/// Immutable task chain with O(1) interval-weight and interval-replicability
/// queries (prefix sums plus a next-sequential-task index, instead of the
/// paper's O(n^2) precomputed table).
///
/// A chain is a handle on one reference-counted block that never changes
/// after construction: copies share it (a copy is a refcount bump, safe
/// across threads), and each handle caches raw views of the block's arrays
/// so that the interval queries load exactly what a self-contained chain
/// would. A default-constructed or moved-from chain refers to one shared
/// empty block and allocates nothing.
class TaskChain {
public:
    TaskChain() noexcept
        : block_(&kEmpty)
        , view_(kEmpty.view)
    {
    }
    explicit TaskChain(std::vector<TaskDesc> tasks);

    TaskChain(const TaskChain& other) noexcept
        : block_(other.block_)
        , view_(other.view_)
    {
        retain();
    }
    TaskChain(TaskChain&& other) noexcept
        : block_(other.block_)
        , view_(other.view_)
    {
        other.block_ = &kEmpty;
        other.view_ = kEmpty.view;
    }
    TaskChain& operator=(const TaskChain& other) noexcept
    {
        other.retain();
        release();
        block_ = other.block_;
        view_ = other.view_;
        return *this;
    }
    TaskChain& operator=(TaskChain&& other) noexcept
    {
        if (this != &other) {
            release();
            block_ = std::exchange(other.block_, &kEmpty);
            view_ = std::exchange(other.view_, kEmpty.view);
        }
        return *this;
    }
    ~TaskChain() { release(); }

    [[nodiscard]] int size() const noexcept { return view_.size; }
    [[nodiscard]] bool empty() const noexcept { return view_.size == 0; }

    /// Task descriptor, i in [1, n].
    [[nodiscard]] const TaskDesc& task(int i) const
    {
        assert(i >= 1 && i <= size());
        return view_.tasks[static_cast<std::size_t>(i - 1)];
    }

    [[nodiscard]] double weight(int i, CoreType v) const
    {
        const auto& t = task(i);
        return v == CoreType::big ? t.w_big : t.w_little;
    }

    [[nodiscard]] bool replicable(int i) const { return task(i).replicable; }

    /// Sum of weights of tasks s..e (inclusive) on core type v; 0 if s > e.
    [[nodiscard]] double interval_sum(int s, int e, CoreType v) const
    {
        assert(s >= 1 && e <= size());
        if (s > e)
            return 0.0;
        const double* prefix = view_.prefix[static_cast<int>(v)];
        return prefix[static_cast<std::size_t>(e)] - prefix[static_cast<std::size_t>(s - 1)];
    }

    /// Energy-weighted work of tasks s..e on core type v:
    /// sum of energy_i * w(i, v). This is the active energy of the interval
    /// per stream item up to the core type's watts factor (core/power.hpp);
    /// replication-invariant, so energy objectives decompose over stages.
    [[nodiscard]] double energy_sum(int s, int e, CoreType v) const
    {
        assert(s >= 1 && e <= size());
        if (s > e)
            return 0.0;
        const double* prefix = view_.eprefix[static_cast<int>(v)];
        return prefix[static_cast<std::size_t>(e)] - prefix[static_cast<std::size_t>(s - 1)];
    }

    /// IsRep (Algo 3): true iff no sequential task lies in [s, e].
    [[nodiscard]] bool interval_replicable(int s, int e) const
    {
        assert(s >= 1);
        if (s > e)
            return true;
        return view_.next_sequential[static_cast<std::size_t>(s)] > e;
    }

    /// FinalRepTask (Algo 3): the largest i >= e such that [s, i] is still
    /// replicable (assumes [s, e] is replicable).
    [[nodiscard]] int final_replicable_task(int s, [[maybe_unused]] int e) const
    {
        assert(interval_replicable(s, e));
        return view_.next_sequential[static_cast<std::size_t>(s)] - 1;
    }

    /// Stage weight w(s, r, v) per the paper's Eq. (1).
    [[nodiscard]] double stage_weight(int s, int e, int r, CoreType v) const
    {
        if (r < 1)
            return kInfiniteWeight;
        const double sum = interval_sum(s, e, v);
        if (interval_replicable(s, e))
            return sum / static_cast<double>(r);
        return sum;
    }

    /// Largest single-task weight on core type v (0 for an empty chain).
    [[nodiscard]] double max_weight(CoreType v) const noexcept
    {
        return block_->max_weight[static_cast<int>(v)];
    }

    /// Largest sequential-task weight on core type v (0 if all replicable).
    [[nodiscard]] double max_sequential_weight(CoreType v) const noexcept
    {
        return block_->max_sequential_weight[static_cast<int>(v)];
    }

    /// Number of replicable tasks.
    [[nodiscard]] int replicable_count() const noexcept { return block_->replicable_count; }

    /// 64-bit digest of the chain's scheduling-relevant content (task
    /// count, per-task weights, replicability flags and energy weights;
    /// names are ignored). Computed once at construction; used as the chain
    /// identity in svc::SolverService's solution cache and by HeRAD's warm
    /// start. Energy weights are part of the digest because they change
    /// what an energy-objective solve returns -- two chains differing only
    /// in energy must not share cache identity. Each task's words are mixed
    /// one word at a time, independently of one another, and folded into
    /// the running digest with one multiply. A cache identity inside one
    /// process: the value is not stable across versions and is never
    /// persisted.
    [[nodiscard]] std::uint64_t fingerprint() const noexcept { return block_->fingerprint; }

    /// Second digest of the same content, built with an independent
    /// construction (other per-word mixer, other fold). The solution cache
    /// keys on both digests plus the task count, so a silent cache
    /// collision needs two unrelated 64-bit hashes to collide at once on
    /// chains of equal length.
    [[nodiscard]] std::uint64_t fingerprint2() const noexcept { return block_->fingerprint2; }

    /// Fraction of replicable tasks (the paper's stateless ratio, SR).
    [[nodiscard]] double stateless_ratio() const noexcept
    {
        return empty() ? 0.0 : static_cast<double>(replicable_count()) / size();
    }

private:
    /// Raw pointers into a block's arrays, cached in every handle.
    struct View {
        const TaskDesc* tasks = nullptr;
        /// prefix[v][i] = sum of w^v of tasks 1..i, by CoreType.
        const double* prefix[2] = {nullptr, nullptr};
        /// eprefix[v][i] = sum of energy * w^v of tasks 1..i, by CoreType.
        const double* eprefix[2] = {nullptr, nullptr};
        /// next_sequential[i] = min j >= i with tau_j sequential, or n+1 if
        /// none (index 0 unused; n+2 entries).
        const int* next_sequential = nullptr;
        int size = 0;
    };

    /// The shared immutable storage. One allocation holds the block and,
    /// behind it, the four prefix planes and the next-sequential index;
    /// `tasks` is the vector the constructor moved in.
    struct Block {
        View view;
        mutable std::atomic<std::size_t> refs;
        std::vector<TaskDesc> tasks;
        double max_weight[2];
        double max_sequential_weight[2];
        int replicable_count;
        std::uint64_t fingerprint;
        std::uint64_t fingerprint2;
    };

    /// The empty chain's block: shared by every empty handle and never
    /// counted or freed.
    static const Block kEmpty;

    void retain() const noexcept
    {
        if (block_ != &kEmpty)
            block_->refs.fetch_add(1, std::memory_order_relaxed);
    }
    void release() noexcept
    {
        if (block_ != &kEmpty && block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
            destroy(block_);
    }
    static void destroy(const Block* block) noexcept;

    const Block* block_;
    View view_;
};

} // namespace amp::core
