#include "core/chain.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <new>
#include <stdexcept>

namespace amp::core {

namespace {

// The two digests mix every task word on its own, off the dependency
// chain, and fold each task's sum of mixed words into the running value
// with one multiply. They share no constant: the first mixes with murmur3's
// 64-bit finalizer and folds as h * P + t, the second mixes with the
// splitmix64 finalizer and folds as (h ^ t) * P. Keys and seeds are
// successive 64-bit words of pi's fraction.

constexpr std::uint64_t kSeed1 = 0x243f6a8885a308d3ull;
constexpr std::uint64_t kSeed2 = 0x13198a2e03707344ull;
constexpr std::uint64_t kKeys1[3] = {0xa4093822299f31d0ull, 0x082efa98ec4e6c89ull,
                                     0x452821e638d01377ull};
constexpr std::uint64_t kKeys2[3] = {0xbe5466cf34e90c6cull, 0xc0ac29b7c97c50ddull,
                                     0x3f84d5b5b5470917ull};
constexpr std::uint64_t kFold1 = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kFold2 = 0xd1b54a32d192ed03ull;

constexpr std::uint64_t murmur_mix(std::uint64_t x) noexcept
{
    x = (x ^ (x >> 33)) * 0xff51afd7ed558ccdull;
    x = (x ^ (x >> 33)) * 0xc4ceb9fe1a85ec53ull;
    return x ^ (x >> 33);
}

constexpr std::uint64_t splitmix_mix(std::uint64_t x) noexcept
{
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// Both digests of a chain, fed one task at a time.
struct Digest {
    std::uint64_t first;
    std::uint64_t second;

    explicit constexpr Digest(int tasks) noexcept
        : first(murmur_mix(kSeed1 ^ static_cast<std::uint64_t>(tasks)))
        , second(splitmix_mix(kSeed2 ^ static_cast<std::uint64_t>(tasks)))
    {
    }

    /// One task as three words. Its energy weight is strictly positive, so
    /// the sign bit of its pattern is free and carries the flag.
    void add(const TaskDesc& t) noexcept
    {
        const std::uint64_t words[3] = {
            std::bit_cast<std::uint64_t>(t.w_big), std::bit_cast<std::uint64_t>(t.w_little),
            std::bit_cast<std::uint64_t>(t.energy) | (std::uint64_t{t.replicable} << 63)};
        std::uint64_t mixed1 = 0;
        std::uint64_t mixed2 = 0;
        for (int w = 0; w < 3; ++w) {
            mixed1 += murmur_mix(words[w] ^ kKeys1[w]);
            mixed2 += splitmix_mix(words[w] ^ kKeys2[w]);
        }
        first = first * kFold1 + mixed1;
        second = (second ^ mixed2) * kFold2;
    }

    [[nodiscard]] constexpr std::uint64_t fingerprint() const noexcept
    {
        return murmur_mix(first);
    }
    [[nodiscard]] constexpr std::uint64_t fingerprint2() const noexcept
    {
        return splitmix_mix(second);
    }
};

// The empty chain's planes: every prefix is 0 and the next sequential task
// after task 0 is n + 1 = 1.
constexpr double kNoWork[1] = {0.0};
constexpr int kNoSequential[2] = {1, 1};

[[noreturn]] void reject(const char* what, const TaskDesc& t)
{
    throw std::invalid_argument{std::string{"TaskChain: "} + what + " (task '" + t.name + "')"};
}

} // namespace

constinit const TaskChain::Block TaskChain::kEmpty{
    .view = {.tasks = nullptr,
             .prefix = {kNoWork, kNoWork},
             .eprefix = {kNoWork, kNoWork},
             .next_sequential = kNoSequential,
             .size = 0},
    .refs = 1,
    .tasks = {},
    .max_weight = {0.0, 0.0},
    .max_sequential_weight = {0.0, 0.0},
    .replicable_count = 0,
    .fingerprint = Digest{0}.fingerprint(),
    .fingerprint2 = Digest{0}.fingerprint2()};

TaskChain::TaskChain(std::vector<TaskDesc> tasks)
    : TaskChain()
{
    if (tasks.empty())
        return;
    const int n = static_cast<int>(tasks.size());
    const auto plane = static_cast<std::size_t>(n) + 1;
    // One allocation: the block, then the four prefix planes, then the
    // next-sequential index.
    void* raw = ::operator new(sizeof(Block) + 4 * plane * sizeof(double)
                               + (plane + 1) * sizeof(int));
    double* big = ::new (static_cast<std::byte*>(raw) + sizeof(Block)) double[4 * plane];
    double* little = big + plane;
    double* ebig = big + 2 * plane;
    double* elittle = big + 3 * plane;
    int* next = ::new (static_cast<void*>(big + 4 * plane)) int[plane + 1];

    // One pass: validate, sum, take the maxima, digest, and point every
    // task since the previous sequential one at the next sequential one.
    double sum[4] = {0.0, 0.0, 0.0, 0.0}; // w^B, w^L, e * w^B, e * w^L
    double max_weight[2] = {0.0, 0.0};
    double max_sequential_weight[2] = {0.0, 0.0};
    int replicable_count = 0;
    int unresolved = 0; // first index whose next sequential task is not yet known
    Digest digest{n};
    big[0] = little[0] = ebig[0] = elittle[0] = 0.0;
    try {
        for (int i = 1; i <= n; ++i) {
            const TaskDesc& t = tasks[static_cast<std::size_t>(i - 1)];
            if (!(t.w_big > 0.0) || !(t.w_little > 0.0))
                reject("task weights must be strictly positive", t);
            if (!(t.energy > 0.0))
                reject("task energy weights must be strictly positive", t);
            big[i] = sum[0] += t.w_big;
            little[i] = sum[1] += t.w_little;
            ebig[i] = sum[2] += t.energy * t.w_big;
            elittle[i] = sum[3] += t.energy * t.w_little;
            max_weight[0] = std::max(max_weight[0], t.w_big);
            max_weight[1] = std::max(max_weight[1], t.w_little);
            if (t.replicable) {
                ++replicable_count;
            } else {
                max_sequential_weight[0] = std::max(max_sequential_weight[0], t.w_big);
                max_sequential_weight[1] = std::max(max_sequential_weight[1], t.w_little);
                std::fill(next + unresolved, next + i + 1, i);
                unresolved = i + 1;
            }
            digest.add(t);
        }
    } catch (...) {
        ::operator delete(raw);
        throw;
    }
    std::fill(next + unresolved, next + n + 2, n + 1);

    // Moving the vector keeps its buffer, so the view taken first stays valid.
    block_ = ::new (raw) Block{.view = {.tasks = tasks.data(),
                                        .prefix = {big, little},
                                        .eprefix = {ebig, elittle},
                                        .next_sequential = next,
                                        .size = n},
                               .refs = 1,
                               .tasks = std::move(tasks),
                               .max_weight = {max_weight[0], max_weight[1]},
                               .max_sequential_weight = {max_sequential_weight[0],
                                                         max_sequential_weight[1]},
                               .replicable_count = replicable_count,
                               .fingerprint = digest.fingerprint(),
                               .fingerprint2 = digest.fingerprint2()};
    view_ = block_->view;
}

void TaskChain::destroy(const Block* block) noexcept
{
    block->~Block();
    ::operator delete(const_cast<Block*>(block));
}

} // namespace amp::core
