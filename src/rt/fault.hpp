#pragma once
// Deterministic fault injection for the streaming runtime.
//
// The paper's schedules assume a fixed, healthy resource set R = (b, l); the
// fault model this repository adds on top (docs/FAULT_MODEL.md) needs a way
// to exercise the recovery machinery reproducibly. A FaultInjector holds an
// explicit plan of faults -- each pinned to a (worker or task, frame) pair --
// and is queried by pipeline workers at well-defined points:
//
//   * `transient` : task `task` throws TransientTaskFault when it is asked to
//     process frame `frame`, for `count` consecutive attempts. Models a
//     recoverable error (e.g. a decoder hiccup); the pipeline's bounded
//     retry absorbs it.
//   * `stall`     : worker `worker` sleeps for `stall` before processing
//     frame `frame`. Models a hung thread; the watchdog fences it once its
//     heartbeat goes stale.
//   * `kill`      : worker `worker` exits silently when it picks up frame
//     `frame`, still holding it. Models a crashed thread / lost core; the
//     watchdog tombstones the held frame and, if the stage has no replica
//     left, initiates a graceful drain so the rt::Controller can take over.
//
// Workers are identified by their global index in stage-major order (the
// paper's compact placement: stage 0's replicas first, then stage 1's).
// Plans are either built explicitly (add) or drawn from a seed
// (random_plan), both fully deterministic.

#include "common/rng.hpp"

#include <chrono>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace amp::rt {

/// Thrown by the pipeline on behalf of a task under transient injection.
class TransientTaskFault : public std::runtime_error {
public:
    TransientTaskFault(int task, std::uint64_t frame);
    [[nodiscard]] int task() const noexcept { return task_; }
    [[nodiscard]] std::uint64_t frame() const noexcept { return frame_; }

private:
    int task_;
    std::uint64_t frame_;
};

enum class FaultKind { transient, stall, kill };

[[nodiscard]] constexpr const char* to_string(FaultKind kind) noexcept
{
    switch (kind) {
    case FaultKind::transient: return "transient";
    case FaultKind::stall: return "stall";
    case FaultKind::kill: return "kill";
    }
    return "?";
}

/// Transient faults match their frame exactly (every frame visits every
/// task). Stall/kill faults fire on the first frame the worker picks up
/// with seq >= `frame`, since a replicated stage gives no guarantee about
/// which worker draws which frame.
struct FaultSpec {
    FaultKind kind = FaultKind::transient;
    std::uint64_t frame = 0; ///< stream sequence number that triggers the fault
    int task = 0;            ///< transient: 1-based task index that throws
    int worker = -1;         ///< stall/kill: global worker index (stage-major)
    int count = 1;           ///< transient: consecutive attempts that throw
    std::chrono::milliseconds stall{0}; ///< stall: how long the worker hangs
};

/// Shape of a seeded random plan (see FaultInjector::random_plan).
struct RandomFaultConfig {
    std::uint64_t frames = 1000; ///< faults strike frames in [0, frames)
    int tasks = 1;               ///< chain size (transient faults pick 1..tasks)
    int workers = 1;             ///< worker count (stall/kill pick 0..workers-1)
    int transients = 0;
    int stalls = 0;
    int kills = 0;
    int transient_count = 1;
    std::chrono::milliseconds stall_duration{50};
};

class FaultInjector {
public:
    FaultInjector() = default;
    FaultInjector(FaultInjector&& other) noexcept
    {
        std::lock_guard lock{other.mutex_};
        specs_ = std::move(other.specs_);
    }
    FaultInjector(const FaultInjector&) = delete;
    FaultInjector& operator=(const FaultInjector&) = delete;
    FaultInjector& operator=(FaultInjector&&) = delete;

    void add(FaultSpec spec);

    /// Deterministic plan drawn from `seed`: same seed, same plan, on every
    /// platform (amp::Rng streams are implementation-independent).
    [[nodiscard]] static FaultInjector random_plan(std::uint64_t seed,
                                                   const RandomFaultConfig& config);

    /// True when task `task` must throw for frame `frame`. Consumes one
    /// `count` from the matching spec, so a bounded retry eventually
    /// succeeds. Thread-safe.
    [[nodiscard]] bool should_throw(int task, std::uint64_t frame);

    /// Stall duration for worker `worker` about to process `frame` (zero if
    /// none). One-shot per spec. Thread-safe.
    [[nodiscard]] std::chrono::milliseconds stall_before(int worker, std::uint64_t frame);

    /// True when worker `worker` must die while holding `frame`. One-shot
    /// per spec. Thread-safe.
    [[nodiscard]] bool should_kill(int worker, std::uint64_t frame);

    /// True when the plan contains stall/kill faults, which only make sense
    /// under a watchdog (a silent death would otherwise hang the pipeline).
    [[nodiscard]] bool has_liveness_faults() const;

    /// Faults (or transient attempts) not yet consumed; 0 once every
    /// planned fault fired.
    [[nodiscard]] std::size_t pending() const;

    [[nodiscard]] std::vector<FaultSpec> plan() const;

private:
    mutable std::mutex mutex_;
    std::vector<FaultSpec> specs_;
};

} // namespace amp::rt
