#pragma once
// Deadline/priority-aware admission control for the solver service.
//
// The admission queue bounds the number of *pending* (queued, not yet
// claimed) solve jobs. When the bound is hit a configurable shedding policy
// decides who loses: the newcomer (reject_newest), the oldest queued job
// (drop_oldest), or the lowest-priority queued job (priority_aware, ties
// broken against the newcomer). Shed jobs are answered with
// core::ScheduleError::rejected instead of queueing forever.
//
// Tickets, not jobs, flow through the queue: a ticket is a tiny shared
// state cell whose owner (the worker that eventually pops the job, or the
// shedding policy) claims it with one CAS. The solver service's
// work-stealing deques stay untouched -- a shed ticket simply turns the
// deque entry into a cheap no-op -- and the queue itself is time-free and
// deterministic, so dsim::simulate_admission replays the exact same
// decision logic in virtual time (docs/FAULT_MODEL.md, "Overload model").

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

namespace amp::svc {

/// Who gets shed when the admission queue is full.
enum class ShedPolicy : std::uint8_t {
    reject_newest,  ///< the incoming request is rejected
    drop_oldest,    ///< the oldest queued request is rejected, newcomer admitted
    priority_aware, ///< the lowest-priority queued request loses; on a tie
                    ///< (newcomer not strictly higher) the newcomer is rejected
};

[[nodiscard]] constexpr const char* to_string(ShedPolicy policy) noexcept
{
    switch (policy) {
    case ShedPolicy::reject_newest: return "reject_newest";
    case ShedPolicy::drop_oldest: return "drop_oldest";
    case ShedPolicy::priority_aware: return "priority_aware";
    }
    return "?";
}

struct AdmissionConfig {
    /// Maximum queued-but-unclaimed jobs; 0 disables admission control
    /// (every request is admitted, nothing is tracked).
    std::size_t max_pending = 0;
    ShedPolicy policy = ShedPolicy::reject_newest;
};

/// Shared admission state of one queued request. Exactly one of the two
/// racing parties wins the single CAS: the worker that wants to run the job
/// (claim) or the shedding policy that wants to drop it (shed).
struct AdmissionTicket {
    enum class State : std::uint8_t { queued, running, shed };

    std::int8_t priority = 0;
    std::int64_t deadline_ns = 0; ///< 0 = none (checked by the claimer)
    std::uint64_t id = 0;         ///< caller-assigned (monotone per queue user)
    std::atomic<State> state{State::queued};

    /// Worker side: queued -> running. False when the ticket was shed.
    [[nodiscard]] bool claim() noexcept
    {
        State expected = State::queued;
        return state.compare_exchange_strong(expected, State::running,
                                             std::memory_order_acq_rel);
    }

    /// Policy side: queued -> shed. False when a worker claimed it first.
    [[nodiscard]] bool shed() noexcept
    {
        State expected = State::queued;
        return state.compare_exchange_strong(expected, State::shed,
                                             std::memory_order_acq_rel);
    }
};

/// Monotone decision counters.
struct AdmissionStats {
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;  ///< newcomers shed at the door
    std::uint64_t displaced = 0; ///< queued victims shed to admit a newcomer
};

/// Thread-safe bounded admission queue over tickets. Deterministic given a
/// serial sequence of offer/release calls (no clocks, no randomness) --
/// the property dsim::simulate_admission relies on.
class AdmissionQueue {
public:
    explicit AdmissionQueue(AdmissionConfig config);

    AdmissionQueue(const AdmissionQueue&) = delete;
    AdmissionQueue& operator=(const AdmissionQueue&) = delete;

    enum class Verdict : std::uint8_t {
        admitted,  ///< queued; ticket is pending until claimed or shed
        rejected,  ///< ticket was shed at the door (state already flipped)
        displaced, ///< admitted, but `victim` was shed to make room
    };

    struct Offer {
        Verdict verdict = Verdict::admitted;
        /// The queued ticket shed to admit the newcomer (displaced only).
        std::shared_ptr<AdmissionTicket> victim;
    };

    /// Applies the shedding policy and (unless rejected) enqueues `ticket`.
    /// On `rejected` the ticket's state is already State::shed.
    [[nodiscard]] Offer offer(const std::shared_ptr<AdmissionTicket>& ticket);

    /// Removes a claimed (or otherwise finished) ticket from the pending
    /// set. Safe to call for tickets the queue never admitted (no-op).
    void release(const AdmissionTicket& ticket);

    /// Queued-and-unclaimed tickets right now.
    [[nodiscard]] std::size_t depth() const;

    /// depth / max_pending in [0, 1]; 0 when admission is disabled. The
    /// solver service's brownout watermark compares against this.
    [[nodiscard]] double pressure() const;

    [[nodiscard]] AdmissionStats stats() const;
    [[nodiscard]] bool enabled() const noexcept { return config_.max_pending > 0; }
    [[nodiscard]] const AdmissionConfig& config() const noexcept { return config_; }

private:
    /// Drops tickets that are no longer queued (claimed by a worker that
    /// has not released yet, or shed). Requires mutex_ held.
    void compact_locked();

    AdmissionConfig config_;
    mutable std::mutex mutex_;
    std::deque<std::shared_ptr<AdmissionTicket>> pending_; ///< arrival order
    AdmissionStats stats_;
};

} // namespace amp::svc
