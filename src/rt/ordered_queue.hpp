#pragma once
// Bounded inter-stage queue that restores stream order.
//
// Stages replicated over several workers complete frames out of order; the
// queue buffers envelopes keyed by sequence number and hands them to
// consumers strictly in order (the StreamPU "adaptor" role). Multiple
// producers and multiple consumers are supported; each envelope is delivered
// exactly once.
//
// Deadlock freedom under the bounded capacity: a push whose sequence number
// is exactly the one the consumer waits for bypasses the capacity check, so
// the frame the pipeline needs next can always enter the buffer.
//
// For fault tolerance the queue offers timed variants (`try_pop_for`,
// `try_push_for`) so that a worker blocked on a stalled or dead peer can
// periodically wake up, refresh its heartbeat and check whether the watchdog
// fenced it -- without tearing the whole pipeline down with abort(). Stale
// pushes (seq already delivered, e.g. the original frame arriving after the
// watchdog published a tombstone for it) are dropped silently.
//
// Consumer wait (`pop`, `try_pop_for`). A stream pushes at a steady cadence,
// so the queue predicts when the next envelope lands: the last push plus the
// median of the recent push gaps. A consumer that finds its envelope missing
// sleeps on the condition variable until one guard before that instant (a
// push still wakes it early), then polls an atomic push counter with the
// lock released until the envelope lands or one window past the prediction,
// and only then parks as a plain condition-variable wait would. A polling
// consumer is not a condition-variable waiter, so the producer's notify
// skips the futex wake-up, and the hand-off costs a cache-line transfer
// instead of a trip through the scheduler. The guard, and the window equal
// to it, is measured by the queue itself: the longest oversleep of its
// recent timed sleeps (host timer slack sets it: about 60 us with Linux's
// default 50 us slack on a 4-vCPU x86 VM) plus the median distance of the
// recent push gaps from their median. No constant fits every host or
// stream, so the wait has no option.
//
// CPU cost: a polled hand-off spins for at most one guard plus one window.
// A consumer polls only while those fit in half the predicted gap, so it
// spins for at most half its time. For closer gaps it sleeps halfway to the
// predicted arrival, which keeps the oversleep measured, and then parks.
// Without a history of push gaps (the first frames through a queue), or
// once the predicted instant has passed (a stalled producer, the end of a
// stream), the consumer parks at once, and a parked consumer uses no CPU.
// At most one consumer of a queue polls at a time; the others park.

#include "rt/envelope.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>

namespace amp::rt {

template <typename T>
class OrderedQueue {
public:
    using Clock = std::chrono::steady_clock;

    /// Outcome of a timed push. `timed_out` is the only retryable outcome;
    /// `closed` and `stale` both consume the envelope but mean different
    /// things to the producer: closed says the whole stream is torn down
    /// (stop retrying, park), stale says only this frame is obsolete (a
    /// tombstone or replacement was already delivered past it -- drop it
    /// and move on to the next frame).
    enum class PushOutcome {
        pushed,    ///< envelope accepted (buffered)
        timed_out, ///< buffer still full after the timeout; envelope untouched
        closed,    ///< queue aborted; no envelope will ever be accepted again
        stale,     ///< seq already delivered (e.g. tombstoned); envelope dropped
    };

    /// Outcome of a timed pop. `envelope` is engaged iff an in-order
    /// envelope was available; `done` reports abort/close (no more data).
    struct PopResult {
        std::optional<Envelope<T>> envelope;
        bool done = false;
        [[nodiscard]] bool timed_out() const noexcept { return !envelope && !done; }
    };

    /// How the consumer waits that ended with an envelope (or abort/close)
    /// were resolved. A pop that found its envelope buffered, and a timed
    /// pop that timed out, count in neither.
    struct HandoffStats {
        std::uint64_t polled = 0; ///< found by polling at the predicted arrival
        std::uint64_t parked = 0; ///< found after blocking on the condition variable
        /// Current guard, which is also the poll window past the prediction;
        /// zero until a timed sleep has measured the oversleep.
        std::chrono::nanoseconds guard{0};
    };

    /// `first_seq` is the sequence number the consumer side starts waiting
    /// for -- non-zero when a pipeline resumes a partially-delivered stream.
    explicit OrderedQueue(std::size_t capacity, std::uint64_t first_seq = 0)
        : capacity_(capacity == 0 ? 1 : capacity)
        , next_seq_(first_seq)
    {
    }

    OrderedQueue(const OrderedQueue&) = delete;
    OrderedQueue& operator=(const OrderedQueue&) = delete;

    /// Blocks while the buffer is full, unless this envelope is the one the
    /// consumer is waiting for or the queue was aborted.
    void push(Envelope<T> envelope)
    {
        std::unique_lock lock{mutex_};
        not_full_.wait(lock, [&] {
            return aborted_ || buffer_.size() < capacity_ || envelope.seq == next_seq_;
        });
        if (aborted_ || envelope.seq < next_seq_)
            return;
        land_locked(std::move(envelope));
    }

    /// Timed push. On `timed_out` the envelope is left intact in `envelope`
    /// so the caller can heartbeat and retry; on `pushed`/`closed`/`stale`
    /// it has been consumed (moved from or dropped).
    PushOutcome try_push_for(Envelope<T>& envelope, std::chrono::steady_clock::duration timeout)
    {
        std::unique_lock lock{mutex_};
        const bool ready = not_full_.wait_for(lock, timeout, [&] {
            return aborted_ || buffer_.size() < capacity_ || envelope.seq == next_seq_;
        });
        if (!ready)
            return PushOutcome::timed_out;
        if (aborted_)
            return PushOutcome::closed;
        if (envelope.seq < next_seq_)
            return PushOutcome::stale;
        land_locked(std::move(envelope));
        return PushOutcome::pushed;
    }

    /// Unconditional push for control envelopes (tombstones and end-of-
    /// stream markers): never blocks and never refuses for capacity. The
    /// watchdog uses it to fill stream holes left by fenced workers -- a
    /// capacity-bounded push there can deadlock the whole pipeline: with
    /// the buffer full of frames *past* a hole, a tombstone for a seq
    /// other than `next_seq_` would wait forever, and while the watchdog
    /// waits it can never fence the worker whose tombstone *would* fill
    /// the hole. Control envelopes carry no payload, and each fence or
    /// scavenged frame contributes at most one, so the transient overfill
    /// is small and bounded. Stale and aborted envelopes are still
    /// dropped (both are consumed silently, exactly like push()).
    void force_push(Envelope<T> envelope)
    {
        std::lock_guard lock{mutex_};
        if (aborted_ || envelope.seq < next_seq_)
            return;
        land_locked(std::move(envelope));
    }

    /// Pops the next in-order envelope. Returns nullopt once the end-of-
    /// stream envelope has been delivered (to some consumer) or the queue
    /// was aborted. The end envelope itself is delivered exactly once.
    std::optional<Envelope<T>> pop()
    {
        std::unique_lock lock{mutex_};
        (void)wait_ready(lock, Clock::time_point::max());
        return pop_locked();
    }

    /// Timed pop: like pop() but gives up after `timeout` so the consumer
    /// can wake up (heartbeat, fencing check) without a full abort().
    PopResult try_pop_for(Clock::duration timeout)
    {
        std::unique_lock lock{mutex_};
        if (!wait_ready(lock, Clock::now() + timeout))
            return PopResult{};
        auto envelope = pop_locked();
        if (!envelope)
            return PopResult{std::nullopt, true};
        return PopResult{std::move(envelope), false};
    }

    /// Unblocks every producer and consumer; subsequent pushes are dropped
    /// and pops return nullopt. Used on error teardown.
    void abort()
    {
        std::lock_guard lock{mutex_};
        aborted_ = true;
        wake_consumers_locked();
        not_full_.notify_all();
    }

    /// Re-arms the queue for a new stream segment starting at `first_seq`:
    /// drops any buffered envelopes and clears the closed/aborted latches.
    /// The caller must guarantee no concurrent producers or consumers (the
    /// pipeline resets its queues only between segments, with every worker
    /// parked).
    void reset(std::uint64_t first_seq)
    {
        std::lock_guard lock{mutex_};
        buffer_.clear();
        next_seq_ = first_seq;
        closed_ = false;
        aborted_ = false;
        not_full_.notify_all();
    }

    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

    /// Number of buffered envelopes (for tests/metrics).
    [[nodiscard]] std::size_t buffered() const
    {
        std::lock_guard lock{mutex_};
        return buffer_.size();
    }

    /// Next sequence number the consumer side waits for (for tests/metrics).
    [[nodiscard]] std::uint64_t next_seq() const
    {
        std::lock_guard lock{mutex_};
        return next_seq_;
    }

    /// Polled and parked consumer waits so far (for tests/benches).
    [[nodiscard]] HandoffStats handoffs() const
    {
        std::lock_guard lock{mutex_};
        return HandoffStats{polled_, parked_,
                            pushes_ > kHistory ? guard_locked(median_gap_locked())
                                               : Clock::duration::zero()};
    }

private:
    static constexpr std::size_t kHistory = 8; ///< push gaps and oversleeps the wait remembers

    // Requires mutex_ held. Buffers an accepted envelope, records its push
    // instant for the arrival prediction and wakes the consumers.
    void land_locked(Envelope<T> envelope)
    {
        const Clock::time_point now = Clock::now();
        if (pushes_ > 0)
            gaps_[(pushes_ - 1) % kHistory] = now - last_push_;
        last_push_ = now;
        ++pushes_;
        buffer_.emplace(envelope.seq, std::move(envelope));
        wake_consumers_locked();
    }

    // Requires mutex_ held. Every change that can satisfy a waiting
    // consumer notifies the parked ones and bumps the counter a polling
    // consumer watches, last, so the lock is released right after it.
    void wake_consumers_locked()
    {
        not_empty_.notify_all();
        ++changes_;
    }

    // Requires mutex_ held; returns with it held. Waits until the next
    // envelope is buffered or the queue is closed or aborted (true), or
    // until `deadline` passes (false).
    bool wait_ready(std::unique_lock<std::mutex>& lock, Clock::time_point deadline)
    {
        if (ready_locked())
            return true;
        if (!poller_ && pushes_ > kHistory) {
            poller_ = true;
            const bool found = wait_for_arrival(lock, deadline);
            poller_ = false;
            if (found)
                return true;
        }
        const auto ready = [this] { return ready_locked(); };
        if (deadline == Clock::time_point::max())
            not_empty_.wait(lock, ready);
        else if (!not_empty_.wait_until(lock, deadline, ready))
            return false;
        ++parked_;
        return true;
    }

    // Requires mutex_ held and a full gap history; returns with the lock
    // held. The polling consumer's wait, up to one window past the
    // predicted arrival: true (and counted) once the next envelope is
    // ready, false when the caller must park (an overdue prediction, a
    // declined or fruitless poll, or `deadline`).
    bool wait_for_arrival(std::unique_lock<std::mutex>& lock, Clock::time_point deadline)
    {
        const Clock::duration gap = median_gap_locked();
        const Clock::time_point arrival = last_push_ + gap;
        const Clock::time_point now = Clock::now();
        if (arrival <= now)
            return false;
        const Clock::duration guard = guard_locked(gap);
        // Guard plus window (equal to the guard) must fit in half a gap. A
        // consumer that may not poll still sleeps halfway to the arrival
        // before it parks, so the oversleep stays measured.
        const bool poll = guard.count() > 0 && 4 * guard <= gap;
        const Clock::time_point wake =
            std::min(poll ? arrival - guard : now + (arrival - now) / 2, deadline);
        if (wake > now) {
            const bool found = not_empty_.wait_until(lock, wake, [this] { return ready_locked(); });
            // How late past `wake` the consumer got the lock back, whether
            // its timer or a push woke it: a push that beats a late timer
            // still counts, or the guard would only learn the oversleeps
            // that were short enough.
            const Clock::time_point woke = Clock::now();
            if (woke > wake)
                note_oversleep_locked(woke - wake);
            if (found) {
                ++parked_;
                return true;
            }
        }
        if (!poll || !poll_until(lock, std::min(arrival + guard, deadline)))
            return false;
        ++polled_;
        return true;
    }

    // Requires mutex_ held; returns with it held. Spins on the push counter
    // with the lock released until the next envelope is ready or `until`
    // passes.
    bool poll_until(std::unique_lock<std::mutex>& lock, Clock::time_point until)
    {
        std::uint64_t seen = changes_.load();
        lock.unlock();
        while (Clock::now() < until) {
            // The counter is bumped under the lock, so the producer may
            // still hold it: spin for it rather than sleep on it.
            if (changes_.load() != seen && lock.try_lock()) {
                if (ready_locked())
                    return true;
                seen = changes_.load();
                lock.unlock();
            }
            relax();
        }
        lock.lock();
        return ready_locked();
    }

    // Requires mutex_ held. The consumer wait's predicate.
    [[nodiscard]] bool ready_locked() const
    {
        return aborted_ || closed_ || buffer_.count(next_seq_) != 0;
    }

    // Requires mutex_ held and a full gap history.
    [[nodiscard]] Clock::duration median_gap_locked() const
    {
        std::array<Clock::duration, kHistory> gaps = gaps_;
        std::nth_element(gaps.begin(), gaps.begin() + kHistory / 2, gaps.end());
        return gaps[kHistory / 2];
    }

    // Requires mutex_ held. `late` is how far past its deadline a timed
    // sleep woke.
    void note_oversleep_locked(Clock::duration late)
    {
        oversleeps_[oversleep_samples_++ % kHistory] = late;
    }

    // Requires mutex_ held and a full gap history; `gap` is the median gap.
    // The longest recent oversleep, so the consumer is awake before the
    // arrival, plus the median distance of a recent push gap from `gap`,
    // so a jittery arrival still lands inside the poll (a median, so one
    // stall or burst does not widen it). Zero until an oversleep was
    // measured.
    [[nodiscard]] Clock::duration guard_locked(Clock::duration gap) const
    {
        if (oversleep_samples_ == 0)
            return Clock::duration::zero();
        const auto measured =
            static_cast<std::ptrdiff_t>(std::min<std::uint64_t>(oversleep_samples_, kHistory));
        std::array<Clock::duration, kHistory> deviations{};
        std::transform(gaps_.begin(), gaps_.end(), deviations.begin(),
                       [gap](Clock::duration g) { return g > gap ? g - gap : gap - g; });
        std::nth_element(deviations.begin(), deviations.begin() + kHistory / 2, deviations.end());
        return *std::max_element(oversleeps_.begin(), oversleeps_.begin() + measured)
            + deviations[kHistory / 2];
    }

    static void relax() noexcept
    {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#elif defined(__aarch64__)
        asm volatile("yield");
#endif
    }

    // Requires mutex_ held and the wait predicate satisfied.
    std::optional<Envelope<T>> pop_locked()
    {
        if (aborted_ || closed_)
            return std::nullopt;
        auto node = buffer_.extract(next_seq_);
        Envelope<T> envelope = std::move(node.mapped());
        ++next_seq_;
        if (envelope.end) {
            closed_ = true;
            wake_consumers_locked(); // release consumers waiting on later seqs
        }
        not_full_.notify_all();
        return envelope;
    }

    const std::size_t capacity_;
    mutable std::mutex mutex_;
    std::condition_variable not_full_;
    std::condition_variable not_empty_;
    std::map<std::uint64_t, Envelope<T>> buffer_;
    std::uint64_t next_seq_ = 0;
    bool closed_ = false;
    bool aborted_ = false;

    // Consumer wait state (see the file comment).
    bool poller_ = false;      ///< a consumer holds the polling role
    std::uint64_t pushes_ = 0; ///< envelopes landed so far
    Clock::time_point last_push_{};
    std::array<Clock::duration, kHistory> gaps_{};       ///< ring of recent push gaps
    std::array<Clock::duration, kHistory> oversleeps_{}; ///< ring of timed-sleep oversleeps
    std::uint64_t oversleep_samples_ = 0;
    std::uint64_t polled_ = 0;
    std::uint64_t parked_ = 0;
    /// Bumped on every consumer wake-up. On a cache line of its own, so a
    /// polling consumer is not invalidated by the producer's other writes.
    alignas(64) std::atomic<std::uint64_t> changes_{0};
};

} // namespace amp::rt
