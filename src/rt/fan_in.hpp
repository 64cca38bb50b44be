#pragma once
// Fan-in gate: deterministic merge point where a stage consumes several
// input queues (one per predecessor stage in a DAG plan).
//
// Every input queue carries *every* sequence number exactly once -- as data,
// as a tombstone, or (finally) as the end-of-stream marker; that invariant
// is maintained by the pipeline's watchdog and scavengers, which publish a
// tombstone for every frame lost to a fenced worker. The gate therefore
// merges by popping one envelope per input, asserting the sequence numbers
// agree, and combining the payloads. Because each OrderedQueue already delivers in
// sequence order, the merged stream is in sequence order too, with zero
// reordering and no buffering beyond one in-flight round.
//
// Replicated consumers: multiple workers may serve the merge stage. Rounds
// are serialized by a round flag (a mutex plus a condition variable) so
// exactly one worker pops a given round; the others wait for the flag
// (bounded waits so they can still observe fences/cancellation). If a
// worker must abandon a round mid-way -- its queue pop timed out and the
// caller asked to cancel (fence observed, frame swap pending) -- the
// partial round is parked inside the gate and the next worker resumes it
// at the same input, so no queue is popped twice for one sequence number
// and no sequence is skipped.

#include "rt/envelope.hpp"
#include "rt/ordered_queue.hpp"

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace amp::rt {

template <typename T>
class FanInGate {
public:
    /// Combines a popped envelope `from` (input ordinal `ordinal`, >= 1)
    /// into the accumulator payload.
    using Merge = std::function<void(T& into, T& from, int ordinal)>;

    /// Result of one merge round; mirrors OrderedQueue::PopResult.
    struct Result {
        std::optional<Envelope<T>> envelope;
        bool done = false; ///< all inputs delivered end-of-stream (or aborted)

        [[nodiscard]] bool timed_out() const { return !envelope.has_value() && !done; }
    };

    FanInGate(std::vector<OrderedQueue<T>*> inputs, Merge merge)
        : inputs_(std::move(inputs))
        , merge_(std::move(merge))
    {
        if (inputs_.size() < 2)
            throw std::invalid_argument{"FanInGate: needs at least two inputs"};
    }

    FanInGate(const FanInGate&) = delete;
    FanInGate& operator=(const FanInGate&) = delete;

    /// Pops the next merged envelope. `slice` bounds each internal wait (the
    /// round flag and every queue pop) so the caller regains control to run
    /// `on_wait` -- the same heartbeat hook stage workers use while blocked.
    /// When a pop times out and `cancelled()` is true, the partial round is
    /// parked and the call returns timed_out; a later call (any worker)
    /// resumes it. Throws std::logic_error if the inputs desequence, which
    /// can only happen if the every-seq-exactly-once invariant is broken.
    template <typename Rep, typename Period, typename OnWait, typename Cancelled>
    Result pop_round(std::chrono::duration<Rep, Period> slice, OnWait&& on_wait,
                     Cancelled&& cancelled)
    {
        {
            std::unique_lock lock{mutex_};
            while (!round_free_.wait_for(lock, slice, [this] { return !in_round_; })) {
                lock.unlock();
                on_wait();
                if (cancelled())
                    return Result{std::nullopt, false};
                lock.lock();
            }
            in_round_ = true;
        }
        const RoundGuard guard{*this};

        Envelope<T> acc;
        std::size_t next = 0;
        if (partial_) {
            acc = std::move(partial_->acc);
            next = partial_->next_input;
            partial_.reset();
        } else {
            while (true) {
                auto r = inputs_[0]->try_pop_for(slice);
                if (r.done)
                    return Result{std::nullopt, true};
                if (r.envelope) {
                    acc = std::move(*r.envelope);
                    break;
                }
                on_wait();
                if (cancelled())
                    return Result{std::nullopt, false};
            }
            next = 1;
        }

        for (; next < inputs_.size(); ++next) {
            while (true) {
                auto r = inputs_[next]->try_pop_for(slice);
                if (r.done) // abort: queues were closed out from under us
                    return Result{std::nullopt, true};
                if (r.envelope) {
                    combine(acc, *r.envelope, static_cast<int>(next));
                    break;
                }
                on_wait();
                if (cancelled()) {
                    partial_ = Partial{std::move(acc), next};
                    return Result{std::nullopt, false};
                }
            }
        }
        return Result{std::move(acc), false};
    }

    /// Drops any parked partial round. Only safe between runs, after the
    /// input queues themselves have been reset.
    void reset()
    {
        std::lock_guard lock{mutex_};
        partial_.reset();
    }

    [[nodiscard]] std::size_t input_count() const { return inputs_.size(); }

private:
    struct Partial {
        Envelope<T> acc;
        std::size_t next_input = 0;
    };

    /// Ends the owner's round on every exit path, waking one waiter.
    struct RoundGuard {
        FanInGate& gate;
        ~RoundGuard()
        {
            {
                std::lock_guard lock{gate.mutex_};
                gate.in_round_ = false;
            }
            gate.round_free_.notify_one();
        }
    };

    void combine(Envelope<T>& acc, Envelope<T>& in, int ordinal)
    {
        if (in.seq != acc.seq || in.end != acc.end)
            throw std::logic_error{"FanInGate: inputs desequenced at seq "
                                   + std::to_string(acc.seq)};
        if (in.dropped)
            acc.dropped = true; // any lost branch copy tombstones the merge
        if (!acc.end && !acc.dropped && merge_)
            merge_(acc.payload, in.payload, ordinal);
    }

    std::vector<OrderedQueue<T>*> inputs_;
    Merge merge_;
    std::mutex mutex_;
    std::condition_variable round_free_;
    bool in_round_ = false;          ///< a worker owns the current round (under mutex_)
    std::optional<Partial> partial_; ///< round abandoned by a cancelled worker (round owner only)
};

} // namespace amp::rt
