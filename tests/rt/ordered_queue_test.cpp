#include "common/rng.hpp"
#include "rt/ordered_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

namespace {

using amp::rt::Envelope;
using amp::rt::OrderedQueue;

TEST(OrderedQueue, DeliversInSequenceOrder)
{
    OrderedQueue<int> queue{8};
    queue.push(Envelope<int>::data(2, 20));
    queue.push(Envelope<int>::data(0, 0));
    queue.push(Envelope<int>::data(1, 10));
    for (std::uint64_t expected = 0; expected < 3; ++expected) {
        const auto env = queue.pop();
        ASSERT_TRUE(env.has_value());
        EXPECT_EQ(env->seq, expected);
        EXPECT_EQ(env->payload, static_cast<int>(expected * 10));
    }
}

TEST(OrderedQueue, EndOfStreamClosesQueue)
{
    OrderedQueue<int> queue{8};
    queue.push(Envelope<int>::data(0, 1));
    queue.push(Envelope<int>::end_of_stream(1));
    auto first = queue.pop();
    ASSERT_TRUE(first.has_value());
    EXPECT_FALSE(first->end);
    auto second = queue.pop();
    ASSERT_TRUE(second.has_value());
    EXPECT_TRUE(second->end);
    EXPECT_FALSE(queue.pop().has_value()) << "closed after end delivery";
}

TEST(OrderedQueue, AbortUnblocksConsumers)
{
    OrderedQueue<int> queue{2};
    std::thread consumer{[&] { EXPECT_FALSE(queue.pop().has_value()); }};
    queue.abort();
    consumer.join();
}

TEST(OrderedQueue, NextSeqBypassesFullBuffer)
{
    // Buffer of capacity 1 already holds seq 1; pushing seq 0 (the frame the
    // consumer needs) must not deadlock.
    OrderedQueue<int> queue{1};
    queue.push(Envelope<int>::data(1, 11));
    std::thread producer{[&] { queue.push(Envelope<int>::data(0, 1)); }};
    const auto env = queue.pop();
    ASSERT_TRUE(env.has_value());
    EXPECT_EQ(env->seq, 0u);
    producer.join();
    EXPECT_EQ(queue.pop()->seq, 1u);
}

TEST(OrderedQueue, BackpressureBlocksUntilDrained)
{
    OrderedQueue<int> queue{2};
    queue.push(Envelope<int>::data(0, 0));
    queue.push(Envelope<int>::data(1, 1));
    std::atomic<bool> pushed{false};
    std::thread producer{[&] {
        queue.push(Envelope<int>::data(2, 2)); // over capacity, not next seq
        pushed = true;
    }};
    // Give the producer a chance to (wrongly) slip through.
    std::this_thread::sleep_for(std::chrono::milliseconds{20});
    EXPECT_FALSE(pushed.load());
    (void)queue.pop();
    producer.join();
    EXPECT_TRUE(pushed.load());
}

TEST(OrderedQueue, ManyProducersManyConsumers)
{
    constexpr std::uint64_t kFrames = 500;
    OrderedQueue<std::uint64_t> queue{8};
    std::atomic<std::uint64_t> next{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < 4; ++p) {
        producers.emplace_back([&] {
            for (;;) {
                const std::uint64_t seq = next.fetch_add(1);
                if (seq >= kFrames) {
                    if (seq == kFrames)
                        queue.push(Envelope<std::uint64_t>::end_of_stream(kFrames));
                    return;
                }
                queue.push(Envelope<std::uint64_t>::data(seq, seq * 3));
            }
        });
    }
    std::mutex sink_mutex;
    std::vector<std::uint64_t> seen;
    std::vector<std::thread> consumers;
    for (int c = 0; c < 3; ++c) {
        consumers.emplace_back([&] {
            while (auto env = queue.pop()) {
                if (env->end)
                    return;
                std::lock_guard lock{sink_mutex};
                seen.push_back(env->seq);
            }
        });
    }
    for (auto& t : producers)
        t.join();
    for (auto& t : consumers)
        t.join();
    ASSERT_EQ(seen.size(), kFrames);
    std::sort(seen.begin(), seen.end());
    for (std::uint64_t i = 0; i < kFrames; ++i)
        EXPECT_EQ(seen[i], i) << "each frame delivered exactly once";
}

TEST(OrderedQueue, ZeroCapacityClampsToOne)
{
    OrderedQueue<int> queue{0};
    EXPECT_EQ(queue.capacity(), 1u);
}

TEST(OrderedQueue, TryPopForTimesOutOnEmptyQueue)
{
    OrderedQueue<int> queue{4};
    const auto begin = std::chrono::steady_clock::now();
    const auto result = queue.try_pop_for(std::chrono::milliseconds{20});
    const auto elapsed = std::chrono::steady_clock::now() - begin;
    EXPECT_TRUE(result.timed_out());
    EXPECT_FALSE(result.envelope.has_value());
    EXPECT_FALSE(result.done);
    EXPECT_GE(elapsed, std::chrono::milliseconds{15})
        << "a timed-out pop must actually have waited";
}

TEST(OrderedQueue, TryPopForReturnsAvailableEnvelope)
{
    OrderedQueue<int> queue{4};
    queue.push(Envelope<int>::data(0, 42));
    const auto result = queue.try_pop_for(std::chrono::milliseconds{50});
    ASSERT_TRUE(result.envelope.has_value());
    EXPECT_EQ(result.envelope->payload, 42);
    EXPECT_FALSE(result.done);
}

TEST(OrderedQueue, TryPopForWakesUpWithoutAbort)
{
    // The pre-fault-tolerance behaviour: a consumer blocked on a stalled
    // upstream could only be released by abort(), which tears the whole
    // stream down. try_pop_for lets it wake up, notice the world is still
    // alive, and wait again -- then receive the frame when it arrives.
    OrderedQueue<int> queue{4};
    std::atomic<int> wakeups{0};
    std::atomic<bool> got_frame{false};
    std::thread consumer{[&] {
        for (;;) {
            const auto result = queue.try_pop_for(std::chrono::milliseconds{5});
            if (result.timed_out()) {
                ++wakeups;
                continue;
            }
            ASSERT_TRUE(result.envelope.has_value());
            got_frame = true;
            return;
        }
    }};
    std::this_thread::sleep_for(std::chrono::milliseconds{30}); // stalled upstream
    queue.push(Envelope<int>::data(0, 7));
    consumer.join();
    EXPECT_TRUE(got_frame);
    EXPECT_GE(wakeups.load(), 1) << "consumer woke up during the stall without abort()";
}

TEST(OrderedQueue, TryPopForReportsClosedQueue)
{
    OrderedQueue<int> queue{4};
    queue.push(Envelope<int>::end_of_stream(0));
    ASSERT_TRUE(queue.pop().has_value()); // consume the end marker
    const auto result = queue.try_pop_for(std::chrono::milliseconds{5});
    EXPECT_TRUE(result.done);
    EXPECT_FALSE(result.envelope.has_value());
}

TEST(OrderedQueue, TryPushForTimesOutOnFullBufferAndKeepsEnvelope)
{
    OrderedQueue<int> queue{1};
    queue.push(Envelope<int>::data(1, 10)); // out-of-order frame fills capacity
    auto blocked = Envelope<int>::data(2, 20);
    EXPECT_EQ(queue.try_push_for(blocked, std::chrono::milliseconds{10}),
              OrderedQueue<int>::PushOutcome::timed_out);
    EXPECT_EQ(blocked.payload, 20) << "timed-out push must leave the envelope intact";
    // The consumer's next frame always bypasses the capacity check.
    auto awaited = Envelope<int>::data(0, 0);
    EXPECT_EQ(queue.try_push_for(awaited, std::chrono::milliseconds{10}),
              OrderedQueue<int>::PushOutcome::pushed);
}

TEST(OrderedQueue, StalePushIsDroppedAsStale)
{
    // A fenced worker waking up after the watchdog already tombstoned (and
    // the consumer already skipped) its frame must not wedge the buffer --
    // and must be told the frame (not the stream) is dead, so it moves on
    // to its next frame instead of parking.
    OrderedQueue<int> queue{4};
    queue.push(Envelope<int>::data(0, 0));
    ASSERT_TRUE(queue.pop().has_value());
    auto stale = Envelope<int>::data(0, 99);
    EXPECT_EQ(queue.try_push_for(stale, std::chrono::milliseconds{5}),
              OrderedQueue<int>::PushOutcome::stale);
    EXPECT_EQ(queue.buffered(), 0u);
}

TEST(OrderedQueue, ClosedAndStaleAreDistinguishable)
{
    OrderedQueue<int> queue{4};
    queue.push(Envelope<int>::data(0, 0));
    ASSERT_TRUE(queue.pop().has_value());

    // Same producer mistake, two different answers: a stale frame means
    // "drop this one, keep producing", an aborted queue means "park".
    auto stale = Envelope<int>::data(0, 1);
    EXPECT_EQ(queue.try_push_for(stale, std::chrono::milliseconds{1}),
              OrderedQueue<int>::PushOutcome::stale);

    queue.abort();
    auto next = Envelope<int>::data(1, 2);
    EXPECT_EQ(queue.try_push_for(next, std::chrono::milliseconds{1}),
              OrderedQueue<int>::PushOutcome::closed);
}

TEST(OrderedQueue, ForcePushBypassesCapacityToFillHoles)
{
    // Regression: the watchdog's tombstone for a fenced worker must land
    // even when the surviving workers keep the buffer at capacity with
    // frames *past* the hole. A capacity-bounded push there deadlocks the
    // watchdog: while it retries one tombstone (seq != next_seq), it never
    // fences the other dead worker whose tombstone would fill the hole the
    // consumer is stuck on.
    OrderedQueue<int> queue{4};
    for (std::uint64_t seq = 2; seq < 6; ++seq)
        queue.push(Envelope<int>::data(seq, static_cast<int>(seq))); // full; holes at 0, 1
    auto blocked = Envelope<int>::data(6, 6);
    ASSERT_EQ(queue.try_push_for(blocked, std::chrono::milliseconds{5}),
              OrderedQueue<int>::PushOutcome::timed_out);

    queue.force_push(Envelope<int>::tombstone(1)); // the "first fence", not the hole
    EXPECT_EQ(queue.buffered(), 5u) << "control envelopes overfill instead of blocking";
    queue.force_push(Envelope<int>::tombstone(0)); // the hole-filling fence
    for (std::uint64_t expected = 0; expected < 6; ++expected) {
        const auto env = queue.pop();
        ASSERT_TRUE(env.has_value());
        EXPECT_EQ(env->seq, expected);
        EXPECT_EQ(env->dropped, expected < 2);
    }
    EXPECT_EQ(queue.buffered(), 0u);
}

TEST(OrderedQueue, ForcePushDropsStaleAndAbortedEnvelopes)
{
    OrderedQueue<int> queue{4};
    queue.push(Envelope<int>::data(0, 0));
    ASSERT_TRUE(queue.pop().has_value());
    queue.force_push(Envelope<int>::tombstone(0)); // stale: already delivered
    EXPECT_EQ(queue.buffered(), 0u);
    queue.abort();
    queue.force_push(Envelope<int>::tombstone(5));
    EXPECT_EQ(queue.buffered(), 0u);
}

TEST(OrderedQueue, FirstSeqOffsetSupportsResumedStreams)
{
    OrderedQueue<int> queue{4, 100};
    EXPECT_EQ(queue.next_seq(), 100u);
    queue.push(Envelope<int>::data(100, 1));
    const auto env = queue.pop();
    ASSERT_TRUE(env.has_value());
    EXPECT_EQ(env->seq, 100u);
    EXPECT_EQ(queue.next_seq(), 101u);
}

TEST(OrderedQueue, TombstoneFlowsLikeData)
{
    OrderedQueue<int> queue{4};
    queue.push(Envelope<int>::data(0, 5));
    queue.push(Envelope<int>::tombstone(1));
    queue.push(Envelope<int>::data(2, 7));
    EXPECT_FALSE(queue.pop()->dropped);
    const auto tomb = queue.pop();
    ASSERT_TRUE(tomb.has_value());
    EXPECT_TRUE(tomb->dropped);
    EXPECT_EQ(tomb->seq, 1u);
    EXPECT_EQ(queue.pop()->seq, 2u) << "the stream continues past the tombstone";
}

// -- predicted-arrival consumer wait ------------------------------------------

using Clock = std::chrono::steady_clock;
using std::chrono::microseconds;
using std::chrono::milliseconds;

/// CPU time the calling thread has used so far.
std::chrono::nanoseconds thread_cpu_time()
{
    timespec now{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
    return std::chrono::seconds{now.tv_sec} + std::chrono::nanoseconds{now.tv_nsec};
}

/// One push of a seeded schedule: `seq` lands `at` after the stream starts
/// (`seq == frames` is the end marker).
struct ScheduledPush {
    Clock::duration at;
    std::uint64_t seq;
};

constexpr microseconds kCadence{700};
constexpr microseconds kMaxPopTimeout{1500};

/// Three steady runs at kCadence, each long enough to refill the queue's
/// gap history, with adjacent frames swapped now and then. Each run but
/// the last ends in a burst (2-4 frames at one instant, so several
/// producers push them in any order) or a stall longer than any guard and
/// than the longest pop timeout. The end marker comes last.
std::vector<ScheduledPush> seeded_schedule(amp::Rng& rng)
{
    std::vector<ScheduledPush> pushes;
    Clock::duration at{};
    std::uint64_t seq = 0;
    for (int run = 0; run < 3; ++run) {
        const auto steady = static_cast<std::uint64_t>(rng.uniform_int(14, 18));
        for (std::uint64_t i = 0; i < steady; ++i) {
            at += kCadence;
            if (i + 1 < steady && rng.bernoulli(0.15)) {
                pushes.push_back({at, seq + 1});
                at += kCadence;
                pushes.push_back({at, seq});
                seq += 2;
                ++i;
            } else {
                pushes.push_back({at, seq++});
            }
        }
        if (run == 2)
            break;
        if (rng.bernoulli(0.5)) {
            at += kCadence;
            const auto burst = static_cast<std::uint64_t>(rng.uniform_int(2, 4));
            std::vector<std::uint64_t> seqs(burst);
            std::iota(seqs.begin(), seqs.end(), seq);
            std::shuffle(seqs.begin(), seqs.end(), rng);
            for (const std::uint64_t s : seqs)
                pushes.push_back({at, s});
            seq += burst;
        } else {
            at += 2 * kMaxPopTimeout + microseconds{rng.uniform_int(0, 1000)};
            pushes.push_back({at, seq++});
        }
    }
    pushes.push_back({at + kCadence, seq});
    return pushes;
}

TEST(OrderedQueueHandoff, SeededOracleDeliversExactlyOnceInOrder)
{
    // Delivery is checked per seed. Whether one seed's waits get to poll
    // depends on host timer noise (an oversleep spike widens the guard past
    // a quarter of the cadence), so the paths are checked over all seeds.
    std::uint64_t timeouts = 0;
    std::uint64_t polled = 0;
    std::uint64_t parked = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        amp::Rng rng{seed};
        const std::vector<ScheduledPush> schedule = seeded_schedule(rng);
        const std::uint64_t frames = schedule.back().seq;
        const auto producers = static_cast<int>(rng.uniform_int(1, 3));
        const auto consumers = static_cast<int>(rng.uniform_int(1, 2));
        OrderedQueue<std::uint64_t> queue{static_cast<std::size_t>(rng.uniform_int(2, 8))};

        // Producers claim the schedule's pushes in order and sleep until
        // each one is due.
        const Clock::time_point start = Clock::now();
        std::atomic<std::size_t> next_push{0};
        std::vector<std::thread> threads;
        for (int p = 0; p < producers; ++p)
            threads.emplace_back([&] {
                for (std::size_t k; (k = next_push.fetch_add(1)) < schedule.size();) {
                    std::this_thread::sleep_until(start + schedule[k].at);
                    const std::uint64_t seq = schedule[k].seq;
                    queue.push(seq == frames ? Envelope<std::uint64_t>::end_of_stream(seq)
                                             : Envelope<std::uint64_t>::data(seq, seq * 3));
                }
            });

        // Consumers pop through pop() and through try_pop_for() with a
        // random timeout, each into its own log.
        struct Log {
            std::vector<std::uint64_t> seqs;
            std::uint64_t ends = 0;
            std::uint64_t timeouts = 0;
            std::uint64_t early_timeouts = 0;
            std::uint64_t bad_payloads = 0;
        };
        std::vector<Log> logs(static_cast<std::size_t>(consumers));
        for (int c = 0; c < consumers; ++c)
            threads.emplace_back([&, c] {
                amp::Rng choice{seed * 101 + static_cast<std::uint64_t>(c)};
                Log& log = logs[static_cast<std::size_t>(c)];
                for (;;) {
                    std::optional<Envelope<std::uint64_t>> envelope;
                    if (choice.bernoulli(2.0 / 3.0)) {
                        const microseconds timeout{choice.uniform_int(100, kMaxPopTimeout.count())};
                        const Clock::time_point asked = Clock::now();
                        auto popped = queue.try_pop_for(timeout);
                        if (popped.timed_out()) {
                            ++log.timeouts;
                            if (Clock::now() - asked < timeout)
                                ++log.early_timeouts;
                            continue;
                        }
                        envelope = std::move(popped.envelope);
                    } else {
                        envelope = queue.pop();
                    }
                    if (!envelope)
                        break;
                    if (envelope->end) {
                        ++log.ends;
                        break;
                    }
                    if (envelope->payload != envelope->seq * 3)
                        ++log.bad_payloads;
                    log.seqs.push_back(envelope->seq);
                }
            });
        for (auto& thread : threads)
            thread.join();

        std::vector<std::uint64_t> delivered;
        std::uint64_t ends = 0;
        for (const Log& log : logs) {
            EXPECT_TRUE(std::is_sorted(log.seqs.begin(), log.seqs.end()))
                << "a consumer received frames out of order";
            EXPECT_EQ(log.early_timeouts, 0u) << "try_pop_for timed out before its timeout";
            EXPECT_EQ(log.bad_payloads, 0u);
            delivered.insert(delivered.end(), log.seqs.begin(), log.seqs.end());
            ends += log.ends;
            timeouts += log.timeouts;
        }
        std::sort(delivered.begin(), delivered.end());
        std::vector<std::uint64_t> expected(frames);
        std::iota(expected.begin(), expected.end(), 0);
        EXPECT_EQ(delivered, expected) << "every frame exactly once";
        EXPECT_EQ(ends, 1u) << "the end marker exactly once";
        polled += queue.handoffs().polled;
        parked += queue.handoffs().parked;
    }
    EXPECT_GT(polled, 0u) << "no wait found its frame by polling";
    EXPECT_GT(parked, 0u) << "no wait parked";
    EXPECT_GT(timeouts, 0u) << "no try_pop_for timed out";
}

/// Pops frames pushed at a steady pace, in rounds of 40, until a wait was
/// polled (at most ten rounds), so the queue has a push history and a
/// measured guard even when other tests load the host. A wait polls only
/// while four guards fit in the gap, and finds its frame by polling only
/// when the push lands within one guard of the predicted arrival. So each
/// round paces its pushes at ten times the guard measured so far, and at
/// least 1 ms: on a loaded or instrumented host, whose timed sleeps
/// oversleep and whose producer jitters, the gaps widen with the guard
/// instead of leaving no wait that polls.
void pop_a_paced_stream(OrderedQueue<int>& queue)
{
    std::uint64_t seq = 0;
    for (int round = 0; round < 10 && queue.handoffs().polled == 0; ++round) {
        const Clock::duration pace =
            std::max<Clock::duration>(milliseconds{1}, 10 * queue.handoffs().guard);
        std::thread producer{[&queue, first = seq, pace] {
            const Clock::time_point start = Clock::now();
            for (int i = 0; i < 40; ++i) {
                std::this_thread::sleep_until(start + (i + 1) * pace);
                queue.push(Envelope<int>::data(first + static_cast<std::uint64_t>(i), i));
            }
        }};
        for (int i = 0; i < 40; ++i, ++seq)
            ASSERT_EQ(queue.pop()->seq, seq);
        producer.join();
    }
}

/// What a parked wait may cost in syscalls and wake-ups: tens of us on an
/// idle host, a few hundred when other tests load it, and a thousandth of
/// the 200 ms a consumer spinning through the wait would burn.
constexpr microseconds kParkedCpu{1000};

TEST(OrderedQueueHandoff, IdleWaitPollsAtMostOneGuardAndOneWindow)
{
    OrderedQueue<int> queue{64};
    pop_a_paced_stream(queue);
    const auto before = queue.handoffs();
    ASSERT_GT(before.polled, 0u) << "the paced stream should have been polled";

    // Pushes stop: the next frame's predicted arrival comes and goes.
    const std::chrono::nanoseconds cpu_from = thread_cpu_time();
    const Clock::time_point asked = Clock::now();
    const auto popped = queue.try_pop_for(milliseconds{200});
    const Clock::duration waited = Clock::now() - asked;
    const std::chrono::nanoseconds cpu = thread_cpu_time() - cpu_from;

    EXPECT_TRUE(popped.timed_out());
    EXPECT_GE(waited, milliseconds{200});
    // One guard of polling before the prediction and one window (equal to
    // the guard) after it, plus the parked rest of the wait.
    EXPECT_LE(cpu, 2 * before.guard + kParkedCpu)
        << "guard " << before.guard.count() << " ns";
    EXPECT_EQ(queue.handoffs().polled, before.polled);
}

TEST(OrderedQueueHandoff, WaitWithoutHistoryParksAtOnce)
{
    OrderedQueue<int> queue{8};
    const std::chrono::nanoseconds cpu_from = thread_cpu_time();
    const Clock::time_point asked = Clock::now();
    const auto popped = queue.try_pop_for(milliseconds{200});
    const Clock::duration waited = Clock::now() - asked;
    const std::chrono::nanoseconds cpu = thread_cpu_time() - cpu_from;

    EXPECT_TRUE(popped.timed_out());
    EXPECT_GE(waited, milliseconds{200});
    EXPECT_LE(cpu, kParkedCpu) << "the wait should park at once";
    EXPECT_EQ(queue.handoffs().polled, 0u);
    EXPECT_EQ(queue.handoffs().guard.count(), 0) << "nothing measured yet";
}

} // namespace
