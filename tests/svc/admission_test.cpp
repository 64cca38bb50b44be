// Unit tests for the overload-protection building blocks: AdmissionQueue
// shedding policies, AdmissionTicket claim/shed races and the CircuitBreaker
// state machine (docs/FAULT_MODEL.md, "Overload model").

#include "svc/admission.hpp"
#include "svc/circuit_breaker.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

namespace amp::svc {
namespace {

std::shared_ptr<AdmissionTicket> make_ticket(std::uint64_t id, std::int8_t priority = 0)
{
    auto ticket = std::make_shared<AdmissionTicket>();
    ticket->id = id;
    ticket->priority = priority;
    return ticket;
}

TEST(AdmissionQueue, DisabledAdmitsEverythingAndTracksNothing)
{
    AdmissionQueue queue{AdmissionConfig{}};
    EXPECT_FALSE(queue.enabled());
    for (std::uint64_t i = 0; i < 100; ++i) {
        const auto offer = queue.offer(make_ticket(i));
        EXPECT_EQ(offer.verdict, AdmissionQueue::Verdict::admitted);
    }
    EXPECT_EQ(queue.depth(), 0u);
    EXPECT_EQ(queue.pressure(), 0.0);
    EXPECT_EQ(queue.stats().admitted, 0u) << "disabled admission tracks nothing";
    EXPECT_EQ(queue.stats().rejected, 0u);
}

TEST(AdmissionQueue, RejectNewestShedsTheNewcomerAtCapacity)
{
    AdmissionQueue queue{AdmissionConfig{2, ShedPolicy::reject_newest}};
    auto a = make_ticket(1);
    auto b = make_ticket(2);
    auto c = make_ticket(3);
    EXPECT_EQ(queue.offer(a).verdict, AdmissionQueue::Verdict::admitted);
    EXPECT_EQ(queue.offer(b).verdict, AdmissionQueue::Verdict::admitted);
    EXPECT_EQ(queue.depth(), 2u);
    EXPECT_EQ(queue.pressure(), 1.0);

    const auto offer = queue.offer(c);
    EXPECT_EQ(offer.verdict, AdmissionQueue::Verdict::rejected);
    EXPECT_EQ(c->state.load(), AdmissionTicket::State::shed)
        << "a rejected ticket's state must already be flipped";
    EXPECT_EQ(queue.depth(), 2u);
    EXPECT_EQ(queue.stats().rejected, 1u);

    // Claiming a queued ticket and releasing it frees a slot.
    ASSERT_TRUE(a->claim());
    queue.release(*a);
    EXPECT_EQ(queue.depth(), 1u);
    EXPECT_EQ(queue.offer(make_ticket(4)).verdict, AdmissionQueue::Verdict::admitted);
}

TEST(AdmissionQueue, DropOldestDisplacesTheFrontOfTheQueue)
{
    AdmissionQueue queue{AdmissionConfig{2, ShedPolicy::drop_oldest}};
    auto a = make_ticket(1);
    auto b = make_ticket(2);
    auto c = make_ticket(3);
    ASSERT_EQ(queue.offer(a).verdict, AdmissionQueue::Verdict::admitted);
    ASSERT_EQ(queue.offer(b).verdict, AdmissionQueue::Verdict::admitted);

    const auto offer = queue.offer(c);
    EXPECT_EQ(offer.verdict, AdmissionQueue::Verdict::displaced);
    ASSERT_NE(offer.victim, nullptr);
    EXPECT_EQ(offer.victim->id, 1u) << "drop_oldest must shed the oldest queued ticket";
    EXPECT_EQ(offer.victim->state.load(), AdmissionTicket::State::shed);
    EXPECT_EQ(c->state.load(), AdmissionTicket::State::queued);
    EXPECT_EQ(queue.depth(), 2u);
    EXPECT_EQ(queue.stats().displaced, 1u);
}

TEST(AdmissionQueue, DropOldestSkipsAlreadyClaimedTickets)
{
    AdmissionQueue queue{AdmissionConfig{2, ShedPolicy::drop_oldest}};
    auto a = make_ticket(1);
    auto b = make_ticket(2);
    ASSERT_EQ(queue.offer(a).verdict, AdmissionQueue::Verdict::admitted);
    ASSERT_EQ(queue.offer(b).verdict, AdmissionQueue::Verdict::admitted);
    // A worker grabs the oldest ticket but has not released it yet.
    ASSERT_TRUE(a->claim());

    const auto offer = queue.offer(make_ticket(3));
    // Claiming `a` implicitly freed a pending slot, so the newcomer is
    // admitted without displacing anyone.
    EXPECT_EQ(offer.verdict, AdmissionQueue::Verdict::admitted);
    EXPECT_EQ(b->state.load(), AdmissionTicket::State::queued);
}

TEST(AdmissionQueue, PriorityAwareShedsTheLowestPriorityVictim)
{
    AdmissionQueue queue{AdmissionConfig{3, ShedPolicy::priority_aware}};
    auto low_a = make_ticket(1, 0);
    auto high = make_ticket(2, 5);
    auto low_b = make_ticket(3, 0);
    ASSERT_EQ(queue.offer(low_a).verdict, AdmissionQueue::Verdict::admitted);
    ASSERT_EQ(queue.offer(high).verdict, AdmissionQueue::Verdict::admitted);
    ASSERT_EQ(queue.offer(low_b).verdict, AdmissionQueue::Verdict::admitted);

    // Newcomer priority 3 beats the minimum (0); the *last* minimum-priority
    // ticket loses, so the older low-priority request keeps its place.
    const auto offer = queue.offer(make_ticket(4, 3));
    EXPECT_EQ(offer.verdict, AdmissionQueue::Verdict::displaced);
    ASSERT_NE(offer.victim, nullptr);
    EXPECT_EQ(offer.victim->id, 3u);
    EXPECT_EQ(low_a->state.load(), AdmissionTicket::State::queued);
    EXPECT_EQ(high->state.load(), AdmissionTicket::State::queued);
}

TEST(AdmissionQueue, PriorityAwareRejectsNewcomerOnTie)
{
    AdmissionQueue queue{AdmissionConfig{2, ShedPolicy::priority_aware}};
    ASSERT_EQ(queue.offer(make_ticket(1, 2)).verdict, AdmissionQueue::Verdict::admitted);
    ASSERT_EQ(queue.offer(make_ticket(2, 2)).verdict, AdmissionQueue::Verdict::admitted);

    // Equal priority is not enough: the newcomer must be strictly higher.
    auto tie = make_ticket(3, 2);
    EXPECT_EQ(queue.offer(tie).verdict, AdmissionQueue::Verdict::rejected);
    EXPECT_EQ(tie->state.load(), AdmissionTicket::State::shed);

    auto winner = make_ticket(4, 3);
    EXPECT_EQ(queue.offer(winner).verdict, AdmissionQueue::Verdict::displaced);
}

TEST(AdmissionQueue, PriorityAwareKeepsFifoOrderAmongEqualPriorities)
{
    // Pin the tie rule the arbiter's probe traffic relies on: when several
    // queued tickets share the minimum priority, the victim is always the
    // NEWEST of them, so the survivors are served in arrival (FIFO) order
    // and a displacement flood can never starve the oldest equal-priority
    // request.
    AdmissionQueue queue{AdmissionConfig{3, ShedPolicy::priority_aware}};
    ASSERT_EQ(queue.offer(make_ticket(1, 0)).verdict, AdmissionQueue::Verdict::admitted);
    ASSERT_EQ(queue.offer(make_ticket(2, 0)).verdict, AdmissionQueue::Verdict::admitted);
    ASSERT_EQ(queue.offer(make_ticket(3, 0)).verdict, AdmissionQueue::Verdict::admitted);

    // First displacement: ids {1, 2, 3} all at priority 0 -> id 3 loses.
    const auto first = queue.offer(make_ticket(4, 5));
    ASSERT_EQ(first.verdict, AdmissionQueue::Verdict::displaced);
    ASSERT_NE(first.victim, nullptr);
    EXPECT_EQ(first.victim->id, 3u) << "newest equal-priority ticket must lose first";

    // Second: {1, 2, high} -> id 2 loses; id 1 (the oldest) still survives.
    const auto second = queue.offer(make_ticket(5, 5));
    ASSERT_EQ(second.verdict, AdmissionQueue::Verdict::displaced);
    ASSERT_NE(second.victim, nullptr);
    EXPECT_EQ(second.victim->id, 2u);

    // Third: {1, high, high} -> id 1 is finally the only minimum left.
    const auto third = queue.offer(make_ticket(6, 5));
    ASSERT_EQ(third.verdict, AdmissionQueue::Verdict::displaced);
    ASSERT_NE(third.victim, nullptr);
    EXPECT_EQ(third.victim->id, 1u);

    // Among the equal-priority survivors the queue itself stays in arrival
    // order: a fourth equal-priority newcomer displaces the newest of the
    // high tickets, never an older one.
    const auto fourth = queue.offer(make_ticket(7, 6));
    ASSERT_EQ(fourth.verdict, AdmissionQueue::Verdict::displaced);
    ASSERT_NE(fourth.victim, nullptr);
    EXPECT_EQ(fourth.victim->id, 6u)
        << "FIFO among equals: the most recent admission is the tie victim";
    EXPECT_EQ(queue.stats().displaced, 4u);
}

TEST(AdmissionQueue, RecoveryPriorityAlwaysDisplacesBulkTraffic)
{
    AdmissionQueue queue{AdmissionConfig{1, ShedPolicy::priority_aware}};
    ASSERT_EQ(queue.offer(make_ticket(1, 0)).verdict, AdmissionQueue::Verdict::admitted);
    auto recovery = make_ticket(2, 100);
    const auto offer = queue.offer(recovery);
    EXPECT_EQ(offer.verdict, AdmissionQueue::Verdict::displaced);
    EXPECT_EQ(recovery->state.load(), AdmissionTicket::State::queued);
}

TEST(AdmissionTicket, ClaimAndShedRaceHasExactlyOneWinner)
{
    // The single CAS is the whole synchronization story between a worker
    // popping the job and the shedding policy dropping it -- exactly one
    // side may win, every time.
    for (int round = 0; round < 200; ++round) {
        AdmissionTicket ticket;
        std::atomic<int> claims{0};
        std::atomic<int> sheds{0};
        std::atomic<bool> go{false};
        std::thread worker{[&] {
            while (!go.load()) {}
            if (ticket.claim())
                claims.fetch_add(1);
        }};
        std::thread policy{[&] {
            while (!go.load()) {}
            if (ticket.shed())
                sheds.fetch_add(1);
        }};
        go.store(true);
        worker.join();
        policy.join();
        EXPECT_EQ(claims.load() + sheds.load(), 1) << "round " << round;
    }
}

// -- circuit breaker ------------------------------------------------------

TEST(CircuitBreaker, TripsAfterConsecutiveFailuresOnly)
{
    CircuitBreaker breaker{BreakerConfig{3, 1000, 1, 1}};
    std::int64_t now = 0;
    EXPECT_TRUE(breaker.allow(now));
    breaker.on_failure(++now);
    breaker.on_failure(++now);
    breaker.on_success(++now); // streak broken
    breaker.on_failure(++now);
    breaker.on_failure(++now);
    EXPECT_EQ(breaker.state(), BreakerState::closed);
    breaker.on_failure(++now);
    EXPECT_EQ(breaker.state(), BreakerState::open);
    EXPECT_EQ(breaker.trips(), 1u);
    EXPECT_FALSE(breaker.allow(now)) << "open breaker fails fast";
}

TEST(CircuitBreaker, HalfOpensAfterCooldownAndClosesOnProbeSuccess)
{
    CircuitBreaker breaker{BreakerConfig{1, 1000, 1, 2}};
    breaker.on_failure(0);
    ASSERT_EQ(breaker.state(), BreakerState::open);
    EXPECT_FALSE(breaker.allow(999)) << "cooldown not elapsed";
    EXPECT_TRUE(breaker.allow(1000)) << "caller becomes the first probe";
    EXPECT_EQ(breaker.state(), BreakerState::half_open);
    EXPECT_FALSE(breaker.allow(1001)) << "probe budget (1) exhausted";
    breaker.on_success(1002);
    EXPECT_EQ(breaker.state(), BreakerState::half_open) << "close_threshold = 2";
    EXPECT_TRUE(breaker.allow(1003));
    breaker.on_success(1004);
    EXPECT_EQ(breaker.state(), BreakerState::closed);
}

TEST(CircuitBreaker, ProbeFailureReopensAndRestartsCooldown)
{
    CircuitBreaker breaker{BreakerConfig{1, 1000, 1, 1}};
    breaker.on_failure(0);
    ASSERT_TRUE(breaker.allow(1000));
    breaker.on_failure(1100);
    EXPECT_EQ(breaker.state(), BreakerState::open);
    EXPECT_EQ(breaker.trips(), 2u);
    EXPECT_FALSE(breaker.allow(1500)) << "cooldown restarted at the re-open";
    EXPECT_TRUE(breaker.allow(2100));
}

TEST(CircuitBreaker, StragglerOutcomesWhileOpenAreIgnored)
{
    CircuitBreaker breaker{BreakerConfig{2, 1000, 1, 1}};
    breaker.on_failure(0);
    breaker.on_failure(1);
    ASSERT_EQ(breaker.state(), BreakerState::open);
    // A solve admitted before the trip finishing late must not mutate the
    // open breaker (success must not close it, failure must not re-trip).
    breaker.on_success(2);
    breaker.on_failure(3);
    EXPECT_EQ(breaker.state(), BreakerState::open);
    EXPECT_EQ(breaker.trips(), 1u);
}

TEST(CircuitBreaker, DisabledBreakerAlwaysAllows)
{
    CircuitBreaker breaker{BreakerConfig{0, 1000, 1, 1}};
    for (int i = 0; i < 10; ++i) {
        EXPECT_TRUE(breaker.allow(i));
        breaker.on_failure(i);
    }
    EXPECT_EQ(breaker.state(), BreakerState::closed);
    EXPECT_EQ(breaker.trips(), 0u);
}

TEST(CircuitBreaker, TransitionLogRecordsTheFullStateHistory)
{
    CircuitBreaker breaker{BreakerConfig{1, 100, 1, 1}};
    breaker.on_failure(10);       // closed -> open
    ASSERT_TRUE(breaker.allow(110)); // open -> half_open
    breaker.on_success(120);      // half_open -> closed
    breaker.on_failure(130);      // closed -> open
    const auto log = breaker.transitions();
    ASSERT_EQ(log.size(), 4u);
    EXPECT_EQ(log[0], (BreakerTransition{BreakerState::closed, BreakerState::open, 10}));
    EXPECT_EQ(log[1], (BreakerTransition{BreakerState::open, BreakerState::half_open, 110}));
    EXPECT_EQ(log[2], (BreakerTransition{BreakerState::half_open, BreakerState::closed, 120}));
    EXPECT_EQ(log[3], (BreakerTransition{BreakerState::closed, BreakerState::open, 130}));
}

} // namespace
} // namespace amp::svc
