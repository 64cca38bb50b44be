// rt::Controller's loss and drift steps, and run_with_recovery driving the
// loss step across in-flight swaps and rebuilds. The Rescheduler suite name
// is the class these steps replaced; the test ids stay stable.

#include "rt/controller.hpp"

#include "rt/fault.hpp"
#include "sim/generator.hpp"
#include "svc/solver_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace amp::rt;
using amp::core::CoreType;
using amp::core::Resources;
using amp::core::Solution;
using amp::core::Stage;
using amp::core::TaskChain;
using amp::core::TaskDesc;

using std::chrono::microseconds;
using std::chrono::milliseconds;

/// Chain matching the runtime sequences below: task 1 sequential, the rest
/// replicable; little cores run every task 2x slower.
TaskChain make_chain(int n, bool first_sequential = true)
{
    std::vector<TaskDesc> tasks;
    for (int i = 1; i <= n; ++i) {
        const double w = 10.0 + static_cast<double>(i);
        tasks.push_back(TaskDesc{"t" + std::to_string(i), w, 2.0 * w,
                                 !(first_sequential && i == 1)});
    }
    return TaskChain{std::move(tasks)};
}


/// One loss step of `lost`; the controller's solution after it.
Solution lose(Controller& controller, CoreType lost)
{
    (void)controller.loss({lost});
    return controller.solution();
}

/// Wraps per-task mean latencies into the TelemetrySnapshot observe()
/// consumes (each latency becomes a single-sample histogram snapshot).
TelemetrySnapshot profile_window(const std::vector<double>& big_us,
                                 const std::vector<double>& little_us)
{
    TelemetrySnapshot telemetry;
    for (const double w : big_us) {
        amp::obs::Histogram h;
        h.record_us(w);
        telemetry.big_us.push_back(h.snapshot());
    }
    for (const double w : little_us) {
        amp::obs::Histogram h;
        h.record_us(w);
        telemetry.little_us.push_back(h.snapshot());
    }
    return telemetry;
}

void expect_feasible(const Solution& solution, const TaskChain& chain,
                     const Resources& budget)
{
    ASSERT_FALSE(solution.empty());
    EXPECT_TRUE(solution.is_well_formed(chain));
    EXPECT_LE(solution.used(CoreType::big), budget.big);
    EXPECT_LE(solution.used(CoreType::little), budget.little);
    const double period = solution.period(chain);
    EXPECT_TRUE(std::isfinite(period));
    EXPECT_TRUE(solution.is_valid(chain, budget, period))
        << "the solution must be period-feasible on its own budget";
}

TEST(Rescheduler, InitialSolutionIsFeasible)
{
    const TaskChain chain = make_chain(5);
    Controller controller{chain, Resources{3, 2}};
    expect_feasible(controller.solution(), chain, Resources{3, 2});
}

TEST(Rescheduler, ThrowsWhenNoResourceAdmitsASchedule)
{
    EXPECT_THROW((Controller{make_chain(4), Resources{0, 0}}), NoScheduleError);
}

TEST(Rescheduler, CoreLossShrinksBudgetDownToOneCoreThenFails)
{
    const TaskChain chain = make_chain(5);
    Controller controller{chain, Resources{2, 2}};
    // Peel cores off one by one; every intermediate schedule must stay
    // feasible on the reduced vector.
    const CoreType losses[] = {CoreType::big, CoreType::little, CoreType::big};
    Resources expected{2, 2};
    for (const CoreType lost : losses) {
        expected.count(lost) -= 1;
        const Solution next = lose(controller, lost);
        EXPECT_EQ(controller.budget(), expected);
        expect_feasible(next, chain, expected);
    }
    EXPECT_EQ(controller.budget().total(), 1);
    expect_feasible(controller.solution(), chain, Resources{0, 1});
    EXPECT_EQ(controller.loss({CoreType::little}).result, StepResult::infeasible);
}

TEST(Rescheduler, DegradedPeriodNeverImproves)
{
    const TaskChain chain = make_chain(6, /*first_sequential=*/false);
    Controller controller{chain, Resources{4, 2}};
    double previous = controller.solution().period(chain);
    for (int i = 0; i < 3; ++i) {
        const double period = lose(controller, CoreType::big).period(chain);
        EXPECT_GE(period, previous - 1e-9) << "fewer cores cannot beat the old period";
        previous = period;
    }
}

// Oracle for the single-solve recovery: HeRAD is period-optimal (paper
// §V), so a loss re-solves HeRAD alone, warm from the kept frontier. Over
// seeded random chains and random loss sequences down to one core, every
// re-solve must equal a cold HeRAD solve at the degraded budget, and no
// other strategy may find a shorter period there. The private service
// caches nothing, so every loss is answered from the frontier.
TEST(Rescheduler, LossSequenceMatchesColdHeradOracle)
{
    using amp::core::Strategy;
    amp::svc::ServiceConfig service_config;
    service_config.workers = 1;
    service_config.cache_capacity = 0;
    amp::svc::SolverService service{service_config};
    ControlConfig control;
    control.service = &service;

    const double ratios[] = {0.0, 0.2, 0.5, 0.8, 1.0};
    amp::Rng rng{0x5EED10055};
    int losses = 0;
    for (int round = 0; round < 400; ++round) {
        amp::sim::GeneratorConfig config;
        config.num_tasks = static_cast<int>(rng.uniform_int(2, 20));
        config.stateless_ratio = ratios[rng.uniform_int(0, 4)];
        const TaskChain chain = amp::sim::generate_chain(config, rng);
        const int big = static_cast<int>(rng.uniform_int(0, 6));
        const int little = static_cast<int>(rng.uniform_int(big > 1 ? 0 : 2 - big, 6));
        Controller controller{chain, Resources{big, little}, control};
        while (controller.budget().total() > 1) {
            CoreType lost = rng.bernoulli(0.5) ? CoreType::big : CoreType::little;
            if (controller.budget().count(lost) == 0)
                lost = amp::core::other(lost);
            const Solution warm = lose(controller, lost);
            const Resources at = controller.budget();
            SCOPED_TRACE(testing::Message()
                         << "round " << round << ", R = (" << at.big << ", " << at.little << ")");
            ASSERT_EQ(warm, amp::core::schedule(Strategy::herad, chain, at));
            const double period = warm.period(chain);
            for (const Strategy other : {Strategy::fertac, Strategy::twocatac,
                                         Strategy::otac_big, Strategy::otac_little}) {
                const Solution rival = amp::core::schedule(other, chain, at);
                if (!rival.empty()) {
                    EXPECT_GE(rival.period(chain), period) << amp::core::to_string(other);
                }
            }
            ++losses;
        }
    }
    EXPECT_GT(losses, 1000);
}

TEST(Rescheduler, SmallDriftIsIgnored)
{
    const TaskChain chain = make_chain(4);
    Controller controller{chain, Resources{2, 2}};
    std::vector<double> big, little;
    for (int i = 1; i <= chain.size(); ++i) {
        big.push_back(chain.weight(i, CoreType::big) * 1.05); // 5% < threshold
        little.push_back(chain.weight(i, CoreType::little) * 1.05);
    }
    for (int r = 0; r < 10; ++r) {
        EXPECT_FALSE(controller.observe(profile_window(big, little)).has_value());
        EXPECT_EQ(controller.drift_streak(), 0);
    }
}

TEST(Rescheduler, SustainedDriftRecomputesAfterPatience)
{
    const TaskChain chain = make_chain(4);
    ControlConfig control;
    control.drift_threshold = 0.25;
    control.drift_patience = 3;
    Controller controller{chain, Resources{2, 2}, control};

    std::vector<double> big, little;
    for (int i = 1; i <= chain.size(); ++i) {
        // Task 2 drifted far beyond the threshold; the rest are stable.
        const double factor = i == 2 ? 2.0 : 1.0;
        big.push_back(chain.weight(i, CoreType::big) * factor);
        little.push_back(chain.weight(i, CoreType::little) * factor);
    }

    EXPECT_FALSE(controller.observe(profile_window(big, little)).has_value());
    EXPECT_EQ(controller.drift_streak(), 1);
    EXPECT_FALSE(controller.observe(profile_window(big, little)).has_value());
    EXPECT_EQ(controller.drift_streak(), 2);
    const auto recomputed = controller.observe(profile_window(big, little));
    ASSERT_TRUE(recomputed.has_value()) << "third consecutive drifted report";
    EXPECT_EQ(controller.drift_streak(), 0) << "streak resets after the recompute";
    EXPECT_DOUBLE_EQ(controller.chain().weight(2, CoreType::big), big[1])
        << "the chain now carries the observed weights";
    expect_feasible(*recomputed, controller.chain(), controller.budget());
}

// Regression: observe() used to OVERWRITE the remembered
// means with the latest window's, so a rebuild after N drifted windows
// reflected only whichever window arrived last. The rebuilt chain must
// carry the average across the whole streak.
TEST(Rescheduler, DriftRebuildAveragesTheWholeStreak)
{
    const TaskChain chain = make_chain(4);
    ControlConfig control;
    control.drift_threshold = 0.25;
    control.drift_patience = 2;
    Controller controller{chain, Resources{2, 2}, control};

    const auto window = [&](double factor) {
        std::vector<double> big, little;
        for (int i = 1; i <= chain.size(); ++i) {
            big.push_back(chain.weight(i, CoreType::big) * factor);
            little.push_back(chain.weight(i, CoreType::little) * factor);
        }
        return controller.observe(profile_window(big, little));
    };

    EXPECT_FALSE(window(2.0).has_value());
    const auto recomputed = window(3.0);
    ASSERT_TRUE(recomputed.has_value()) << "patience=2 windows reached";

    // Streak average (2.0 + 3.0) / 2 = 2.5x -- not the last window's 3.0x.
    for (int i = 1; i <= chain.size(); ++i) {
        EXPECT_NEAR(controller.chain().weight(i, CoreType::big),
                    chain.weight(i, CoreType::big) * 2.5, 1e-9)
            << "task " << i;
        EXPECT_NEAR(controller.chain().weight(i, CoreType::little),
                    chain.weight(i, CoreType::little) * 2.5, 1e-9)
            << "task " << i;
    }
    expect_feasible(*recomputed, controller.chain(), controller.budget());
}

// Regression companion: a stable window resets the streak AND discards the
// accumulated means, so a later rebuild only averages its own streak.
TEST(Rescheduler, StreakResetDiscardsStaleDriftMeans)
{
    const TaskChain chain = make_chain(4);
    ControlConfig control;
    control.drift_threshold = 0.25;
    control.drift_patience = 2;
    Controller controller{chain, Resources{2, 2}, control};

    const auto window = [&](double factor) {
        std::vector<double> big, little;
        for (int i = 1; i <= chain.size(); ++i) {
            big.push_back(chain.weight(i, CoreType::big) * factor);
            little.push_back(chain.weight(i, CoreType::little) * factor);
        }
        return controller.observe(profile_window(big, little));
    };

    EXPECT_FALSE(window(5.0).has_value()); // drifted: streak 1
    EXPECT_FALSE(window(1.0).has_value()); // stable: streak (and sums) reset
    EXPECT_EQ(controller.drift_streak(), 0);
    EXPECT_FALSE(window(4.0).has_value()); // new streak
    const auto recomputed = window(4.0);
    ASSERT_TRUE(recomputed.has_value());

    // Exactly 4.0x: the abandoned 5.0x window must not leak into the
    // average (stale sums would give (5 + 4 + 4) / 2 = 6.5x).
    for (int i = 1; i <= chain.size(); ++i)
        EXPECT_NEAR(controller.chain().weight(i, CoreType::big),
                    chain.weight(i, CoreType::big) * 4.0, 1e-9)
            << "task " << i;
}

// Live-telemetry path: the same detector fed real histogram snapshots (as
// the pipeline's obs sink produces them) instead of profiler averages.
// Drift triggers on p95, so a latency TAIL alone -- stable mean -- must
// trip it, and the rebuilt chain must carry the observed means.
TEST(Rescheduler, HistogramSnapshotsDriveDriftDetection)
{
    const TaskChain chain = make_chain(3);
    ControlConfig control;
    control.drift_threshold = 0.25;
    control.drift_patience = 2;
    Controller controller{chain, Resources{2, 2}, control};

    const auto window = [&](double tail_factor) {
        std::vector<amp::obs::HistogramSnapshot> big, little;
        for (int i = 1; i <= chain.size(); ++i) {
            amp::obs::Histogram h_big, h_little;
            for (int sample = 0; sample < 100; ++sample) {
                // Task 2's tail: every 10th sample blows past the weight;
                // the other tasks (and all means) stay near schedule.
                const double factor =
                    (i == 2 && sample % 10 == 0) ? tail_factor : 1.0;
                h_big.record_us(chain.weight(i, CoreType::big) * factor);
                h_little.record_us(chain.weight(i, CoreType::little) * factor);
            }
            big.push_back(h_big.snapshot());
            little.push_back(h_little.snapshot());
        }
        return controller.observe(TelemetrySnapshot{.big_us = big, .little_us = little});
    };

    // Tail below threshold: p95 ~ scheduled weight, no drift accumulates.
    EXPECT_FALSE(window(1.05).has_value());
    EXPECT_EQ(controller.drift_streak(), 0);

    // 10% of samples at 3x puts p95 at ~3x the weight: drifted.
    EXPECT_FALSE(window(3.0).has_value());
    EXPECT_EQ(controller.drift_streak(), 1);
    const auto recomputed = window(3.0);
    ASSERT_TRUE(recomputed.has_value()) << "patience=2 windows reached";
    EXPECT_EQ(controller.drift_streak(), 0);

    // The rebuilt chain carries the window's MEAN (90 x 1.0 + 10 x 3.0
    // samples = 1.2x the old weight), not the tail value.
    const double expected = chain.weight(2, CoreType::big) * 1.2;
    EXPECT_NEAR(controller.chain().weight(2, CoreType::big), expected, 1e-6);
    expect_feasible(*recomputed, controller.chain(), controller.budget());
}

TEST(Rescheduler, EmptySnapshotsKeepScheduledWeights)
{
    const TaskChain chain = make_chain(3);
    ControlConfig control;
    control.drift_patience = 1;
    Controller controller{chain, Resources{2, 2}, control};

    // Only task 2 reports (2x drifted); the rest ran on no core this
    // window. Silence is not drift, and silent tasks keep their weights.
    std::vector<amp::obs::HistogramSnapshot> big(3), little(3);
    amp::obs::Histogram h;
    h.record_us(chain.weight(2, CoreType::big) * 2.0);
    big[1] = h.snapshot();

    const auto recomputed = controller.observe(TelemetrySnapshot{.big_us = big, .little_us = little});
    ASSERT_TRUE(recomputed.has_value());
    EXPECT_DOUBLE_EQ(controller.chain().weight(2, CoreType::big),
                     chain.weight(2, CoreType::big) * 2.0);
    EXPECT_DOUBLE_EQ(controller.chain().weight(1, CoreType::big),
                     chain.weight(1, CoreType::big));
    EXPECT_DOUBLE_EQ(controller.chain().weight(3, CoreType::little),
                     chain.weight(3, CoreType::little));
}


// -- fault-tolerant end-to-end runs ---------------------------------------

struct Frame {
    std::uint64_t seq = 0;
    int value = 0;
};

/// Runtime twin of make_chain: task 1 stateful, the rest stateless. Each
/// stateless task sleeps `work` per frame, which keeps every replica of a
/// replicated stage drawing frames: with trivial tasks one replica can
/// take the whole stream, and a fault aimed at another never fires.
TaskSequence<Frame> make_runtime_sequence(int n, microseconds work = {})
{
    TaskSequence<Frame> seq;
    for (int i = 1; i <= n; ++i)
        seq.push_back(make_task<Frame>("t" + std::to_string(i), i == 1, [i, work](Frame& f) {
            if (i != 1 && work.count() > 0)
                std::this_thread::sleep_for(work);
            f.value += i;
        }));
    return seq;
}

TEST(RunWithRecovery, HealthyRunCompletesWithoutRecoveries)
{
    constexpr int kTasks = 4;
    const TaskChain chain = make_chain(kTasks);
    auto seq = make_runtime_sequence(kTasks);
    Controller controller{chain, Resources{3, 1}};
    const RecoveryReport report = run_with_recovery<Frame>(seq, controller, 50);
    EXPECT_TRUE(report.completed);
    EXPECT_EQ(report.recoveries, 0);
    EXPECT_EQ(report.total.frames, 50u);
    EXPECT_EQ(report.total.frames_dropped, 0u);
    EXPECT_EQ(report.solutions.size(), 1u);
}

// Acceptance (b): a permanent worker kill triggers rescheduling onto the
// remaining cores and the pipeline resumes with a valid (period-feasible)
// solution, completing the stream.
TEST(RunWithRecovery, WorkerKillReschedulesAndCompletesTheStream)
{
    constexpr int kTasks = 4;
    constexpr std::uint64_t kFrames = 100;
    const TaskChain chain = make_chain(kTasks); // task 1 sequential
    auto seq = make_runtime_sequence(kTasks);

    Controller controller{chain, Resources{3, 1}};
    const Resources initial_budget = controller.budget();

    // Task 1 is sequential, so stage 0 runs it alone on one worker: killing
    // worker 0 leaves the stage dead and forces a graceful drain + recovery.
    FaultInjector injector;
    injector.add(FaultSpec{FaultKind::kill, 20, 0, 0, 1, milliseconds{0}});

    PipelineConfig config;
    config.faults = &injector;
    config.heartbeat_timeout = milliseconds{100};

    std::vector<std::uint64_t> delivered;
    const RecoveryReport report = run_with_recovery<Frame>(
        seq, controller, kFrames, config, [&](Frame& f) { delivered.push_back(f.seq); });

    EXPECT_TRUE(report.completed) << "the stream must resume and reach the end";
    EXPECT_EQ(report.recoveries, 1);
    ASSERT_EQ(report.total.losses.size(), 1u);
    EXPECT_EQ(report.total.losses[0].worker, 0);
    EXPECT_GE(report.total.failure_seconds, 0.0);
    EXPECT_GT(report.recovery_latency_seconds, 0.0);

    // The budget shrank by exactly the lost core's type.
    Resources expected = initial_budget;
    expected.count(report.total.losses[0].type) -= 1;
    EXPECT_EQ(controller.budget(), expected);

    // The resumed schedule is valid and period-feasible on what remains.
    ASSERT_EQ(report.solutions.size(), 2u);
    expect_feasible(report.solutions[1], chain, expected);

    // Stream accounting: every position delivered or tombstoned, in order.
    EXPECT_EQ(report.total.frames + report.total.frames_dropped, kFrames);
    EXPECT_GE(report.total.frames_dropped, 1u);
    EXPECT_EQ(report.total.stream_end, kFrames);
    ASSERT_EQ(delivered.size(), report.total.frames);
    for (std::size_t i = 1; i < delivered.size(); ++i)
        EXPECT_LT(delivered[i - 1], delivered[i]) << "stream order across the hot-swap";
}

// Regression: losing several cores in one run used to trigger one full
// recompute PER fenced core, transiently adopting intermediate solutions. The degraded path must shrink for every loss
// first and then solve exactly once -- pinned through the solver-service
// counters of an injected private service.
TEST(RunWithRecovery, MultiCoreLossSolvesExactlyOneBatch)
{
    constexpr std::uint64_t kFrames = 120;
    // t1 stateful and big-bound, t2..t5 replicable littles: on R = (1, 3)
    // the optimum is [t1]x1B | [t2-t5]x3L, so stage 1 holds worker ids
    // 1..3 and survives two of them dying (no drain, one single run).
    std::vector<TaskDesc> tasks;
    tasks.push_back(TaskDesc{"t1", 100.0, 120.0, false});
    const double littles[] = {75.0, 75.0, 75.0, 76.0};
    for (int i = 2; i <= 5; ++i)
        tasks.push_back(TaskDesc{"t" + std::to_string(i), 60.0, littles[i - 2], true});
    const TaskChain chain{std::move(tasks)};

    amp::svc::SolverService service{amp::svc::ServiceConfig{}}; // private metrics
    ControlConfig control;
    control.service = &service;
    Controller controller{chain, Resources{1, 3}, control};

    auto seq = make_runtime_sequence(5, microseconds{50});
    FaultInjector injector;
    injector.add(FaultSpec{FaultKind::kill, 20, 0, 1, 1, milliseconds{0}});
    injector.add(FaultSpec{FaultKind::kill, 24, 0, 2, 1, milliseconds{0}});

    PipelineConfig config;
    config.faults = &injector;
    config.heartbeat_timeout = milliseconds{50};

    // A swap budget of zero makes the in-flight loss handler decline every
    // loss untouched, which pins the post-run accounting.
    const RecoveryReport report =
        run_with_recovery<Frame>(seq, controller, kFrames, config, {}, /*max_recoveries=*/0);

    EXPECT_TRUE(report.completed);
    ASSERT_EQ(report.total.losses.size(), 2u);
    EXPECT_EQ(controller.budget(), (Resources{1, 1}))
        << "both lost littles accounted before the solve";
    expect_feasible(controller.solution(), chain, Resources{1, 1});

    const auto snapshot = service.metrics().snapshot();
    const auto count = [&](const std::string& name) -> std::uint64_t {
        const auto it = snapshot.counters.find(name);
        return it == snapshot.counters.end() ? 0u : it->second;
    };
    EXPECT_EQ(count("amp_svc_cache_misses{strategy=\"herad\"}")
                  + count("amp_svc_cache_hits{strategy=\"herad\"}"),
              2u)
        << "one solve for the initial solution and ONE for the double "
           "loss -- not one per fenced core";
}

// The worked case of docs/FAULT_MODEL.md section 5: on R = (1, 3) the
// plan is [t1]x1B | [t2-t5]x3L, one little worker dies, and the optimum on
// R = (1, 2) is a recut, so the loss handler declines it and the stream
// ends on the two surviving littles. The run still re-solves exactly once
// while another client floods the same service with batches -- a recovery
// re-solve is one SolverService::solve and never waits behind them.
TEST(RunWithRecovery, DeclinedLossUnderServiceLoadSolvesExactlyOnce)
{
    constexpr std::uint64_t kFrames = 120;
    std::vector<TaskDesc> tasks;
    tasks.push_back(TaskDesc{"t1", 100.0, 120.0, false});
    const double littles[] = {75.0, 75.0, 75.0, 76.0};
    for (int i = 2; i <= 5; ++i)
        tasks.push_back(TaskDesc{"t" + std::to_string(i), 60.0, littles[i - 2], true});
    const TaskChain chain{std::move(tasks)};

    amp::svc::SolverService service{amp::svc::ServiceConfig{}}; // private metrics
    ControlConfig control;
    control.service = &service;
    Controller controller{chain, Resources{1, 3}, control};

    // Junk tenant: floods the same service with batches of a strategy the
    // controller never solves (twocatac), so the herad counters below stay
    // attributable to recovery alone. Distinct chains defeat the cache --
    // every junk request is real solver work.
    std::atomic<bool> quit{false};
    std::thread junk{[&] {
        std::uint64_t round = 0;
        while (!quit.load(std::memory_order_acquire)) {
            std::vector<amp::core::ScheduleRequest> requests;
            for (int i = 0; i < 8; ++i) {
                const double jitter = static_cast<double>(round * 8 + i % 8) * 0.125;
                std::vector<TaskDesc> junk_tasks;
                for (int t = 1; t <= 6; ++t)
                    junk_tasks.push_back(TaskDesc{"j" + std::to_string(t),
                                                  10.0 + jitter + t, 20.0 + jitter + t,
                                                  t != 1});
                requests.push_back(amp::core::ScheduleRequest{
                    TaskChain{std::move(junk_tasks)}, Resources{2, 2},
                    amp::core::Strategy::twocatac});
            }
            (void)service.solve_batch(requests);
            ++round;
        }
    }};

    auto seq = make_runtime_sequence(5, microseconds{50});
    FaultInjector injector;
    injector.add(FaultSpec{FaultKind::kill, 20, 0, 1, 1, milliseconds{0}});

    PipelineConfig config;
    config.faults = &injector;
    config.heartbeat_timeout = milliseconds{50};

    const RecoveryReport report =
        run_with_recovery<Frame>(seq, controller, kFrames, config, {});
    quit.store(true, std::memory_order_release);
    junk.join();

    EXPECT_TRUE(report.completed);
    ASSERT_EQ(report.total.losses.size(), 1u);
    EXPECT_EQ(controller.budget(), (Resources{1, 2}));
    expect_feasible(controller.solution(), chain, Resources{1, 2});
    EXPECT_EQ(report.total.stream_end, kFrames) << "every frame delivered or tombstoned";

    const auto snapshot = service.metrics().snapshot();
    const auto count = [&](const std::string& name) -> std::uint64_t {
        const auto it = snapshot.counters.find(name);
        return it == snapshot.counters.end() ? 0u : it->second;
    };
    EXPECT_EQ(count("amp_svc_cache_misses{strategy=\"herad\"}")
                  + count("amp_svc_cache_hits{strategy=\"herad\"}"),
              2u)
        << "initial solve + exactly one recovery re-solve, with the service "
           "loaded by the junk tenant";
}

} // namespace
