// rt::Controller bound to a live pipeline through rt::PipelineControl.
//
// Autoscaler.*: load steps landing grow and shrink as frame-granular
// in-flight swaps (zero dropped frames), clamps and declined swaps, the
// monitor-hook sampler, and a TSan stress run racing load steps against an
// independent swapper, the watchdog and segment teardown. The suite keeps
// the name of the class these load steps replaced.
//
// Controller.*: one budget for every event -- a fence shrinks the budget
// the next grow starts from, an arbiter grant sets the budget a load step
// starts from, on_resize pushes from the watchdog race rearbitration
// without a lock-order deadlock, a throwing on_resize ends the run, and a
// DAG plan cannot be bound.

#include "arb/arbiter.hpp"
#include "plan/execution_plan.hpp"
#include "plan/graph_shape.hpp"
#include "rt/controller.hpp"
#include "rt/fault.hpp"
#include "rt/pipeline.hpp"
#include "svc/solver_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace amp;
using core::CoreType;
using core::Resources;
using core::Stage;
using core::TaskChain;
using core::TaskDesc;
using rt::ScaleDecision;
using std::chrono::microseconds;
using std::chrono::milliseconds;

struct Frame {
    std::uint64_t seq = 0;
    int value = 0;
};

/// Task 1 stateful, the rest stateless. `sleep_us` is slept by task 1, or
/// by every task when `every_task` (the kill tests: every replica of a
/// replicated stage keeps drawing frames, so a fault aimed at one fires).
rt::TaskSequence<Frame> make_sequence(int n, int sleep_us = 0, bool every_task = false)
{
    rt::TaskSequence<Frame> seq;
    for (int i = 1; i <= n; ++i)
        seq.push_back(rt::make_task<Frame>("t" + std::to_string(i), i == 1,
                                           [i, sleep_us, every_task](Frame& f) {
                                               if (sleep_us > 0 && (i == 1 || every_task))
                                                   std::this_thread::sleep_for(
                                                       microseconds{sleep_us});
                                               f.value += i;
                                           }));
    return seq;
}

/// All-little chain whose HeRAD optimum keeps one cut across every pool in
/// [(0,2), (0,4)]: [t1]x1L | [t2-t5]x(littles-1)L. Every autoscale delta is
/// therefore resize-only by construction (tests/plan/frame_swap_test.cpp
/// pins the same structure).
TaskChain resize_only_chain()
{
    std::vector<TaskDesc> tasks;
    tasks.push_back(TaskDesc{"t1", 100.0, 90.0, false});
    const double littles[] = {75.0, 75.0, 75.0, 76.0};
    for (int i = 2; i <= 5; ++i)
        tasks.push_back(TaskDesc{"t" + std::to_string(i), 60.0, littles[i - 2], true});
    return TaskChain{std::move(tasks)};
}

rt::AutoscalePolicy live_policy()
{
    rt::AutoscalePolicy policy;
    policy.grow_above = 0.85;
    policy.shrink_below = 0.40;
    policy.patience = 2;
    policy.cooldown_ns = 0; // tests drive virtual timestamps explicitly
    policy.min_pool = {0, 2};
    policy.max_pool = {0, 4};
    policy.grow_first = CoreType::little;
    return policy;
}

svc::PlannedSchedule plan_for(svc::SolverService& service, const TaskChain& chain,
                              Resources pool)
{
    const svc::PlannedSchedule planned =
        service.solve_planned(core::ScheduleRequest{chain, pool, core::Strategy::herad});
    EXPECT_TRUE(planned.ok());
    return planned;
}

/// The decision a load step actually landed: hold when the band held, a
/// clamp absorbed it, the target was infeasible or the pipeline declined.
ScaleDecision landed(const rt::ControlRecord& step)
{
    return step.after != step.before ? step.decision : ScaleDecision::hold;
}

/// What a series of load steps did, counted from their records.
struct Tally {
    std::uint64_t samples = 0;
    std::uint64_t grows = 0;
    std::uint64_t shrinks = 0;
    std::uint64_t frame_swaps = 0;  ///< landed as SwapOutcome::frame
    std::uint64_t noop_resizes = 0; ///< budget adopted, plan unchanged
    std::uint64_t warm_solves = 0;
    std::uint64_t clamped = 0;      ///< decisions absorbed by min/max clamps
    std::uint64_t declined = 0;     ///< land steps that reported rebuild_required
};

Tally tally(const std::vector<rt::ControlRecord>& steps)
{
    Tally out;
    for (const rt::ControlRecord& step : steps) {
        ++out.samples;
        out.warm_solves += step.warm ? 1 : 0;
        if (step.decision != ScaleDecision::hold && step.result == rt::StepResult::held)
            ++out.clamped;
        if (step.after == step.before) {
            out.declined += step.swap == plan::SwapOutcome::rebuild_required ? 1 : 0;
            continue;
        }
        ++(step.decision == ScaleDecision::grow ? out.grows : out.shrinks);
        out.frame_swaps += step.swap == plan::SwapOutcome::frame ? 1 : 0;
        out.noop_resizes += step.swap == plan::SwapOutcome::none ? 1 : 0;
    }
    return out;
}

TEST(Autoscaler, FeedLandsGrowAndShrinkAsInFlightFrameSwaps)
{
    constexpr std::uint64_t kFrames = 400;
    const TaskChain chain = resize_only_chain();
    auto seq = make_sequence(5, /*sleep_us=*/150);
    svc::SolverService service{svc::ServiceConfig{}};

    rt::Pipeline<Frame> pipeline{seq, *plan_for(service, chain, {0, 3}).plan,
                                 rt::PipelineConfig{}};

    rt::ControlConfig config;
    config.policy = live_policy();
    config.service = &service;
    std::vector<Resources> resizes;
    config.on_resize = [&](Resources pool) { resizes.push_back(pool); };
    rt::Controller controller{chain, {0, 3}, config};
    rt::PipelineControl<Frame> binding{controller, pipeline};
    std::vector<rt::ControlRecord> steps;
    const auto feed = [&](double utilization, std::int64_t now_ns) {
        steps.push_back(controller.load(utilization, now_ns));
        return landed(steps.back());
    };

    // Load steps issued from the output thread land while the segment runs.
    std::vector<std::uint64_t> delivered;
    const rt::RunResult result = pipeline.run(kFrames, [&](Frame& f) {
        EXPECT_EQ(f.value, 1 + 2 + 3 + 4 + 5);
        delivered.push_back(f.seq);
        if (f.seq == 100) {
            // Two hot windows: patience reached, grow (0,3) -> (0,4) lands live.
            EXPECT_EQ(feed(1.5, 1), ScaleDecision::hold);
            EXPECT_EQ(feed(1.5, 2), ScaleDecision::grow);
            EXPECT_EQ(controller.budget(), (Resources{0, 4}));
            EXPECT_EQ(pipeline.live_workers(), 4);
        }
        if (f.seq == 200) {
            // Two idle windows: shrink back to (0,3).
            EXPECT_EQ(feed(0.1, 3), ScaleDecision::hold);
            EXPECT_EQ(feed(0.1, 4), ScaleDecision::shrink);
            EXPECT_EQ(controller.budget(), (Resources{0, 3}));
        }
    });

    EXPECT_EQ(result.frames, kFrames);
    EXPECT_EQ(result.frames_dropped, 0u) << "autoscale swaps must never drop frames";
    ASSERT_EQ(delivered.size(), kFrames);
    for (std::size_t i = 0; i < delivered.size(); ++i)
        EXPECT_EQ(delivered[i], i);

    const Tally stats = tally(steps);
    EXPECT_EQ(stats.samples, 4u);
    EXPECT_EQ(controller.samples(), 4u);
    EXPECT_EQ(stats.grows, 1u);
    EXPECT_EQ(stats.shrinks, 1u);
    EXPECT_EQ(stats.frame_swaps, 2u);
    EXPECT_EQ(stats.noop_resizes, 0u) << "both plans differ, so neither resize was a noop";
    EXPECT_GE(stats.warm_solves, 1u) << "re-solves ride the retained frontier";
    ASSERT_EQ(resizes.size(), 2u);
    EXPECT_EQ(resizes[0], (Resources{0, 4}));
    EXPECT_EQ(resizes[1], (Resources{0, 3}));
}

TEST(Autoscaler, ClampsAndDeclinedSwapsHoldThePool)
{
    const TaskChain chain = resize_only_chain();
    auto seq = make_sequence(5);
    svc::SolverService service{svc::ServiceConfig{}};
    rt::Pipeline<Frame> pipeline{seq, *plan_for(service, chain, {0, 4}).plan,
                                 rt::PipelineConfig{}};

    rt::ControlConfig config;
    config.policy = live_policy();
    config.service = &service;
    rt::Controller controller{chain, {0, 4}, config};
    rt::PipelineControl<Frame> binding{controller, pipeline};

    // Already at max_pool: the grow decision is absorbed by the clamp.
    std::vector<rt::ControlRecord> steps;
    steps.push_back(controller.load(2.0, 1));
    EXPECT_EQ(landed(steps.back()), ScaleDecision::hold);
    steps.push_back(controller.load(2.0, 2));
    EXPECT_EQ(landed(steps.back()), ScaleDecision::hold);
    EXPECT_EQ(controller.budget(), (Resources{0, 4}));
    EXPECT_EQ(tally(steps).clamped, 1u);

    // A pipeline cut unlike any re-solve: the shrink's retarget is a recut,
    // so the pipeline declines it (counted, no mutation) and the pool holds.
    auto recut_seq = make_sequence(5);
    rt::Pipeline<Frame> recut{
        recut_seq,
        plan::ExecutionPlan::compile(chain, core::Solution{std::vector<Stage>{
                                                {1, 2, 1, CoreType::little},
                                                {3, 5, 3, CoreType::little}}}),
        rt::PipelineConfig{}};
    const auto recut_plan = recut.execution_plan();
    rt::Controller declined{chain, {0, 4}, config};
    rt::PipelineControl<Frame> declined_binding{declined, recut};
    std::vector<rt::ControlRecord> declined_steps;
    declined_steps.push_back(declined.load(0.1, 1));
    EXPECT_EQ(landed(declined_steps.back()), ScaleDecision::hold);
    declined_steps.push_back(declined.load(0.1, 2));
    EXPECT_EQ(landed(declined_steps.back()), ScaleDecision::hold);
    EXPECT_EQ(declined.budget(), (Resources{0, 4}));
    EXPECT_EQ(tally(declined_steps).declined, 1u);
    EXPECT_EQ(recut.execution_plan(), recut_plan);

    // On the parked pipeline the resize-only shrink lands in place before
    // the next segment: a frame swap.
    rt::Controller parked{chain, {0, 4}, config};
    rt::PipelineControl<Frame> parked_binding{parked, pipeline};
    std::vector<rt::ControlRecord> parked_steps;
    parked_steps.push_back(parked.load(0.1, 1));
    EXPECT_EQ(landed(parked_steps.back()), ScaleDecision::hold);
    parked_steps.push_back(parked.load(0.1, 2));
    EXPECT_EQ(landed(parked_steps.back()), ScaleDecision::shrink);
    EXPECT_EQ(parked.budget(), (Resources{0, 3}));
    EXPECT_EQ(tally(parked_steps).frame_swaps, 1u);
    EXPECT_EQ(pipeline.execution_plan()->worker_count(), 3);
}

TEST(Autoscaler, MonitorHookSamplesUtilizationFromTheWatchdog)
{
    constexpr std::uint64_t kFrames = 200;
    const TaskChain chain = resize_only_chain();
    auto seq = make_sequence(5, /*sleep_us=*/100);
    svc::SolverService service{svc::ServiceConfig{}};

    // A default config: the installed hook alone starts the watchdog's
    // monitor pass.
    rt::Pipeline<Frame> pipeline{seq, *plan_for(service, chain, {0, 3}).plan,
                                 rt::PipelineConfig{}};

    rt::ControlConfig config;
    config.policy = live_policy();
    // A generous patience keeps the wall-clock-driven sampler from actually
    // resizing: this test pins only the sampling wire-up.
    config.policy.patience = 1'000'000;
    config.service = &service;
    rt::Controller controller{chain, {0, 3}, config};
    rt::PipelineControl<Frame> binding{controller, pipeline};
    binding.attach();

    const rt::RunResult result = pipeline.run(kFrames, [](Frame&) {});
    binding.detach();

    EXPECT_EQ(result.frames, kFrames);
    EXPECT_GT(controller.samples(), 0u) << "the overload monitor must feed utilization windows";
    EXPECT_EQ(controller.budget(), (Resources{0, 3}));
}

// TSan stress: load steps from a feeder thread racing an independent
// in-flight swapper (the shape of a concurrent recovery swap), the stream's
// workers and segment teardown. Ordered delivery and a zero drop count
// prove the swap serialization holds under contention.
TEST(Autoscaler, StressSurvivesRacingSwapsAndTeardown)
{
    constexpr std::uint64_t kFrames = 1200;
    const TaskChain chain = resize_only_chain();
    auto seq = make_sequence(5, /*sleep_us=*/50);
    svc::SolverService service{svc::ServiceConfig{}};

    rt::Pipeline<Frame> pipeline{seq, *plan_for(service, chain, {0, 3}).plan,
                                 rt::PipelineConfig{}};

    rt::ControlConfig config;
    config.policy = live_policy();
    config.policy.patience = 1;
    config.service = &service;
    rt::Controller controller{chain, {0, 3}, config};
    rt::PipelineControl<Frame> binding{controller, pipeline};

    std::atomic<bool> done{false};
    std::thread feeder{[&] {
        std::int64_t tick = 1;
        bool hot = true;
        while (!done.load()) {
            // Alternate saturated and idle windows: every step decides.
            (void)controller.load(hot ? 2.0 : 0.05, tick++);
            hot = !hot;
            std::this_thread::sleep_for(milliseconds{2});
        }
    }};
    std::thread swapper{[&] {
        // A second actor (recovery-shaped) swapping the SAME pipeline:
        // resize stage 1 between 2 and 3 replicas underneath the controller.
        const svc::PlannedSchedule small = plan_for(service, chain, {0, 3});
        const svc::PlannedSchedule big = plan_for(service, chain, {0, 4});
        bool use_big = true;
        while (!done.load()) {
            (void)pipeline.retarget(use_big ? *big.plan : *small.plan);
            use_big = !use_big;
            std::this_thread::sleep_for(milliseconds{3});
        }
    }};

    std::vector<std::uint64_t> delivered;
    const rt::RunResult result = pipeline.run(kFrames, [&](Frame& f) {
        delivered.push_back(f.seq);
    });
    done.store(true);
    feeder.join();
    swapper.join();

    EXPECT_EQ(result.frames, kFrames);
    EXPECT_EQ(result.frames_dropped, 0u);
    ASSERT_EQ(delivered.size(), kFrames);
    for (std::size_t i = 0; i < delivered.size(); ++i)
        EXPECT_EQ(delivered[i], i);
    EXPECT_GT(controller.samples(), 0u);
}

// -- one budget for every event ---------------------------------------------

/// The resize-only chain's two tenants on a (0, 6) little pool, 1:1.
struct TwoTenants {
    svc::SolverService service{svc::ServiceConfig{}};
    arb::Arbiter arbiter;
    arb::TenantId live = 0;

    static arb::ArbiterConfig config(svc::SolverService& service)
    {
        arb::ArbiterConfig config;
        config.pool = {0, 6};
        config.service = &service;
        return config;
    }

    TwoTenants()
        : arbiter{config(service)}
    {
        arb::TenantSpec spec;
        spec.name = "live";
        spec.chain = resize_only_chain();
        live = arbiter.add_tenant(spec);
        spec.name = "rival";
        (void)arbiter.add_tenant(spec);
        (void)arbiter.rearbitrate();
    }
};

// A fence is a loss step of the same controller that takes load steps, so
// the grow after it starts from the reduced budget: (0, 2) -> (0, 3) with
// 3 live workers. A grow that still counted the fenced core would land
// (0, 4), refill the fenced slot (4 live workers) and report (0, 4).
TEST(Controller, FencedWorkerShrinksTheBudgetTheNextGrowStartsFrom)
{
    constexpr std::uint64_t kFrames = 300;
    const TaskChain chain = resize_only_chain();
    auto seq = make_sequence(5, /*sleep_us=*/150, /*every_task=*/true);
    svc::SolverService service{svc::ServiceConfig{}};
    const svc::PlannedSchedule initial = plan_for(service, chain, {0, 3});
    ASSERT_EQ(initial.plan->stage_count(), 2u);
    ASSERT_EQ(initial.plan->stage(1).replicas, 2) << "[t1]x1L | [t2-t5]x2L: workers 1 and 2";

    rt::FaultInjector injector;
    injector.add(rt::FaultSpec{rt::FaultKind::kill, 40, 0, 2, 1, milliseconds{0}});
    rt::PipelineConfig pipeline_config;
    pipeline_config.faults = &injector;
    pipeline_config.heartbeat_timeout = milliseconds{50};
    rt::Pipeline<Frame> pipeline{seq, *initial.plan, pipeline_config};

    std::mutex resize_mutex;
    std::vector<Resources> resizes;
    const auto resized = [&] {
        std::lock_guard lock{resize_mutex};
        return resizes;
    };
    rt::ControlConfig config;
    config.policy = live_policy();
    config.service = &service;
    config.on_resize = [&](Resources pool) {
        std::lock_guard lock{resize_mutex};
        resizes.push_back(pool);
    };
    rt::Controller controller{chain, {0, 3}, config};
    rt::PipelineControl<Frame> binding{controller, pipeline};

    Resources fenced_budget{};
    Resources grown_budget{};
    int live_after_grow = 0;
    bool grew = false;
    const rt::RunResult result = pipeline.run(kFrames, [&](Frame& f) {
        if (grew || f.seq < 100)
            return;
        // The kill fires at frame 40 or later and is fenced one heartbeat
        // timeout after; wait (bounded) for its loss step to report.
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{10};
        while (resized().empty() && std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(milliseconds{1});
        fenced_budget = controller.budget();
        (void)controller.load(1.5, 1);
        (void)controller.load(1.5, 2); // patience reached: grow
        grown_budget = controller.budget();
        live_after_grow = pipeline.live_workers();
        grew = true;
    });

    ASSERT_TRUE(grew);
    ASSERT_EQ(result.losses.size(), 1u);
    EXPECT_EQ(result.losses[0].worker, 2);
    EXPECT_EQ(fenced_budget, (Resources{0, 2})) << "the fence is a loss step";
    EXPECT_EQ(grown_budget, (Resources{0, 3})) << "the grow starts from the fenced budget";
    EXPECT_EQ(live_after_grow, 3) << "one spawn for the grow, no refill on top";
    EXPECT_EQ(resized(), (std::vector<Resources>{{0, 2}, {0, 3}}));
    EXPECT_EQ(result.frames + result.frames_dropped, kFrames);
}

// A rearbitration lands through grant: the controller adopts the arbiter's
// budget and plan (no on_resize: the arbiter made the decision), and the
// next load step starts from that budget.
TEST(Controller, ArbiterGrantSetsTheBudgetTheNextLoadStepStartsFrom)
{
    TwoTenants tenants;
    arb::Arbiter& arbiter = tenants.arbiter;
    const arb::TenantStatus start = arbiter.status(tenants.live);
    const TaskChain chain = resize_only_chain();
    auto seq = make_sequence(5);
    rt::Pipeline<Frame> pipeline{seq, *start.planned.plan, rt::PipelineConfig{}};

    rt::ControlConfig config;
    config.policy = live_policy();
    config.policy.max_pool = {0, 6};
    config.service = &tenants.service;
    std::vector<Resources> resizes;
    config.on_resize = [&](Resources pool) { resizes.push_back(pool); };
    rt::Controller controller{chain, start.budget, config};
    rt::PipelineControl<Frame> binding{controller, pipeline};
    arbiter.bind_endpoint(tenants.live, &binding);

    arbiter.set_weight(tenants.live, 3.0);
    (void)arbiter.rearbitrate();
    const Resources granted = arbiter.status(tenants.live).budget;
    EXPECT_GT(granted.total(), start.budget.total()) << "the reweight must grow the tenant";
    EXPECT_EQ(controller.budget(), granted);
    EXPECT_TRUE(resizes.empty()) << "grant calls no on_resize";

    EXPECT_EQ(landed(controller.load(0.1, 1)), ScaleDecision::hold);
    EXPECT_EQ(landed(controller.load(0.1, 2)), ScaleDecision::shrink);
    const Resources shrunk{granted.big, granted.little - 1};
    EXPECT_EQ(controller.budget(), shrunk) << "the shrink starts from the granted budget";
    EXPECT_EQ(resizes, (std::vector<Resources>{shrunk}));
    arbiter.bind_endpoint(tenants.live, nullptr);
}

// Lock order: rearbitrate() holds the arbiter's lock while it calls apply
// (a grant, under the controller's lock); a load step from the watchdog
// pushes Arbiter::set_quota from on_resize. on_resize runs after the
// controller's lock is released, so the two never wait on each other.
TEST(Controller, WatchdogQuotaPushesRaceRearbitrationWithoutDeadlock)
{
    constexpr std::uint64_t kFrames = 1500;
    TwoTenants tenants;
    arb::Arbiter& arbiter = tenants.arbiter;
    const arb::TenantStatus start = arbiter.status(tenants.live);
    auto seq = make_sequence(5, /*sleep_us=*/50);
    rt::Pipeline<Frame> pipeline{seq, *start.planned.plan, rt::PipelineConfig{}};

    rt::ControlConfig config;
    config.policy = live_policy();
    config.policy.patience = 1;
    config.policy.shrink_below = 2.0; // every sample shrinks, down to min_pool
    config.policy.max_pool = {0, 6};
    config.service = &tenants.service;
    std::atomic<int> pushes{0};
    config.on_resize = [&](Resources) {
        arbiter.set_quota(tenants.live, arb::TenantQuota{});
        pushes.fetch_add(1);
    };
    rt::Controller controller{resize_only_chain(), start.budget, config};
    rt::PipelineControl<Frame> binding{controller, pipeline};
    arbiter.bind_endpoint(tenants.live, &binding);
    binding.attach();

    std::atomic<bool> done{false};
    std::atomic<int> rearbitrations{0};
    std::thread rearbiter{[&] {
        // Alternate the weight so every pass grants a new budget (a grant
        // the watchdog's next step shrinks again).
        bool heavy = true;
        while (!done.load()) {
            arbiter.set_weight(tenants.live, heavy ? 3.0 : 1.0);
            (void)arbiter.rearbitrate();
            rearbitrations.fetch_add(1);
            heavy = !heavy;
            std::this_thread::sleep_for(milliseconds{1});
        }
    }};

    const rt::RunResult result = pipeline.run(kFrames, [](Frame&) {});
    done.store(true);
    rearbiter.join();
    binding.detach();
    arbiter.bind_endpoint(tenants.live, nullptr);

    EXPECT_EQ(result.frames, kFrames);
    EXPECT_EQ(result.frames_dropped, 0u);
    EXPECT_GT(controller.samples(), 0u);
    EXPECT_GT(pushes.load(), 0);
    EXPECT_GT(rearbitrations.load(), 0);
}

// attach() runs load steps on the watchdog thread, and with them
// on_resize: its throw ends the run and run() rethrows it, as it does a
// task's.
TEST(Controller, ThrowingOnResizeEndsTheRunAndRethrows)
{
    const TaskChain chain = resize_only_chain();
    auto seq = make_sequence(5, /*sleep_us=*/50);
    svc::SolverService service{svc::ServiceConfig{}};
    rt::Pipeline<Frame> pipeline{seq, *plan_for(service, chain, {0, 4}).plan,
                                 rt::PipelineConfig{}};

    rt::ControlConfig config;
    config.policy = live_policy();
    config.policy.patience = 1;
    config.policy.shrink_below = 2.0; // the first sample shrinks (0, 4) -> (0, 3)
    config.service = &service;
    int resizes = 0; // written by the watchdog, read after run()
    config.on_resize = [&](Resources) {
        ++resizes;
        throw std::invalid_argument{"on_resize"};
    };
    rt::Controller controller{chain, {0, 4}, config};
    rt::PipelineControl<Frame> binding{controller, pipeline};
    binding.attach();

    // The stream outlasts the first monitor pass by far: only the throw
    // ends it.
    EXPECT_THROW((void)pipeline.run(100'000, [](Frame&) {}), std::invalid_argument);
    binding.detach();
    EXPECT_EQ(resizes, 1);
    EXPECT_EQ(controller.budget(), (Resources{0, 3})) << "the step adopted its budget first";
}

TEST(Controller, BindingADagPlanThrows)
{
    // src(1) -> {a(2..3) replicable, b(4)} -> sink(5).
    std::vector<TaskDesc> tasks;
    tasks.push_back(TaskDesc{"src", 10.0, 20.0, false});
    tasks.push_back(TaskDesc{"a1", 40.0, 80.0, true});
    tasks.push_back(TaskDesc{"a2", 40.0, 80.0, true});
    tasks.push_back(TaskDesc{"b", 30.0, 60.0, true});
    tasks.push_back(TaskDesc{"sink", 10.0, 20.0, true});
    const TaskChain chain{std::move(tasks)};
    plan::GraphShape shape;
    shape.chain = plan::ChainShape::of(chain);
    shape.branches = {
        plan::GraphBranch{0, 1, 1, {}, {1, 2}},
        plan::GraphBranch{1, 2, 3, {0}, {3}},
        plan::GraphBranch{2, 4, 4, {0}, {3}},
        plan::GraphBranch{3, 5, 5, {1, 2}, {}},
    };
    const std::vector<core::Solution> solutions{
        core::Solution{std::vector<Stage>{{1, 1, 1, CoreType::big}}},
        core::Solution{std::vector<Stage>{{1, 2, 2, CoreType::big}}},
        core::Solution{std::vector<Stage>{{1, 1, 1, CoreType::little}}},
        core::Solution{std::vector<Stage>{{1, 1, 1, CoreType::big}}},
    };
    auto seq = make_sequence(5);
    rt::Pipeline<Frame> pipeline{seq, plan::ExecutionPlan::compile(chain, shape, solutions),
                                 rt::PipelineConfig{}};
    ASSERT_FALSE(pipeline.execution_plan()->linear());

    svc::SolverService service{svc::ServiceConfig{.workers = 1}};
    rt::ControlConfig config;
    config.service = &service;
    rt::Controller controller{chain, {4, 1}, config};
    EXPECT_THROW((rt::PipelineControl<Frame>{controller, pipeline}), std::invalid_argument);
}

} // namespace
