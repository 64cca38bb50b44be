// Extension bench: load-driven autoscaling on the warm-start incremental
// solver (docs/AUTOSCALING.md). Three scenarios:
//
//   1. Warm vs cold re-solve. One n-task chain (paper generator) on a
//      (b, l) pool; a retained HeRAD frontier answers every +/-k resize
//      against a from-scratch solve of the same target. Reported per
//      delta: cold and warm medians over --reps runs, the speedup, and a
//      bitwise identity check of the two solutions (the warm path is an
//      accelerator, never an approximation). The acceptance gate is a
//      median speedup >= 10x across the sweep at n = 64.
//
//   2. Controller tracking. dsim::simulate_autoscale replays the real
//      AutoscaleController + warm solver against a step profile (idle ->
//      3x capacity -> idle) and a full sine sweep. Reported: grows,
//      shrinks, warm fraction, mean tracking error and the minimum gap
//      between actions (>= the cooldown = no flapping).
//
//   3. Live resize. A real rt::Pipeline streams frames while an
//      rt::Autoscaler lands a grow and a shrink as frame-granular
//      in-flight swaps. Reported: frames delivered/dropped (must be 0)
//      and the autoscaler's counters.
//
// Flags: --tasks=N chain size of scenario 1 (default 64), --pool=K big and
// little cores of scenario 1 (default 12), --reps=N timing repetitions
// (default 21), --frames=N scenario-3 stream length (default 400),
// --task-us=U scenario-3 per-frame sleep (default 150), --json=<file>
// amp-bench-v1 report.

#include "common/argparse.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/scheduler.hpp"
#include "dsim/simulator.hpp"
#include "rt/autoscaler.hpp"
#include "rt/pipeline.hpp"
#include "sim/generator.hpp"
#include "support/bench_json.hpp"
#include "svc/solver_service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace {

using namespace amp;

double median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return values.empty() ? 0.0 : values[values.size() / 2];
}

std::int64_t now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Frame {
    std::uint64_t seq = 0;
};

/// All-little chain whose optimum keeps one cut across (0,2)..(0,4):
/// every autoscale delta is resize-only (tests/plan/frame_swap_test.cpp).
core::TaskChain resize_only_chain()
{
    std::vector<core::TaskDesc> tasks;
    tasks.push_back(core::TaskDesc{"t1", 100.0, 90.0, false});
    const double littles[] = {75.0, 75.0, 75.0, 76.0};
    for (int i = 2; i <= 5; ++i)
        tasks.push_back(core::TaskDesc{"t" + std::to_string(i), 60.0, littles[i - 2], true});
    return core::TaskChain{std::move(tasks)};
}

} // namespace

int main(int argc, char** argv)
{
    ArgParse args{argc, argv};
    const int tasks = static_cast<int>(args.get_int("tasks", 64));
    const int pool = static_cast<int>(args.get_int("pool", 12));
    const int reps = static_cast<int>(args.get_int("reps", 21));
    const std::uint64_t frames = static_cast<std::uint64_t>(args.get_int("frames", 400));
    const int task_us = static_cast<int>(args.get_int("task-us", 150));

    bench::JsonReport report{"ext_autoscale"};
    report.param("tasks", tasks).param("pool", pool).param("reps", reps)
        .param("frames", static_cast<std::int64_t>(frames)).param("task_us", task_us);

    // -- scenario 1: warm vs cold re-solve ---------------------------------
    sim::GeneratorConfig generator;
    generator.num_tasks = tasks;
    Rng rng{0xA5CA1E};
    const core::TaskChain chain = sim::generate_chain(generator, rng);
    const core::Resources base{pool, pool};

    core::ScheduleRequest seed_request{chain, base, core::Strategy::herad};
    seed_request.warm.keep_frontier = true;
    const core::ScheduleResult seeded = core::schedule(seed_request);
    if (!seeded.ok() || seeded.frontier == nullptr) {
        std::fprintf(stderr, "seed solve failed\n");
        return 1;
    }

    std::printf("== Warm vs cold re-solve: n=%d, base pool (%d, %d) ==\n", tasks, pool, pool);
    TextTable resolve_table{{"delta", "cold (us)", "warm (us)", "speedup", "identical"}};
    std::vector<double> speedups;
    bool all_identical = true;
    // One axis per delta: AutoscaleController::stepped moves one core type
    // per action (grow_first, spilling only when clamped), so these are the
    // resize requests the autoscaler actually issues.
    const std::pair<int, int> deltas[] = {{-2, 0}, {-1, 0}, {1, 0}, {2, 0},
                                          {0, -2}, {0, -1}, {0, 1}, {0, 2}};
    for (const auto& [db, dl] : deltas) {
        {
            const core::Resources target{base.big + db, base.little + dl};
            std::vector<double> cold_ns, warm_ns;
            bool identical = true;
            for (int rep = 0; rep < reps; ++rep) {
                const std::int64_t t0 = now_ns();
                const core::ScheduleResult cold =
                    core::schedule(core::ScheduleRequest{chain, target, core::Strategy::herad});
                const std::int64_t t1 = now_ns();
                core::ScheduleRequest warm_request{chain, target, core::Strategy::herad};
                warm_request.warm.frontier = seeded.frontier;
                const core::ScheduleResult warm = core::schedule(warm_request);
                const std::int64_t t2 = now_ns();
                cold_ns.push_back(static_cast<double>(t1 - t0));
                warm_ns.push_back(static_cast<double>(t2 - t1));
                identical = identical && warm.ok() && warm.warm_start
                            && warm.solution == cold.solution;
            }
            const double cold_us = median(cold_ns) / 1e3;
            const double warm_us = median(warm_ns) / 1e3;
            const double speedup = warm_us > 0.0 ? cold_us / warm_us : 0.0;
            speedups.push_back(speedup);
            all_identical = all_identical && identical;
            char delta_label[32];
            std::snprintf(delta_label, sizeof delta_label, "%+d/%+d", db, dl);
            resolve_table.add_row({delta_label, fmt(cold_us, 1), fmt(warm_us, 1),
                                   fmt(speedup, 1) + "x", identical ? "yes" : "NO"});
            report.add_record()
                .set("scenario", "resolve")
                .set("delta_big", db)
                .set("delta_little", dl)
                .set("cold_us", cold_us)
                .set("warm_us", warm_us)
                .set("speedup", speedup)
                .set("identical", identical);
        }
    }
    const double median_speedup = median(speedups);
    const bool resolve_pass = median_speedup >= 10.0 && all_identical;
    std::printf("%s\n", resolve_table.str().c_str());
    std::printf("median speedup across the sweep: %.1fx (gate: >= 10x) -- %s\n\n",
                median_speedup, resolve_pass ? "PASS" : "FAIL");
    report.add_record()
        .set("scenario", "resolve_summary")
        .set("median_speedup", median_speedup)
        .set("all_identical", all_identical)
        .set("pass", resolve_pass);

    // -- scenario 2: controller tracking (virtual time) --------------------
    const auto make_scenario = [&](std::vector<dsim::LoadPoint> load) {
        dsim::AutoscaleScenario scenario;
        sim::GeneratorConfig track_gen;
        track_gen.num_tasks = 12;
        Rng track_rng{0x5CA1E};
        scenario.chain = sim::generate_chain(track_gen, track_rng);
        scenario.initial = {1, 2};
        scenario.policy.grow_above = 0.85;
        scenario.policy.shrink_below = 0.40;
        scenario.policy.patience = 3;
        scenario.policy.cooldown_ns = 50'000'000;
        scenario.policy.min_pool = {0, 1};
        scenario.policy.max_pool = {4, 4};
        scenario.load = std::move(load);
        scenario.horizon_us = 1'000'000;
        scenario.sample_period_us = 5'000;
        return scenario;
    };
    const auto base_fps = [&](const dsim::AutoscaleScenario& scenario) {
        return 1e6
               / core::schedule(core::Strategy::herad, scenario.chain, scenario.initial)
                     .period(scenario.chain);
    };

    std::printf("== Controller tracking (dsim, virtual time) ==\n");
    TextTable track_table{{"profile", "grows", "shrinks", "warm", "track_err", "min_gap_ms"}};
    bool track_pass = true;
    for (const char* profile : {"step", "sine"}) {
        dsim::AutoscaleScenario scenario = make_scenario({{0, 0.0}});
        const double fps = base_fps(scenario);
        if (std::string{profile} == "step") {
            scenario.load = {{0, 0.3 * fps}, {300'000, 3.0 * fps}, {700'000, 0.2 * fps}};
        } else {
            scenario.load.clear();
            for (int i = 0; i < 100; ++i) {
                const double phase = 2.0 * 3.14159265358979 * i / 100.0;
                scenario.load.push_back({i * 10'000, fps * (1.2 + 1.0 * std::sin(phase))});
            }
        }
        const dsim::AutoscaleSimResult result = dsim::simulate_autoscale(scenario);
        const bool no_flap =
            result.min_action_gap_us * 1000 >= scenario.policy.cooldown_ns;
        track_pass = track_pass && no_flap && result.grows + result.shrinks > 0;
        track_table.add_row({std::string{profile}, std::to_string(result.grows),
                             std::to_string(result.shrinks), fmt(result.warm_fraction, 2),
                             fmt(result.mean_tracking_error, 3),
                             fmt(result.min_action_gap_us / 1e3, 0)});
        report.add_record()
            .set("scenario", "track")
            .set("profile", profile)
            .set("grows", result.grows)
            .set("shrinks", result.shrinks)
            .set("warm_fraction", result.warm_fraction)
            .set("mean_tracking_error", result.mean_tracking_error)
            .set("min_action_gap_us", result.min_action_gap_us)
            .set("no_flapping", no_flap);
    }
    std::printf("%s\n", track_table.str().c_str());

    // -- scenario 3: live resize on a real pipeline ------------------------
    std::printf("== Live resize: rt::Autoscaler on a streaming pipeline ==\n");
    const core::TaskChain live_chain = resize_only_chain();
    svc::SolverService service{svc::ServiceConfig{}};
    const svc::PlannedSchedule initial_plan = service.solve_planned(
        core::ScheduleRequest{live_chain, {0, 3}, core::Strategy::herad});
    if (!initial_plan.ok()) {
        std::fprintf(stderr, "live plan solve failed\n");
        return 1;
    }

    rt::TaskSequence<Frame> sequence;
    for (int i = 1; i <= live_chain.size(); ++i)
        sequence.push_back(rt::make_task<Frame>("t" + std::to_string(i), i == 1,
                                                [i, task_us](Frame&) {
                                                    if (i == 1 && task_us > 0)
                                                        std::this_thread::sleep_for(
                                                            std::chrono::microseconds{task_us});
                                                }));
    rt::Pipeline<Frame> pipeline{sequence, *initial_plan.plan, rt::PipelineConfig{}};

    rt::AutoscalerConfig autoscale_config;
    autoscale_config.policy.patience = 2;
    autoscale_config.policy.cooldown_ns = 0;
    autoscale_config.policy.min_pool = {0, 2};
    autoscale_config.policy.max_pool = {0, 4};
    autoscale_config.policy.grow_first = core::CoreType::little;
    autoscale_config.service = &service;
    rt::Autoscaler<Frame> autoscaler{pipeline, live_chain, {0, 3}, autoscale_config};

    // Feeds are issued from the output thread, so both land mid-segment by
    // construction: a grow a quarter into the stream, a shrink at half.
    std::uint64_t delivered = 0;
    const rt::RunResult run = pipeline.run(frames, [&](Frame&) {
        ++delivered;
        if (delivered == frames / 4) {
            (void)autoscaler.feed(1.5, 1);
            (void)autoscaler.feed(1.5, 2); // grow
        } else if (delivered == frames / 2) {
            (void)autoscaler.feed(0.1, 3);
            (void)autoscaler.feed(0.1, 4); // shrink
        }
    });

    const rt::AutoscalerStats live = autoscaler.stats();
    const bool live_pass = run.frames == frames && run.frames_dropped == 0
                           && live.frame_swaps >= 2 && live.grows >= 1 && live.shrinks >= 1;
    std::printf("frames %llu delivered %llu dropped %llu | grows %llu shrinks %llu "
                "frame_swaps %llu warm_solves %llu -- %s\n\n",
                static_cast<unsigned long long>(run.frames),
                static_cast<unsigned long long>(delivered),
                static_cast<unsigned long long>(run.frames_dropped),
                static_cast<unsigned long long>(live.grows),
                static_cast<unsigned long long>(live.shrinks),
                static_cast<unsigned long long>(live.frame_swaps),
                static_cast<unsigned long long>(live.warm_solves),
                live_pass ? "PASS" : "FAIL");
    report.add_record()
        .set("scenario", "live")
        .set("frames", run.frames)
        .set("frames_delivered", delivered)
        .set("frames_dropped", run.frames_dropped)
        .set("grows", live.grows)
        .set("shrinks", live.shrinks)
        .set("frame_swaps", live.frame_swaps)
        .set("warm_solves", live.warm_solves)
        .set("zero_drop_pass", run.frames_dropped == 0)
        .set("pass", live_pass);

    if (args.has("json")) {
        const std::string path = args.get("json", "");
        if (!report.write_file(path)) {
            std::fprintf(stderr, "failed to write %s\n", path.c_str());
            return 1;
        }
        std::printf("json report: %s\n", path.c_str());
    }
    return resolve_pass && track_pass && live_pass ? 0 : 2;
}
