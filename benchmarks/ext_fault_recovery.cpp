// Extension bench: online recovery from a permanent core loss. A real
// pipeline runs with the watchdog armed; mid-stream a kill fault takes out
// the sequential source stage's only worker. The watchdog fences it, the
// rt::Controller's loss step re-solves on the reduced resource vector and
// run_with_recovery lands the new schedule. We measure delivered
// throughput in three windows -- before the failure, during recovery
// (detection -> first resumed frame) and after -- plus the model's
// predicted period for the healthy and degraded schedules. dsim then
// replays the same loss on the healthy plan (SimulationConfig::faults):
// the same loss step picks its degraded schedule, and its departure
// recurrence predicts the post-loss period and the stall, printed next to
// the live run's.
//
// A second scenario compares the two paths a loss can take, each on the
// chain that takes it by itself. On R = (0, 4) an all-little chain keeps
// its cut and core types after the loss (stage 1 merely resized): the loss
// is resize-only and lands as an in-flight frame swap that never stops the
// stream. On R = (1, 3) a mixed chain keeps its cut but rebinds stage 0
// big -> little: the run drains and the pipeline is rebuilt. The report
// shows recovery latency, frames dropped and pure swap time for both, and
// the path dsim's replay of each loss predicts.
//
// Exits 2 when either loss does not recover exactly once through its path
// (one frame swap and no rebuild; one rebuild) in every repetition -- swap
// counts, not timings, so the check holds on any machine. Whether dsim's
// predictions match the live run is reported, not checked.
//
// Flags: --frames=N (default 600), --task-us=U per-task service (default
// 300), --kill-at=F failing frame (default frames/3), --swap-reps=R best-of
// repetitions per recovery path (default 3), --json=<file> amp-bench-v1
// report (one record per phase window and per recovery path, plus gauges).

#include "common/argparse.hpp"
#include "common/table.hpp"
#include "core/scheduler.hpp"
#include "dsim/simulator.hpp"
#include "rt/controller.hpp"
#include "rt/fault.hpp"
#include "support/bench_json.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace {

struct Frame {
    std::uint64_t seq = 0;
};

} // namespace

int main(int argc, char** argv)
{
    using namespace amp;
    using std::chrono::milliseconds;
    using std::chrono::microseconds;

    const ArgParse args(argc, argv);
    const auto frames = static_cast<std::uint64_t>(args.get_int("frames", 600));
    const auto task_us = static_cast<int>(args.get_int("task-us", 300));
    const auto kill_at =
        static_cast<std::uint64_t>(args.get_int("kill-at", static_cast<std::int64_t>(frames / 3)));
    const std::string json_path = args.get("json", "");

    // Five tasks; the first is stateful (a source keeping stream state), so
    // every schedule pins it to a sequential single-worker stage -- killing
    // worker 0 always empties its stage.
    constexpr int kTasks = 5;
    std::vector<core::TaskDesc> descs;
    rt::TaskSequence<Frame> sequence;
    for (int i = 1; i <= kTasks; ++i) {
        const auto w = static_cast<double>(task_us);
        descs.push_back(core::TaskDesc{"t" + std::to_string(i), w, 1.6 * w, i != 1});
        sequence.push_back(rt::make_task<Frame>("t" + std::to_string(i), i == 1, [task_us](Frame&) {
            std::this_thread::sleep_for(microseconds{task_us});
        }));
    }
    const core::TaskChain chain{std::move(descs)};
    const core::Resources budget{3, 2};

    rt::Controller controller{chain, budget};
    const core::Solution healthy = controller.solution();

    rt::FaultInjector injector;
    injector.add(rt::FaultSpec{rt::FaultKind::kill, kill_at, 0, 0, 1, milliseconds{0}});

    rt::PipelineConfig config;
    config.faults = &injector;
    config.max_task_retries = 2;
    config.heartbeat_timeout = milliseconds{100};

    std::printf("== Extension: throughput across a permanent core loss ==\n");
    std::printf("chain: %d tasks x %d us, R = (%d, %d), kill at frame %llu of %llu\n",
                kTasks, task_us, budget.big, budget.little,
                static_cast<unsigned long long>(kill_at),
                static_cast<unsigned long long>(frames));
    std::printf("healthy schedule: %s (model period %.0f us)\n\n",
                healthy.decomposition().c_str(), healthy.period(chain));

    std::vector<double> stamps; // output delivery times, seconds since start
    stamps.reserve(static_cast<std::size_t>(frames));
    const auto t0 = std::chrono::steady_clock::now();
    const rt::RecoveryReport report = rt::run_with_recovery<Frame>(
        sequence, controller, frames, config,
        [&](Frame&) {
            stamps.push_back(
                std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
        });

    if (report.total.failure_seconds < 0.0 || report.recoveries == 0) {
        std::printf("no failure occurred (kill frame past the stream end?)\n");
        return 0;
    }

    const double fail = report.total.failure_seconds;
    const double resume = fail + report.recovery_latency_seconds;
    const double end = report.total.elapsed_seconds;

    const auto window_fps = [&](double from, double to) -> std::pair<std::uint64_t, double> {
        std::uint64_t count = 0;
        for (const double t : stamps)
            count += (t >= from && t < to) ? 1 : 0;
        const double span = to - from;
        return {count, span > 0.0 ? static_cast<double>(count) / span : 0.0};
    };
    const auto [before_n, before_fps] = window_fps(0.0, fail);
    const auto [during_n, during_fps] = window_fps(fail, resume);
    const auto [after_n, after_fps] = window_fps(resume, end + 1e-9);

    TextTable table({"phase", "window (ms)", "frames", "fps"});
    table.add_row({"before loss", fmt(fail * 1e3, 1), std::to_string(before_n),
                   fmt(before_fps, 1)});
    table.add_row({"during recovery", fmt((resume - fail) * 1e3, 1), std::to_string(during_n),
                   fmt(during_fps, 1)});
    table.add_row({"after recovery", fmt((end - resume) * 1e3, 1), std::to_string(after_n),
                   fmt(after_fps, 1)});
    std::printf("%s\n", table.str().c_str());

    const core::Solution& degraded = report.solutions.back();
    std::printf("recovery latency : %.1f ms (detection -> first resumed frame)\n",
                report.recovery_latency_seconds * 1e3);
    std::printf("frames dropped   : %llu of %llu\n",
                static_cast<unsigned long long>(report.total.frames_dropped),
                static_cast<unsigned long long>(frames));
    std::printf("degraded schedule: %s on R = (%d, %d) (model period %.0f us)\n",
                degraded.decomposition().c_str(), controller.budget().big,
                controller.budget().little, degraded.period(chain));
    std::printf("\nThe after-loss fps should track the degraded model period. Windows split\n"
                "at detection: the silent dead-time before the watchdog fences the worker\n"
                "(up to the %lld ms heartbeat timeout) drags down the before-loss fps.\n",
                static_cast<long long>(config.heartbeat_timeout.count()));

    // -- dsim's replay of the same loss --------------------------------------
    // Stage 0 loses its core at kill_at on the healthy plan. The warmup ends
    // at the first departure after the dropped frame, so the measured window
    // holds post-loss departures only.
    const auto replay_loss = [&](const core::TaskChain& replay_chain,
                                 const core::Solution& solution, core::Resources replay_budget,
                                 std::optional<double> frame_swap_us) {
        dsim::SimulationConfig sim_config;
        sim_config.frames = frames;
        sim_config.warmup_frames = std::min(kill_at + 1, frames - 1);
        sim_config.faults = {{{kill_at, 0}}, replay_budget};
        sim_config.faults.frame_swap_us = frame_swap_us;
        return dsim::simulate(replay_chain, solution, sim_config);
    };
    const dsim::SimulationResult predicted = replay_loss(chain, healthy, budget, std::nullopt);
    const dsim::RecoveryRecord sim_loss =
        predicted.recoveries.empty() ? dsim::RecoveryRecord{} : predicted.recoveries.front();
    const bool schedules_match = predicted.final_solution == report.solutions[1];
    const auto budget_str = [](core::Resources r) {
        return "(" + std::to_string(r.big) + ", " + std::to_string(r.little) + ")";
    };

    std::printf("\n== dsim replay of the same loss ==\n");
    TextTable replay_table({"", "rt (live)", "dsim (replay)"});
    replay_table.add_row({"degraded schedule", report.solutions[1].decomposition(),
                          predicted.final_solution.decomposition()});
    replay_table.add_row({"R after loss", budget_str(controller.budget()),
                          budget_str(sim_loss.resources_after)});
    replay_table.add_row({"post-loss period (us)", fmt(after_fps > 0.0 ? 1e6 / after_fps : 0.0, 1),
                          fmt(predicted.period_us, 1)});
    replay_table.add_row({"post-loss fps", fmt(after_fps, 1), fmt(predicted.fps, 1)});
    replay_table.add_row({"stall (ms)", fmt(report.recovery_latency_seconds * 1e3, 2),
                          fmt(sim_loss.downtime_us * 1e-3, 2)});
    std::printf("%s\n", replay_table.str().c_str());
    std::printf("rt's stall is its recovery latency; dsim's is its modelled downtime\n"
                "(detection + reschedule). Same degraded schedule: %s\n",
                schedules_match ? "yes" : "no");

    // -- frame swap vs rebuild: the path each loss takes by itself ----------
    // t1 is stateful, t2..t5 replicable with a slightly lopsided little-core
    // interval sum. All-little on R = (0, 4): the healthy optimum
    // [t1]x1L | [t2-t5]x3L stays [t1]x1L | [t2-t5]x2L after losing one little
    // -- the SAME cut on the SAME core types, so the loss is resize-only and
    // the fenced source worker is replaced mid-segment. With a big-favored
    // t1 on R = (1, 3): [t1]x1B | [t2-t5]x3L becomes [t1]x1L | [t2-t5]x2L
    // after losing the big core -- stage 0 rebound, so the run drains and
    // the pipeline is rebuilt.
    const auto swap_reps = static_cast<int>(args.get_int("swap-reps", 3));
    const double cmp_little[] = {0.75, 0.75, 0.75, 0.76};
    const auto make_chain = [&](double t1_big, double t1_little) {
        std::vector<core::TaskDesc> cmp_descs;
        cmp_descs.push_back(core::TaskDesc{"t1", t1_big * task_us, t1_little * task_us, false});
        for (int i = 2; i <= kTasks; ++i)
            cmp_descs.push_back(core::TaskDesc{"t" + std::to_string(i), 0.6 * task_us,
                                               cmp_little[i - 2] * task_us, true});
        return core::TaskChain{std::move(cmp_descs)};
    };

    struct PathStats {
        const char* mode;
        core::Resources budget;
        double latency_s = 1e9;
        double swap_s = 0.0;
        std::uint64_t dropped = 0;
        int frame_swaps = 0;
        int rebuild_swaps = 0;
        int off_path = 0; ///< repetitions that did not recover exactly once on this path
        bool dsim_frame_swap = false; ///< the path dsim's replay of the loss predicts
    };
    const auto run_path = [&](const char* mode, const core::TaskChain& path_chain,
                              core::Resources path_budget, bool frame_swap) {
        PathStats best{mode, path_budget};
        // Any frame swap cost makes dsim report the swap rule's path; only
        // the path is printed.
        const dsim::SimulationResult replay =
            replay_loss(path_chain, rt::Controller{path_chain, path_budget}.solution(),
                        path_budget, /*frame_swap_us=*/10.0);
        best.dsim_frame_swap =
            !replay.recoveries.empty() && replay.recoveries.front().frame_swap_applied;
        for (int rep = 0; rep < swap_reps; ++rep) {
            rt::TaskSequence<Frame> path_sequence;
            for (int i = 1; i <= kTasks; ++i)
                path_sequence.push_back(
                    rt::make_task<Frame>("t" + std::to_string(i), i == 1, [task_us](Frame&) {
                        std::this_thread::sleep_for(microseconds{task_us});
                    }));
            rt::Controller path_controller{path_chain, path_budget};
            rt::FaultInjector path_injector;
            path_injector.add(
                rt::FaultSpec{rt::FaultKind::kill, kill_at, 0, 0, 1, milliseconds{0}});
            rt::PipelineConfig path_config;
            path_config.faults = &path_injector;
            path_config.heartbeat_timeout = milliseconds{100};
            const rt::RecoveryReport r = rt::run_with_recovery<Frame>(
                path_sequence, path_controller, frames, path_config);
            if (r.recoveries != 1 || !r.completed || r.frame_swaps != (frame_swap ? 1 : 0)
                || r.rebuild_swaps != (frame_swap ? 0 : 1)) {
                ++best.off_path;
                continue;
            }
            if (r.recovery_latency_seconds < best.latency_s) {
                best.latency_s = r.recovery_latency_seconds;
                best.swap_s = r.swap_seconds;
                best.dropped = r.total.frames_dropped;
                best.frame_swaps = r.frame_swaps;
                best.rebuild_swaps = r.rebuild_swaps;
            }
        }
        return best;
    };
    const PathStats frame =
        run_path("frame", make_chain(1.0, 0.9), core::Resources{0, 4}, /*frame_swap=*/true);
    const PathStats rebuild =
        run_path("rebuild", make_chain(1.0, 1.2), core::Resources{1, 3}, /*frame_swap=*/false);

    std::printf("\n== Recovery path: in-flight frame swap vs drain + rebuild ==\n");
    std::printf("resize-only loss on R = (%d, %d), rebind loss on R = (%d, %d); best of %d runs\n",
                frame.budget.big, frame.budget.little, rebuild.budget.big,
                rebuild.budget.little, swap_reps);
    const bool on_path = frame.off_path == 0 && rebuild.off_path == 0;
    if (on_path) {
        TextTable path_table({"mode", "R", "recovery latency (ms)", "swap (ms)",
                              "frames dropped", "swaps", "dsim path"});
        for (const PathStats* path : {&frame, &rebuild})
            path_table.add_row({path->mode, budget_str(path->budget),
                                fmt(path->latency_s * 1e3, 2), fmt(path->swap_s * 1e3, 3),
                                std::to_string(path->dropped),
                                std::to_string(path->frame_swaps + path->rebuild_swaps) + " "
                                    + path->mode,
                                path->dsim_frame_swap ? "frame" : "rebuild"});
        std::printf("%s\n", path_table.str().c_str());
        std::printf("frame swap vs rebuild : %.2fx recovery latency\n",
                    rebuild.latency_s / frame.latency_s);
        std::printf("The frame swap never drains: replacement workers join the live stream\n"
                    "at the next frame boundary, so its latency is dominated by failure\n"
                    "detection and one solver call rather than drain + restart.\n");
    } else {
        std::printf("comparison failed: %d of %d frame-swap runs and %d of %d rebuild runs did\n"
                    "not recover exactly once on their path\n",
                    frame.off_path, swap_reps, rebuild.off_path, swap_reps);
    }

    if (!json_path.empty()) {
        bench::JsonReport json_report{"ext_fault_recovery"};
        json_report.param("frames", frames)
            .param("task_us", task_us)
            .param("kill_at", kill_at)
            .param("big", budget.big)
            .param("little", budget.little);
        const struct {
            const char* phase;
            double from;
            double to;
            std::uint64_t count;
            double fps;
        } phases[] = {
            {"before_loss", 0.0, fail, before_n, before_fps},
            {"during_recovery", fail, resume, during_n, during_fps},
            {"after_recovery", resume, end, after_n, after_fps},
        };
        for (const auto& phase : phases)
            json_report.add_record()
                .set("phase", phase.phase)
                .set("window_s", phase.to - phase.from)
                .set("frames", phase.count)
                .set("fps", phase.fps);
        for (const PathStats* path : {&frame, &rebuild})
            if (path->off_path == 0)
                json_report.add_record()
                    .set("phase", path == &frame ? "resize_only_loss" : "rebind_loss")
                    .set("mode", path->mode)
                    .set("recovery_latency_s", path->latency_s)
                    .set("swap_s", path->swap_s)
                    .set("frames_dropped", path->dropped)
                    .set("rebuild_swaps", path->rebuild_swaps)
                    .set("frame_swaps", path->frame_swaps)
                    .set("dsim_frame_swap", path->dsim_frame_swap);
        if (on_path)
            json_report.param("frame_latency_speedup_vs_rebuild",
                              rebuild.latency_s / frame.latency_s)
                .param("swap_reps", static_cast<std::int64_t>(swap_reps));
        json_report.param("recoveries", static_cast<std::int64_t>(report.recoveries))
            .param("recovery_latency_s", report.recovery_latency_seconds)
            .param("frames_dropped", report.total.frames_dropped)
            .param("healthy_period_us", healthy.period(chain))
            .param("degraded_period_us", degraded.period(chain))
            .param("healthy_schedule", healthy.decomposition())
            .param("degraded_schedule", degraded.decomposition())
            .param("dsim_degraded_schedule", predicted.final_solution.decomposition())
            .param("dsim_big_after", sim_loss.resources_after.big)
            .param("dsim_little_after", sim_loss.resources_after.little)
            .param("dsim_period_us", predicted.period_us)
            .param("dsim_fps", predicted.fps)
            .param("dsim_downtime_us", sim_loss.downtime_us)
            .param("dsim_schedule_matches_rt", schedules_match);
        if (!json_report.write_file(json_path)) {
            std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
            return 1;
        }
        std::printf("json report: %s\n", json_path.c_str());
    }
    return on_path ? 0 : 2;
}
