// Extension bench: online recovery from a permanent core loss. A real
// pipeline runs with the watchdog armed; mid-stream a kill fault takes out
// the sequential source stage's only worker. The watchdog fences it, the
// run drains gracefully, the Rescheduler recomputes on the reduced resource
// vector and the stream resumes where it stopped. We measure delivered
// throughput in three windows -- before the failure, during recovery
// (detection + drain + reschedule + restart) and after -- plus the model's
// predicted period for the healthy and degraded schedules.
//
// A second scenario compares the two recovery modes on the same failure
// script: a full pipeline rebuild (SwapPolicy::rebuild_only) against the
// incremental hot-swap between segments (Pipeline::retarget, drained).
// The chain is built so the degraded optimum keeps the healthy stage cut,
// making the kill delta-compatible by construction; the report shows
// recovery latency, frames dropped and pure swap time for both modes.
//
// A third scenario pushes further: an all-little chain whose degraded
// optimum keeps the healthy cut on the SAME core types (stage 1 merely
// resized), so the kill is resize-only and qualifies for the mid-segment
// frame swap (Pipeline::retarget mid-segment). It compares all three
// recovery modes -- drain + rebuild, drain + delta swap, and the in-flight
// frame swap that never stops the stream.
//
// Flags: --frames=N (default 600), --task-us=U per-task service (default
// 300), --kill-at=F failing frame (default frames/3), --swap-reps=R best-of
// repetitions per recovery mode (default 3), --json=<file> amp-bench-v1
// report (one record per phase window and per recovery mode, plus gauges).

#include "common/argparse.hpp"
#include "common/table.hpp"
#include "core/scheduler.hpp"
#include "dsim/simulator.hpp"
#include "rt/fault.hpp"
#include "rt/rescheduler.hpp"
#include "support/bench_json.hpp"

#include <chrono>
#include <cstdio>
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
    // worker 0 always forces a full drain + reschedule.
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

    rt::Rescheduler rescheduler{chain, budget};
    const core::Solution healthy = rescheduler.solution();

    rt::FaultInjector injector;
    injector.add(rt::FaultSpec{rt::FaultKind::kill, kill_at, 0, 0, 1, milliseconds{0}});

    rt::PipelineConfig config;
    config.faults = &injector;
    config.max_task_retries = 2;
    config.heartbeat_timeout = milliseconds{100};
    config.watchdog_poll = milliseconds{2};

    std::printf("== Extension: throughput across a permanent core loss ==\n");
    std::printf("chain: %d tasks x %d us, R = (%d, %d), kill at frame %llu of %llu\n",
                kTasks, task_us, budget.big, budget.little,
                static_cast<unsigned long long>(kill_at),
                static_cast<unsigned long long>(frames));
    std::printf("healthy schedule: %s (model period %.0f us)\n\n",
                healthy.decomposition().c_str(), dsim::expected_period_us(chain, healthy));

    // Drain-based recovery only: the window analysis below assumes the
    // stream actually stops (before / during / after), so the in-flight
    // frame swap is measured in its own scenario instead.
    rt::RecoveryOptions window_options;
    window_options.swap = rt::SwapPolicy::delta;

    std::vector<double> stamps; // output delivery times, seconds since start
    stamps.reserve(static_cast<std::size_t>(frames));
    const auto t0 = std::chrono::steady_clock::now();
    const rt::RecoveryReport report = rt::run_with_recovery<Frame>(
        sequence, rescheduler, frames, config,
        [&](Frame&) {
            stamps.push_back(
                std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
        },
        -1, window_options);

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
                degraded.decomposition().c_str(), rescheduler.resources().big,
                rescheduler.resources().little, dsim::expected_period_us(chain, degraded));
    std::printf("\nThe after-loss fps should track the degraded model period. Windows split\n"
                "at detection: the silent dead-time before the watchdog fences the worker\n"
                "(up to the %lld ms heartbeat timeout) drags down the before-loss fps.\n",
                static_cast<long long>(config.heartbeat_timeout.count()));

    // -- rebuild vs delta hot-swap on the same failure script ---------------
    // t1 is stateful and big-favored; t2..t5 are replicable with a slightly
    // lopsided little-core interval sum, so on R = (1, 3) the optimum is
    // [t1]x1B | [t2-t5]x3L and after losing the big core it stays the SAME
    // cut: [t1]x1L | [t2-t5]x2L. The kill is therefore delta-compatible
    // (stage 0 rebound, stage 1 resized) and the two modes differ only in
    // how the swap itself is performed.
    const auto swap_reps = static_cast<int>(args.get_int("swap-reps", 3));
    std::vector<core::TaskDesc> cmp_descs;
    cmp_descs.push_back(core::TaskDesc{"t1", 1.0 * task_us, 1.2 * task_us, false});
    const double cmp_little[] = {0.75, 0.75, 0.75, 0.76};
    for (int i = 2; i <= kTasks; ++i)
        cmp_descs.push_back(core::TaskDesc{"t" + std::to_string(i), 0.6 * task_us,
                                           cmp_little[i - 2] * task_us, true});
    const core::TaskChain cmp_chain{std::move(cmp_descs)};
    const core::Resources cmp_budget{1, 3};

    struct ModeStats {
        double latency_s = 1e9;
        double swap_s = 0.0;
        std::uint64_t dropped = 0;
        int delta_swaps = 0;
        int rebuild_swaps = 0;
        int frame_swaps = 0;
        bool valid = false;
    };
    const auto run_mode = [&](const core::TaskChain& mode_chain, core::Resources mode_budget,
                              rt::RecoveryOptions options) {
        ModeStats best;
        for (int rep = 0; rep < swap_reps; ++rep) {
            rt::TaskSequence<Frame> mode_sequence;
            for (int i = 1; i <= kTasks; ++i)
                mode_sequence.push_back(
                    rt::make_task<Frame>("t" + std::to_string(i), i == 1, [task_us](Frame&) {
                        std::this_thread::sleep_for(microseconds{task_us});
                    }));
            rt::Rescheduler mode_rescheduler{mode_chain, mode_budget};
            rt::FaultInjector mode_injector;
            mode_injector.add(
                rt::FaultSpec{rt::FaultKind::kill, kill_at, 0, 0, 1, milliseconds{0}});
            rt::PipelineConfig mode_config;
            mode_config.faults = &mode_injector;
            mode_config.heartbeat_timeout = milliseconds{100};
            mode_config.watchdog_poll = milliseconds{2};
            const rt::RecoveryReport r = rt::run_with_recovery<Frame>(
                mode_sequence, mode_rescheduler, frames, mode_config, {}, -1, options);
            if (r.recoveries != 1 || !r.completed)
                continue;
            if (r.recovery_latency_seconds < best.latency_s) {
                best.latency_s = r.recovery_latency_seconds;
                best.swap_s = r.swap_seconds;
                best.dropped = r.total.frames_dropped;
                best.delta_swaps = r.delta_swaps;
                best.rebuild_swaps = r.rebuild_swaps;
                best.frame_swaps = r.frame_swaps;
                best.valid = true;
            }
        }
        return best;
    };
    rt::RecoveryOptions rebuild_options;
    rebuild_options.swap = rt::SwapPolicy::rebuild_only;
    rt::RecoveryOptions delta_options;
    delta_options.swap = rt::SwapPolicy::delta;
    const ModeStats rebuild = run_mode(cmp_chain, cmp_budget, rebuild_options);
    const ModeStats delta = run_mode(cmp_chain, cmp_budget, delta_options);

    std::printf("\n== Recovery mode: full rebuild vs incremental plan delta ==\n");
    std::printf("chain: same cut before and after the loss on R = (%d, %d); best of %d runs\n",
                cmp_budget.big, cmp_budget.little, swap_reps);
    if (rebuild.valid && delta.valid) {
        TextTable swap_table(
            {"mode", "recovery latency (ms)", "swap (ms)", "frames dropped", "swaps"});
        swap_table.add_row({"rebuild", fmt(rebuild.latency_s * 1e3, 2),
                            fmt(rebuild.swap_s * 1e3, 3), std::to_string(rebuild.dropped),
                            std::to_string(rebuild.rebuild_swaps) + " rebuild"});
        swap_table.add_row({"delta", fmt(delta.latency_s * 1e3, 2), fmt(delta.swap_s * 1e3, 3),
                            std::to_string(delta.dropped),
                            std::to_string(delta.delta_swaps) + " delta"});
        std::printf("%s\n", swap_table.str().c_str());
        std::printf("delta vs rebuild : %.2fx recovery latency, %.2fx swap time\n",
                    rebuild.latency_s / delta.latency_s, delta.swap_s > 0.0
                        ? rebuild.swap_s / delta.swap_s : 0.0);
    } else {
        std::printf("comparison skipped: a mode failed to recover exactly once\n");
    }

    // -- three-way: rebuild vs drain-delta vs in-flight frame swap ----------
    // All-little chain on R = (0, 4): t1 is stateful (sequential stage), the
    // rest replicable with the same lopsided little-core interval sums as
    // above. Healthy optimum [t1]x1L | [t2-t5]x3L; after losing one little
    // it stays [t1]x1L | [t2-t5]x2L -- the SAME cut on the SAME core type,
    // stage 1 merely resized. The kill delta is resize-only by construction,
    // so the frame-swap mode can replace the fenced source worker and shrink
    // stage 1 mid-segment, without ever draining the stream.
    std::vector<core::TaskDesc> fs_descs;
    fs_descs.push_back(core::TaskDesc{"t1", 1.0 * task_us, 0.9 * task_us, false});
    for (int i = 2; i <= kTasks; ++i)
        fs_descs.push_back(core::TaskDesc{"t" + std::to_string(i), 0.6 * task_us,
                                          cmp_little[i - 2] * task_us, true});
    const core::TaskChain fs_chain{std::move(fs_descs)};
    const core::Resources fs_budget{0, 4};
    rt::RecoveryOptions frame_options; // SwapPolicy::frame_first (the default)

    const ModeStats fs_rebuild = run_mode(fs_chain, fs_budget, rebuild_options);
    const ModeStats fs_delta = run_mode(fs_chain, fs_budget, delta_options);
    const ModeStats fs_frame = run_mode(fs_chain, fs_budget, frame_options);

    std::printf("\n== Recovery mode: drain-rebuild vs drain-delta vs frame swap ==\n");
    std::printf("resize-only loss on R = (%d, %d): same cut, same types; best of %d runs\n",
                fs_budget.big, fs_budget.little, swap_reps);
    if (fs_rebuild.valid && fs_delta.valid && fs_frame.valid) {
        TextTable fs_table(
            {"mode", "recovery latency (ms)", "swap (ms)", "frames dropped", "swaps"});
        fs_table.add_row({"rebuild", fmt(fs_rebuild.latency_s * 1e3, 2),
                          fmt(fs_rebuild.swap_s * 1e3, 3), std::to_string(fs_rebuild.dropped),
                          std::to_string(fs_rebuild.rebuild_swaps) + " rebuild"});
        fs_table.add_row({"delta", fmt(fs_delta.latency_s * 1e3, 2),
                          fmt(fs_delta.swap_s * 1e3, 3), std::to_string(fs_delta.dropped),
                          std::to_string(fs_delta.delta_swaps) + " delta"});
        fs_table.add_row({"frame", fmt(fs_frame.latency_s * 1e3, 2),
                          fmt(fs_frame.swap_s * 1e3, 3), std::to_string(fs_frame.dropped),
                          std::to_string(fs_frame.frame_swaps) + " frame"});
        std::printf("%s\n", fs_table.str().c_str());
        std::printf("frame swap vs delta   : %.2fx recovery latency\n",
                    fs_delta.latency_s / fs_frame.latency_s);
        std::printf("frame swap vs rebuild : %.2fx recovery latency\n",
                    fs_rebuild.latency_s / fs_frame.latency_s);
        std::printf("The frame swap never drains: replacement workers join the live stream\n"
                    "at the next frame boundary, so its latency is dominated by failure\n"
                    "detection and one solver call rather than drain + restart.\n");
    } else {
        std::printf("comparison skipped: a mode failed to recover exactly once\n");
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
        const struct {
            const char* phase;
            const char* mode;
            const ModeStats* stats;
        } mode_records[] = {
            {"recovery_rebuild", "rebuild", &rebuild},
            {"recovery_delta", "delta", &delta},
            {"frameswap_rebuild", "rebuild", &fs_rebuild},
            {"frameswap_delta", "delta", &fs_delta},
            {"frameswap_frame", "frame", &fs_frame},
        };
        for (const auto& rec : mode_records)
            if (rec.stats->valid)
                json_report.add_record()
                    .set("phase", rec.phase)
                    .set("mode", rec.mode)
                    .set("recovery_latency_s", rec.stats->latency_s)
                    .set("swap_s", rec.stats->swap_s)
                    .set("frames_dropped", rec.stats->dropped)
                    .set("delta_swaps", rec.stats->delta_swaps)
                    .set("rebuild_swaps", rec.stats->rebuild_swaps)
                    .set("frame_swaps", rec.stats->frame_swaps);
        if (rebuild.valid && delta.valid && delta.latency_s > 0.0)
            json_report.param("delta_latency_speedup", rebuild.latency_s / delta.latency_s)
                .param("swap_reps", static_cast<std::int64_t>(swap_reps));
        if (fs_delta.valid && fs_frame.valid && fs_frame.latency_s > 0.0)
            json_report.param("frame_latency_speedup_vs_delta",
                              fs_delta.latency_s / fs_frame.latency_s);
        if (fs_rebuild.valid && fs_frame.valid && fs_frame.latency_s > 0.0)
            json_report.param("frame_latency_speedup_vs_rebuild",
                              fs_rebuild.latency_s / fs_frame.latency_s);
        json_report.param("recoveries", static_cast<std::int64_t>(report.recoveries))
            .param("recovery_latency_s", report.recovery_latency_seconds)
            .param("frames_dropped", report.total.frames_dropped)
            .param("healthy_period_us", dsim::expected_period_us(chain, healthy))
            .param("degraded_period_us", dsim::expected_period_us(chain, degraded))
            .param("healthy_schedule", healthy.decomposition())
            .param("degraded_schedule", degraded.decomposition());
        if (!json_report.write_file(json_path)) {
            std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
            return 1;
        }
        std::printf("json report: %s\n", json_path.c_str());
    }
    return 0;
}
