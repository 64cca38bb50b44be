// Ablation: cost of the telemetry layer on the real pipeline's hot path.
// Runs one synthetic chain three ways -- no sink at all, a disabled sink
// (SinkConfig::null(), the "compiled in but off" configuration) and a fully
// recording sink (metrics + trace) -- and compares best-of-reps throughput.
// The modes are interleaved: each rep runs all three, and the mode that goes
// first rotates from rep to rep, so a slow phase of the host lands on every
// mode instead of on whichever ran first. The acceptance bar
// (docs/OBSERVABILITY.md): the disabled sink costs <= 2% versus no sink,
// i.e. instrumentation off is indistinguishable from instrumentation absent.
//
// Flags: --frames=N (default 2000), --task-us=U busy-spin per task (default
// 20), --reps=K best-of (default 3), --json=<file> amp-bench-v1 output,
// --strict=1 to exit non-zero when the disabled sink misses the 2% bar
// (off by default: wall-clock noise on shared CI runners is not a bug).

#include "common/argparse.hpp"
#include "common/table.hpp"
#include "core/scheduler.hpp"
#include "obs/sink.hpp"
#include "rt/pipeline.hpp"
#include "support/bench_json.hpp"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace {

struct Frame {
    std::uint64_t seq = 0;
};

/// Busy-spins (no yield) so task cost is stable at microsecond scale.
void spin_for(std::chrono::microseconds quantum)
{
    const auto until = std::chrono::steady_clock::now() + quantum;
    while (std::chrono::steady_clock::now() < until) {
    }
}

} // namespace

int main(int argc, char** argv)
{
    using namespace amp;

    const ArgParse args(argc, argv);
    const auto frames = static_cast<std::uint64_t>(args.get_int("frames", 2000));
    const auto task_us = static_cast<int>(args.get_int("task-us", 20));
    const auto reps = static_cast<int>(args.get_int("reps", 3));
    const std::string json_path = args.get("json", "");
    const bool strict = args.get_bool("strict", false);

    // Four fast tasks; the stateful first one pins a sequential stage, the
    // rest replicate -- the same shape the runtime tests use, small enough
    // that per-frame telemetry cost is visible against the service time.
    constexpr int kTasks = 4;
    std::vector<core::TaskDesc> descs;
    rt::TaskSequence<Frame> sequence;
    for (int i = 1; i <= kTasks; ++i) {
        const auto w = static_cast<double>(task_us);
        descs.push_back(core::TaskDesc{"t" + std::to_string(i), w, 1.6 * w, i != 1});
        sequence.push_back(rt::make_task<Frame>("t" + std::to_string(i), i == 1, [task_us](Frame&) {
            spin_for(std::chrono::microseconds{task_us});
        }));
    }
    const core::TaskChain chain{std::move(descs)};
    const core::Resources resources{3, 2};
    const core::Solution solution =
        core::schedule(core::ScheduleRequest{chain, resources, core::Strategy::herad}).solution;

    std::printf("== Ablation: observability overhead on the pipeline hot path ==\n");
    std::printf("chain: %d tasks x %d us, schedule %s, %llu frames, best of %d reps\n\n", kTasks,
                task_us, solution.decomposition().c_str(),
                static_cast<unsigned long long>(frames), reps);

    struct Mode {
        const char* name;
        obs::Sink* sink;
    };
    obs::Sink disabled{obs::SinkConfig::null()};
    obs::Sink recording;
    const Mode modes[] = {
        {"no sink", nullptr},
        {"disabled sink", &disabled},
        {"recording sink", &recording},
    };

    double fps[3] = {0.0, 0.0, 0.0};
    for (int rep = 0; rep < reps; ++rep) {
        for (int k = 0; k < 3; ++k) {
            const int m = (rep + k) % 3;
            rt::PipelineConfig config;
            config.sink = modes[m].sink;
            rt::Pipeline<Frame> pipeline{sequence, solution, config};
            const rt::RunResult result = pipeline.run(frames, {});
            if (result.fps() > fps[m])
                fps[m] = result.fps();
        }
    }

    TextTable table({"mode", "fps (best)", "vs no sink"});
    bench::JsonReport report{"ablation_obs_overhead"};
    report.param("frames", frames)
        .param("task_us", task_us)
        .param("reps", reps)
        .param("schedule", solution.decomposition());
    for (int m = 0; m < 3; ++m) {
        const double overhead_pct = fps[0] > 0.0 ? (1.0 - fps[m] / fps[0]) * 100.0 : 0.0;
        table.add_row({modes[m].name, fmt(fps[m], 1),
                       m == 0 ? std::string{"--"} : fmt(overhead_pct, 2) + " %"});
        report.add_record()
            .set("mode", modes[m].name)
            .set("fps", fps[m])
            .set("overhead_pct", overhead_pct);
    }
    std::printf("%s\n", table.str().c_str());

    const double null_overhead = fps[0] > 0.0 ? (1.0 - fps[1] / fps[0]) * 100.0 : 0.0;
    std::printf("disabled-sink overhead: %.2f %% (target <= 2 %%)\n", null_overhead);
    std::printf("recording sink captured %llu trace events (%llu dropped)\n",
                static_cast<unsigned long long>(recording.trace().total_events()),
                static_cast<unsigned long long>(recording.trace().total_dropped()));

    if (!json_path.empty()) {
        report.metrics(recording.metrics().snapshot());
        if (!report.write_file(json_path))
            std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
        else
            std::printf("json report: %s\n", json_path.c_str());
    }
    return (strict && null_overhead > 2.0) ? 1 : 0;
}
