// stream: the data plane.
//
// One rt::Pipeline runs the Table III Mac Studio receiver profile (23
// tasks) under HeRAD on R = (1,1): the plan is (12,1L),(11,1B), two stage
// workers. Tasks spin on the clock, scaled so the slower stage takes about
// 1.5 ms, and a metrics-only obs::Sink is attached as a deployment that
// exports metrics would run. Phase A runs saturated and gives the
// throughput; phase B paces the source at half the plan's predicted rate,
// stamps each frame's due time and gives the latencies, from due time to
// delivery. rt (with the obs metric hooks) is the only ampsched code on
// the timed path.
//
// Each task spins for its nominal big-core weight. Little cores are
// emulated by LittleEmulator, which spins a little-stage task on to its
// nominal little weight measured from the start of the task's own work:
// unlike rt::SlowdownEmulator, which multiplies the task's measured elapsed
// time, a pacing wait or a preemption inside the task is not stretched.
// The first task of a stage stamps the frame's entry time and the emulator,
// called right after the stage's last task, its exit time; those stamps give
// the per-stage service and wait times from outside the runtime.

#include "bench.hpp"

#include "core/scheduler.hpp"
#include "dvbs2/profiles.hpp"
#include "obs/sink.hpp"
#include "plan/execution_plan.hpp"
#include "rt/core_emulator.hpp"
#include "rt/pipeline.hpp"
#include "rt/task.hpp"
#include "svc/solver_service.hpp"

#include <array>
#include <cmath>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <vector>

namespace perfbench {
namespace {

using namespace amp;

/// Spin time of the plan's bottleneck stage.
constexpr double kStageUs = 1500.0;
/// Phase A's share of a pass; phase B (paced, latency) gets the rest.
constexpr double kSaturatedShare = 0.35;
/// Frames at the start of phase A left out of the rate (pipeline fill).
constexpr std::uint64_t kFillFrames = 16;

struct Frame {
    std::uint64_t seq = 0;   ///< set by rt::Pipeline from the stream position
    std::int64_t due_ns = 0; ///< paced phase: when the source was due to start it
    std::array<std::int64_t, 2> enter_ns{};
    std::array<std::int64_t, 2> exit_ns{};
};

/// Nominal per-task spin times and the stage layout the stamps follow.
/// Written only between stream segments; tasks read it while one runs.
struct SpinModel {
    std::vector<std::int64_t> big_ns;    ///< per task, 0-based
    std::vector<std::int64_t> little_ns; ///< per task, 0-based
    std::vector<std::size_t> stage_of;   ///< per task
    std::vector<bool> stage_first;
    std::vector<bool> stage_last;
    /// Source pacing: frame s is due at pace_origin_ns + s * pace_ns;
    /// pace_ns == 0 runs the source saturated.
    std::int64_t pace_ns = 0;
    std::int64_t pace_origin_ns = 0;
};

SpinModel spin_model(const core::TaskChain& chain, const plan::ExecutionPlan& plan,
                     double scale_ns)
{
    SpinModel model;
    for (int i = 1; i <= chain.size(); ++i) {
        model.big_ns.push_back(std::llround(chain.weight(i, core::CoreType::big) * scale_ns));
        model.little_ns.push_back(
            std::llround(chain.weight(i, core::CoreType::little) * scale_ns));
    }
    const auto n = static_cast<std::size_t>(chain.size());
    model.stage_of.assign(n, 0);
    model.stage_first.assign(n, false);
    model.stage_last.assign(n, false);
    for (const plan::PlanStage& stage : plan.stages()) {
        for (int i = stage.first; i <= stage.last; ++i)
            model.stage_of[static_cast<std::size_t>(i - 1)] =
                static_cast<std::size_t>(stage.index);
        model.stage_first[static_cast<std::size_t>(stage.first - 1)] = true;
        model.stage_last[static_cast<std::size_t>(stage.last - 1)] = true;
    }
    return model;
}

/// The frame and work start of the task this worker thread just ran; the
/// emulator runs right after it on the same thread.
struct TaskContext {
    Frame* frame = nullptr;
    std::int64_t work_start_ns = 0;
};
thread_local TaskContext t_context;

rt::TaskSequence<Frame> spin_sequence(const core::TaskChain& chain, const SpinModel& model)
{
    rt::TaskSequence<Frame> sequence;
    for (int i = 1; i <= chain.size(); ++i) {
        const auto t = static_cast<std::size_t>(i - 1);
        const SpinModel* m = &model;
        sequence.push_back(rt::make_task<Frame>(
            chain.task(i).name, !chain.replicable(i), [m, t](Frame& frame) {
                if (t == 0 && m->pace_ns > 0) {
                    frame.due_ns =
                        m->pace_origin_ns + static_cast<std::int64_t>(frame.seq) * m->pace_ns;
                    spin_until_ns(frame.due_ns);
                }
                const std::int64_t start = now_ns();
                t_context = {&frame, start};
                if (m->stage_first[t])
                    frame.enter_ns[m->stage_of[t]] = start;
                spin_until_ns(start + m->big_ns[t]);
            }));
    }
    return sequence;
}

class LittleEmulator final : public rt::CoreEmulator {
public:
    explicit LittleEmulator(const SpinModel& model)
        : model_(model)
    {
    }

    void after_task(int task_index, core::CoreType worker_type,
                    std::chrono::nanoseconds) override
    {
        const auto t = static_cast<std::size_t>(task_index - 1);
        if (worker_type == core::CoreType::little)
            spin_until_ns(t_context.work_start_ns + model_.little_ns[t]);
        if (model_.stage_last[t])
            t_context.frame->exit_ns[model_.stage_of[t]] = now_ns();
    }

private:
    const SpinModel& model_;
};

class Stream final : public Workload {
public:
    explicit Stream(bool alone)
        : alone_(alone)
    {
    }

    void setup() override
    {
        pipeline_.reset();
        const core::TaskChain chain = dvbs2::profile_chain(dvbs2::mac_studio_profile());
        svc::ServiceConfig config;
        config.workers = 1;
        config.cache_capacity = 16;
        svc::SolverService service{config};
        const svc::PlannedSchedule planned =
            service.solve_planned(core::ScheduleRequest{chain, {1, 1}, core::Strategy::herad});
        if (!planned.ok() || planned.plan->summary().rfind("[1,12]x1L | [13,23]x1B", 0) != 0)
            throw std::runtime_error{"stream: HeRAD on (1,1) no longer plans (12,1L),(11,1B): "
                                     + (planned.ok() ? planned.plan->summary() : "no plan")};
        plan_period_us_ = planned.plan->period_us();
        scale_ = kStageUs / plan_period_us_;
        model_ = spin_model(chain, *planned.plan, scale_ * 1e3);
        sequence_ = spin_sequence(chain, model_);
        emulator_ = std::make_unique<LittleEmulator>(model_);
        sink_ = std::make_unique<obs::Sink>(obs::SinkConfig{.metrics = true, .trace = false});
        rt::PipelineConfig pipeline_config;
        pipeline_config.emulator = emulator_.get();
        pipeline_config.sink = sink_.get();
        pipeline_ = std::make_unique<rt::Pipeline<Frame>>(sequence_, *planned.plan,
                                                          pipeline_config);
        (void)pipeline_->run(0); // starts the stage workers
    }

    void warm_up(double seconds, Report& report) override
    {
        Tracer off{false};
        model_.pace_ns = 0;
        run_phase(frames_for(seconds, period_ns()), off, 0, report, nullptr);
    }

    PassSummary pass(double seconds, Tracer& tracer, Report& report) override
    {
        latencies_us_.clear();
        for (auto& samples : stage_samples_)
            samples.clear();
        dropped_ = 0;
        out_of_order_ = 0;

        const std::int64_t start = now_ns();
        // Phase A: saturated source.
        model_.pace_ns = 0;
        std::vector<std::int64_t> delivered;
        const std::uint64_t frames_a =
            std::max<std::uint64_t>(4 * kFillFrames, frames_for(seconds * kSaturatedShare,
                                                               period_ns()));
        run_phase(frames_a, tracer, 1, report, &delivered);
        throughput_ = delivered.size() > kFillFrames
            ? windowed_rate(delivered, delivered[kFillFrames], delivered.back())
            : 0.0;
        // Phase B: source paced at half the predicted rate.
        model_.pace_ns = 2 * period_ns();
        model_.pace_origin_ns = now_ns() + 1'000'000;
        const std::uint64_t frames_b =
            std::max<std::uint64_t>(16, frames_for(seconds * (1.0 - kSaturatedShare),
                                                   model_.pace_ns));
        run_phase(frames_b, tracer, 2, report, nullptr);
        model_.pace_ns = 0;
        span_from_ = start;
        span_to_ = now_ns();
        return {throughput_};
    }

    void end_to_end(Report& report) const override
    {
        report_rate_and_latency(report, throughput_, latencies_us_);
    }

    void per_layer(const Tracer& tracer, Report& report) const override
    {
        const double predicted_s = plan_period_us_ * scale_ / 1e6;
        report.metric("rt.period_ratio",
                      throughput_ > 0.0 ? (1.0 / throughput_) / predicted_s : 0.0, "ratio");
        const char* names[4] = {"rt.stage0.service_p50_us", "rt.stage0.wait_p50_us",
                                "rt.stage1.service_p50_us", "rt.stage1.wait_p50_us"};
        for (std::size_t i = 0; i < 4; ++i)
            report.metric(names[i], quantile(stage_samples_[i], 0.5), "us");
        report.metric("rt.drain_p50_us", quantile(stage_samples_[4], 0.5), "us");
        report.metric("rt.generator_late_p99_us", quantile(stage_samples_[1], 0.99), "us");
        report.metric("rt.frames_dropped", static_cast<double>(dropped_), "count");
        report.metric("rt.out_of_order", static_cast<double>(out_of_order_), "count");
        report_busy_shares(report, tracer, span_from_, span_to_);
        if (alone_)
            report.check(!tracer.any_outside(Layer::rt, span_from_, span_to_),
                         "stream: no span outside rt during the timed phases");
    }

private:
    [[nodiscard]] std::int64_t period_ns() const
    {
        return static_cast<std::int64_t>(plan_period_us_ * scale_ * 1e3);
    }

    [[nodiscard]] static std::uint64_t frames_for(double seconds, std::int64_t period_ns)
    {
        return static_cast<std::uint64_t>(seconds * 1e9 / static_cast<double>(period_ns));
    }

    /// Runs one stream segment of `frames` frames and checks that every
    /// frame arrives exactly once, in order. Phase 0 is the warm-up (not
    /// counted), 1 the saturated phase, 2 the paced one, which records the
    /// latency samples and stage stamps; `delivered`, when given, receives
    /// each frame's delivery time.
    void run_phase(std::uint64_t frames, Tracer& tracer, int phase, Report& report,
                   std::vector<std::int64_t>* delivered)
    {
        std::uint64_t expected = 0;
        std::uint64_t disorder = 0;
        rt::RunResult result;
        {
            ScopedSpan run{tracer, phase == 2 ? "rt.run.paced" : "rt.run.saturated", Layer::rt,
                           0, phase};
            const std::int64_t run_id = run.id();
            try {
                result = pipeline_->run(frames, [&](Frame& frame) {
                    const std::int64_t now = now_ns();
                    if (frame.seq != expected)
                        ++disorder;
                    expected = frame.seq + 1;
                    if (delivered != nullptr)
                        delivered->push_back(now);
                    if (tracer.on())
                        for (std::size_t s = 0; s < 2; ++s)
                            tracer.add({s == 0 ? "stage0" : "stage1", Layer::rt,
                                        frame.enter_ns[s], frame.exit_ns[s], tracer.new_id(),
                                        run_id, static_cast<std::int64_t>(frame.seq),
                                        10 + static_cast<int>(s)});
                    if (phase == 2) {
                        latencies_us_.push_back(ns_to_us(now - frame.due_ns));
                        stage_samples_[0].push_back(ns_to_us(frame.exit_ns[0] - frame.enter_ns[0]));
                        stage_samples_[1].push_back(ns_to_us(frame.enter_ns[0] - frame.due_ns));
                        stage_samples_[2].push_back(ns_to_us(frame.exit_ns[1] - frame.enter_ns[1]));
                        stage_samples_[3].push_back(ns_to_us(frame.enter_ns[1] - frame.exit_ns[0]));
                        stage_samples_[4].push_back(ns_to_us(now - frame.exit_ns[1]));
                    }
                });
            } catch (const std::exception& error) {
                report.failed_with(error.what());
                return;
            }
        }
        if (tracer.on())
            note_thread_count();
        const bool counted = phase != 0;
        const std::uint64_t missing = frames - std::min(frames, result.frames);
        if (counted) {
            for (std::uint64_t i = 0; i < frames; ++i)
                report.operation(i >= missing);
            dropped_ += result.frames_dropped;
            out_of_order_ += disorder;
        }
        report.check(result.frames == frames && result.frames_dropped == 0 && disorder == 0,
                     "stream: every frame is delivered exactly once and in order ("
                         + std::to_string(result.frames) + "/" + std::to_string(frames)
                         + " delivered, " + std::to_string(result.frames_dropped)
                         + " dropped, " + std::to_string(disorder) + " out of order)");
    }

    bool alone_; ///< no other workload shares the run
    SpinModel model_;
    rt::TaskSequence<Frame> sequence_;
    std::unique_ptr<LittleEmulator> emulator_;
    std::unique_ptr<obs::Sink> sink_;
    std::unique_ptr<rt::Pipeline<Frame>> pipeline_;
    double plan_period_us_ = 0.0;
    double scale_ = 0.0;

    std::vector<double> latencies_us_;
    /// Paced phase: stage0 service, stage0 wait (how late the source
    /// started the frame), stage1 service, stage1 wait, drain wait.
    std::array<std::vector<double>, 5> stage_samples_;
    std::uint64_t dropped_ = 0;
    std::uint64_t out_of_order_ = 0;
    std::int64_t span_from_ = 0;
    std::int64_t span_to_ = 0;
    double throughput_ = 0.0;
};

} // namespace

std::unique_ptr<Workload> make_stream(bool alone)
{
    return std::make_unique<Stream>(alone);
}

} // namespace perfbench
