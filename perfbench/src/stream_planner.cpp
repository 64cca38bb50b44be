// stream_planner: the data plane beside a co-located capacity planner.
//
// The stream workload runs unchanged on the main thread while one more
// thread runs capacity_sweep's planning queries back to back. The planner
// solves its grid one request at a time instead of as a pool batch, so
// planner (one thread) and pipeline (two stage workers and the draining
// main thread) fit on four CPUs. The end-to-end metrics are the stream's:
// frames must not suffer from the planning next to them. The traced run
// times the planner's core, svc, plan and dsim calls alongside the
// pipeline's rt stamps. Planner queries count as operations too.
//
// CPU-bound end-to-end figures swing by up to 40% between runs minutes
// apart on a shared host (README.md), so the solver and simulator are gated
// here only through the pipeline they share the machine with; their own
// speed shows in the per-layer metrics.

#include "bench.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <exception>
#include <thread>

namespace perfbench {
namespace {

constexpr int kPlannerNice = 19;

class StreamPlanner final : public Workload {
public:
    explicit StreamPlanner(const RunOptions& options)
        : stream_(make_stream(false))
        , planner_(make_capacity_sweep(options, 0))
    {
    }

    void setup() override
    {
        stream_->setup();
        planner_->setup();
    }

    void warm_up(double seconds, Report& report) override
    {
        beside(report, [&](Report& side) { planner_->warm_up(seconds, side); },
               [&] { stream_->warm_up(seconds, report); });
    }

    PassSummary pass(double seconds, Tracer& tracer, Report& report) override
    {
        PassSummary summary;
        beside(report, [&](Report& side) { (void)planner_->pass(seconds, tracer, side); },
               [&] { summary = stream_->pass(seconds, tracer, report); });
        return summary;
    }

    void end_to_end(Report& report) const override { stream_->end_to_end(report); }

    void per_layer(const Tracer& tracer, Report& report) const override
    {
        // Both write <layer>.busy_share over their pass; the stream's pass
        // spans the planner's, so its figures are the ones kept.
        planner_->per_layer(tracer, report);
        stream_->per_layer(tracer, report);
    }

private:
    /// Runs `planner` on its own thread (with its own report, merged after)
    /// while `stream` runs on this one.
    template <typename Planner, typename Stream>
    static void beside(Report& report, Planner planner, Stream stream)
    {
        Report side;
        std::thread thread{[&] {
            // The planner yields to the pipeline, as a deployment would run a
            // planner next to its data plane.
            (void)setpriority(PRIO_PROCESS, static_cast<id_t>(gettid()), kPlannerNice);
            try {
                planner(side);
            } catch (const std::exception& error) {
                side.failed_with(error.what());
            }
        }};
        try {
            stream();
        } catch (...) {
            thread.join();
            throw;
        }
        thread.join();
        report.merge(side);
    }

    std::unique_ptr<Workload> stream_;
    std::unique_ptr<Workload> planner_;
};

} // namespace

std::unique_ptr<Workload> make_stream_planner(const RunOptions& options)
{
    return std::make_unique<StreamPlanner>(options);
}

} // namespace perfbench
