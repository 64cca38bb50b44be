// Extension bench: multi-tenant arbitration of one shared (b, l) pool
// (docs/ARBITER.md). Three scenarios:
//
//   1. Policy mix. A skewed 8-tenant fleet (weights 8:4:4:2:2:1:1:1,
//      heterogeneous chain sizes, per-tenant demand proportional to
//      weight) replayed in virtual time by dsim::simulate_multi_tenant
//      under the three allocation policies: the arbiter's weighted
//      max-min water-filling, the static even split a no-arbiter
//      deployment would use, and strict priority service. Mid-window
//      churn (a late join and an early leave) exercises re-arbitration
//      under every policy. Reported per policy: aggregate goodput
//      (sum of min(rate, demand) over tenants) and the Jain fairness
//      index of weight-normalized rates. Weighted max-min must beat the
//      even split on BOTH metrics.
//
//   2. Determinism audit. The weighted max-min scenario replayed twice
//      against fresh solver services; the two rearbitration traces
//      (grant logs, budgets, periods -- bitwise) must be identical.
//
//   3. Live reweight. A real rt::Pipeline serves one tenant while a
//      second tenant competes for the same 4 big cores. Mid-stream the
//      pipeline tenant's weight is raised 1 -> 3; the arbiter
//      re-arbitrates, the budget change compiles to a resize-only plan
//      change and reaches the running pipeline as a grant to its
//      rt::Controller, bound by rt::PipelineControl (one
//      Pipeline::retarget), as a frame-granular in-flight swap: no drain,
//      no dropped frame, the spawned replica joins the live segment.
//
// Flags: --horizon-ms=N virtual window of scenario 1 (default 1000),
// --demand-util=F demand as a fraction of each tenant's fair rate
// (default 0.8), --frames=N scenario-3 stream length (default 400),
// --task-us=U scenario-3 per-task sleep (default 150), --workers=N
// solver workers (default 2), --json=<file> amp-bench-v1 report.

#include "arb/arbiter.hpp"
#include "common/argparse.hpp"
#include "common/table.hpp"
#include "dsim/simulator.hpp"
#include "rt/controller.hpp"
#include "rt/pipeline.hpp"
#include "rt/task.hpp"
#include "support/bench_json.hpp"
#include "svc/solver_service.hpp"

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace amp;

struct Frame {
    std::uint64_t seq = 0;
};

/// All-replicable chain of `tasks` tasks, `total_big_us` total big-core
/// weight, littles at half speed -- a clean speedup curve on both types.
core::TaskChain fleet_chain(int tasks, double total_big_us)
{
    std::vector<core::TaskDesc> descs;
    descs.reserve(static_cast<std::size_t>(tasks));
    const double w_big = total_big_us / tasks;
    for (int i = 1; i <= tasks; ++i)
        descs.push_back(core::TaskDesc{"t" + std::to_string(i), w_big, 2.0 * w_big, true});
    return core::TaskChain{std::move(descs)};
}

/// The skewed fleet: heavy interactive tenants down to light batch ones.
struct FleetTenant {
    const char* name;
    double weight;
    int tasks;
    double total_big_us;
};

constexpr FleetTenant kFleet[] = {
    {"video", 8.0, 6, 120.0}, {"asr", 4.0, 4, 80.0},    {"ocr", 4.0, 5, 100.0},
    {"rank", 2.0, 4, 60.0},   {"embed", 2.0, 3, 45.0},  {"batch-a", 1.0, 4, 50.0},
    {"batch-b", 1.0, 3, 40.0}, {"batch-c", 1.0, 5, 70.0},
};
constexpr std::size_t kFleetSize = std::size(kFleet);

dsim::MultiTenantScenario fleet_scenario(arb::AllocPolicy policy, double demand_unit,
                                         std::int64_t horizon_us,
                                         svc::SolverService* service)
{
    dsim::MultiTenantScenario scenario;
    scenario.pool = core::Resources{12, 8};
    scenario.policy = policy;
    scenario.horizon_us = horizon_us;
    scenario.service = service;
    for (std::size_t t = 0; t < kFleetSize; ++t) {
        dsim::SimTenant tenant;
        tenant.spec.name = kFleet[t].name;
        tenant.spec.chain = fleet_chain(kFleet[t].tasks, kFleet[t].total_big_us);
        tenant.spec.weight = kFleet[t].weight;
        tenant.spec.priority = static_cast<std::int8_t>(kFleet[t].weight);
        tenant.demand_fps = demand_unit > 0.0 ? kFleet[t].weight * demand_unit : 0.0;
        scenario.tenants.push_back(std::move(tenant));
    }
    // Everyone but "ocr" joins at t=0; churn mid-window under all policies:
    // ocr joins at 25%, embed leaves at 70%.
    for (std::size_t t = 0; t < kFleetSize; ++t)
        if (std::string{kFleet[t].name} != "ocr")
            scenario.events.push_back(
                dsim::TenantEvent{0, dsim::TenantEventKind::join, t});
    scenario.events.push_back(
        dsim::TenantEvent{horizon_us / 4, dsim::TenantEventKind::join, 2});
    scenario.events.push_back(
        dsim::TenantEvent{horizon_us * 7 / 10, dsim::TenantEventKind::leave, 4});
    return scenario;
}

/// Fair per-weight rate: probe the weighted max-min allocation without
/// demand caps and take the worst weight-normalized rate across tenants --
/// the level an ideal arbiter sustains for every unit of weight.
double fair_unit_rate(std::int64_t horizon_us, int workers)
{
    svc::SolverService service{svc::ServiceConfig{.workers = workers}};
    const dsim::MultiTenantResult probe = dsim::simulate_multi_tenant(fleet_scenario(
        arb::AllocPolicy::weighted_max_min, 0.0, horizon_us, &service));
    double unit = 0.0;
    for (const dsim::TenantSimStats& tenant : probe.tenants)
        if (tenant.present_us > 0.0
            && (unit == 0.0 || tenant.mean_weighted_rate < unit))
            unit = tenant.mean_weighted_rate;
    return unit * 1e6; // per-us rate -> frames per second
}

} // namespace

int main(int argc, char** argv)
{
    ArgParse args{argc, argv};
    const std::int64_t horizon_us = args.get_int("horizon-ms", 1000) * 1000;
    const double demand_util = args.get_double("demand-util", 0.8);
    const std::uint64_t frames = static_cast<std::uint64_t>(args.get_int("frames", 400));
    const int task_us = static_cast<int>(args.get_int("task-us", 150));
    const int workers = static_cast<int>(args.get_int("workers", 2));

    bench::JsonReport report{"ext_multi_tenant"};
    report.param("horizon_ms", horizon_us / 1000)
        .param("demand_util", demand_util)
        .param("frames", static_cast<std::int64_t>(frames))
        .param("task_us", task_us)
        .param("workers", workers);

    // -- scenario 1: policy mix --------------------------------------------
    const double unit_fps = fair_unit_rate(horizon_us, workers) * demand_util;
    std::printf("fleet: %zu tenants, pool (12b, 8l), demand %.0f fps per unit weight\n\n",
                kFleetSize, unit_fps);

    struct PolicyOutcome {
        arb::AllocPolicy policy;
        dsim::MultiTenantResult result;
    };
    std::vector<PolicyOutcome> outcomes;
    TextTable table{{"policy", "goodput_fps", "jain", "rearbs", "probes"}};
    for (const arb::AllocPolicy policy :
         {arb::AllocPolicy::weighted_max_min, arb::AllocPolicy::even_split,
          arb::AllocPolicy::priority_only}) {
        svc::SolverService service{svc::ServiceConfig{.workers = workers}};
        dsim::MultiTenantResult result = dsim::simulate_multi_tenant(
            fleet_scenario(policy, unit_fps, horizon_us, &service));
        table.add_row({to_string(policy), fmt(result.aggregate_goodput_fps, 1),
                       fmt(result.jain_weighted, 4),
                       std::to_string(result.rearbitrations),
                       std::to_string(result.probes)});
        auto& record = report.add_record();
        record.set("scenario", "policy_mix")
            .set("policy", to_string(policy))
            .set("goodput_fps", result.aggregate_goodput_fps)
            .set("jain_weighted", result.jain_weighted)
            .set("rearbitrations", result.rearbitrations)
            .set("probes", result.probes);
        outcomes.push_back(PolicyOutcome{policy, std::move(result)});
    }
    std::printf("%s\n", table.str().c_str());

    const dsim::MultiTenantResult& fair = outcomes[0].result;
    const dsim::MultiTenantResult& even = outcomes[1].result;
    const bool beats_even = fair.aggregate_goodput_fps > even.aggregate_goodput_fps
        && fair.jain_weighted > even.jain_weighted;
    std::printf("weighted max-min vs even split: goodput x%.2f, jain %+0.3f -> %s\n\n",
                fair.aggregate_goodput_fps / even.aggregate_goodput_fps,
                fair.jain_weighted - even.jain_weighted,
                beats_even ? "PASS" : "FAIL");
    report.add_record()
        .set("scenario", "policy_summary")
        .set("goodput_ratio_vs_even",
             fair.aggregate_goodput_fps / even.aggregate_goodput_fps)
        .set("jain_delta_vs_even", fair.jain_weighted - even.jain_weighted)
        .set("weighted_beats_even", beats_even);

    // -- scenario 2: determinism audit -------------------------------------
    bool trace_equal = false;
    {
        svc::SolverService service_a{svc::ServiceConfig{.workers = workers}};
        svc::SolverService service_b{svc::ServiceConfig{.workers = workers}};
        const dsim::MultiTenantResult first = dsim::simulate_multi_tenant(fleet_scenario(
            arb::AllocPolicy::weighted_max_min, unit_fps, horizon_us, &service_a));
        const dsim::MultiTenantResult second = dsim::simulate_multi_tenant(fleet_scenario(
            arb::AllocPolicy::weighted_max_min, unit_fps, horizon_us, &service_b));
        trace_equal = first.trace == second.trace;
        std::printf("determinism: %zu-record trace replayed %s\n\n", first.trace.size(),
                    trace_equal ? "bit-identically" : "WITH DIVERGENCE");
        report.add_record()
            .set("scenario", "determinism")
            .set("trace_records", static_cast<std::uint64_t>(first.trace.size()))
            .set("trace_equal", trace_equal);
    }

    // -- scenario 3: live reweight through a running pipeline --------------
    obs::MetricsRegistry metrics;
    svc::SolverService service{
        svc::ServiceConfig{.workers = workers, .metrics = &metrics}};
    arb::ArbiterConfig config;
    config.pool = core::Resources{4, 0};
    config.service = &service;
    arb::Arbiter arbiter{config};

    // The pipeline tenant only runs on big cores; its plan is one
    // replicated stage, so every budget change is a resize-only delta.
    core::TaskChain live_chain = fleet_chain(4, 40.0);
    {
        std::vector<core::TaskDesc> big_only;
        for (int i = 1; i <= live_chain.size(); ++i) {
            const core::TaskDesc& task = live_chain.task(i);
            big_only.push_back(core::TaskDesc{task.name, task.w_big, 1e6, true});
        }
        live_chain = core::TaskChain{std::move(big_only)};
    }
    arb::TenantSpec live_spec;
    live_spec.name = "live";
    live_spec.chain = live_chain;
    arb::TenantSpec rival_spec;
    rival_spec.name = "rival";
    rival_spec.chain = live_chain;
    const arb::TenantId live_id = arbiter.add_tenant(live_spec);
    arbiter.add_tenant(rival_spec);
    arbiter.rearbitrate(); // 1:1 over 4 bigs -> 2 cores each

    rt::TaskSequence<Frame> sequence;
    for (int i = 1; i <= 4; ++i)
        sequence.push_back(rt::make_task<Frame>("t" + std::to_string(i), false,
                                                [task_us](Frame&) {
                                                    std::this_thread::sleep_for(
                                                        std::chrono::microseconds{task_us});
                                                }));
    const arb::TenantStatus before = arbiter.status(live_id);
    rt::Pipeline<Frame> pipeline{sequence, *before.planned.plan, rt::PipelineConfig{}};
    rt::ControlConfig control;
    control.service = &service;
    rt::Controller controller{live_chain, before.budget, control};
    rt::PipelineControl<Frame> endpoint{controller, pipeline};
    arbiter.bind_endpoint(live_id, &endpoint);

    // The reweight is issued from the output thread after frame 10, so it
    // reaches the pipeline mid-stream by construction.
    arb::ArbitrationReport reweight;
    int live_workers_after_swap = 0;
    std::uint64_t delivered = 0;
    const rt::RunResult run = pipeline.run(frames, [&](Frame&) {
        if (++delivered != 10)
            return;
        arbiter.set_weight(live_id, 3.0); // mid-stream upgrade: 3:1 -> 3 cores
        reweight = arbiter.rearbitrate();
        live_workers_after_swap = pipeline.live_workers();
    });

    const arb::TenantChange* live_change = nullptr;
    for (const arb::TenantChange& change : reweight.changes)
        if (change.id == live_id)
            live_change = &change;
    const bool frame_swapped = live_change != nullptr
        && live_change->swap == plan::SwapOutcome::frame
        && reweight.frame_swaps() == 1;
    std::printf("live reweight: budget (%d b) -> (%d b), swap=%s, "
                "%llu/%llu frames, %llu dropped, workers after swap=%d -> %s\n",
                live_change != nullptr ? live_change->before.big : -1,
                live_change != nullptr ? live_change->after.big : -1,
                live_change != nullptr ? to_string(live_change->swap) : "?",
                static_cast<unsigned long long>(run.frames),
                static_cast<unsigned long long>(frames),
                static_cast<unsigned long long>(run.frames_dropped),
                live_workers_after_swap,
                frame_swapped && run.frames == frames && run.frames_dropped == 0
                    ? "PASS"
                    : "FAIL");
    report.add_record()
        .set("scenario", "live_reweight")
        .set("budget_before_big", live_change != nullptr ? live_change->before.big : -1)
        .set("budget_after_big", live_change != nullptr ? live_change->after.big : -1)
        .set("swap", live_change != nullptr ? to_string(live_change->swap) : "?")
        .set("frame_swaps", reweight.frame_swaps())
        .set("frames", run.frames)
        .set("frames_delivered", delivered)
        .set("frames_dropped", run.frames_dropped)
        .set("live_workers_after_swap", live_workers_after_swap)
        .set("no_drain_pass", frame_swapped && run.frames == frames
                 && run.frames_dropped == 0);
    report.metrics(metrics.snapshot());

    if (args.has("json")) {
        const std::string path = args.get("json", "");
        if (!report.write_file(path)) {
            std::fprintf(stderr, "failed to write %s\n", path.c_str());
            return 1;
        }
        std::printf("json report: %s\n", path.c_str());
    }
    return beats_even && trace_equal && frame_swapped ? 0 : 2;
}
