#include "dsim/simulator.hpp"

#include "obs/schema.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace amp::dsim {

namespace {

/// Telemetry wiring for one stage structure ("epoch"). Tracks are keyed on
/// the plan's stable worker ids exactly like the runtime's, so the simulated
/// trace and a real rt::Pipeline trace of the same plan are diffable
/// (obs/schema.hpp). A rescheduled run opens a fresh epoch from a freshly
/// compiled plan, which appends a new track group -- mirroring
/// run_with_recovery's hot-swap.
struct ObsEpoch {
    obs::TraceRecorder* trace = nullptr;
    obs::MetricsRegistry* metrics = nullptr;
    std::size_t track_base = 0;
    std::size_t watchdog_track = 0;
    std::vector<std::size_t> stage_offset; ///< first server track per stage
    std::vector<std::uint32_t> span_names;
    std::vector<obs::Histogram*> stage_latency;
    std::vector<obs::Histogram*> queue_wait;
    std::uint32_t fence_name = 0;
    std::uint32_t tombstone_name = 0;

    ObsEpoch() = default;

    ObsEpoch(obs::Sink* sink, const plan::ExecutionPlan& plan)
    {
        if (sink == nullptr || !sink->enabled())
            return;
        const auto& stages = plan.stages();
        if (sink->trace_enabled()) {
            trace = &sink->trace();
            track_base = trace->track_count();
            std::size_t offset = 0;
            for (const plan::PlanStage& st : stages) {
                stage_offset.push_back(offset);
                span_names.push_back(
                    trace->intern(obs::schema::stage_span(st.index, st.first, st.last)));
                for (const int worker : st.worker_ids)
                    trace->add_track(obs::schema::worker_track(worker, st.index));
                offset += st.worker_ids.size();
            }
            watchdog_track = trace->add_track(obs::schema::kWatchdogTrack);
            fence_name = trace->intern(obs::schema::kFence);
            tombstone_name = trace->intern(obs::schema::kTombstone);
        }
        if (sink->metrics_enabled()) {
            metrics = &sink->metrics();
            for (const plan::PlanStage& st : stages) {
                stage_latency.push_back(&metrics->histogram(obs::schema::stage_latency(st.index)));
                queue_wait.push_back(&metrics->histogram(obs::schema::queue_wait(st.index)));
            }
        }
    }

    [[nodiscard]] bool active() const noexcept { return trace != nullptr || metrics != nullptr; }

    /// One frame crossing one stage on one server, at virtual time.
    void record_span(std::size_t stage, std::size_t server, std::uint64_t frame,
                     double start_us, double service_us, double wait_us)
    {
        if (!stage_latency.empty())
            stage_latency[stage]->record_us(service_us);
        // Stage 0 sources frames (no input queue), same as the runtime.
        if (stage > 0 && !queue_wait.empty())
            queue_wait[stage]->record_us(wait_us);
        if (trace != nullptr)
            trace->emit_complete(track_base + stage_offset[stage] + server, span_names[stage],
                                 start_us, service_us, frame, static_cast<std::int32_t>(stage));
    }

    /// Watchdog-equivalent fence + tombstone at the failure's virtual time.
    void record_loss(std::size_t stage, std::uint64_t frame, double ts_us)
    {
        if (metrics != nullptr)
            metrics->counter(obs::schema::kWorkersFenced).inc(0);
        if (trace != nullptr) {
            trace->emit_instant(watchdog_track, fence_name, ts_us, frame,
                                static_cast<std::int32_t>(stage));
            trace->emit_instant(watchdog_track, tombstone_name, ts_us, frame,
                                static_cast<std::int32_t>(stage));
        }
    }

    /// End-of-run totals, mirroring rt::Pipeline::run's final block.
    void record_run(std::uint64_t delivered, std::uint64_t dropped, double elapsed_us,
                    double fps) const
    {
        if (metrics == nullptr)
            return;
        metrics->counter(obs::schema::kFramesDelivered).add(0, delivered);
        metrics->counter(obs::schema::kFramesDropped).add(0, dropped);
        metrics->gauge(obs::schema::kRunElapsedSeconds).set(elapsed_us / 1e6);
        metrics->gauge(obs::schema::kRunFps).set(fps);
    }
};

/// Per-stage service model + server availability for one plan epoch. The
/// base service weights come straight from the plan's IR (PlanStage::
/// service_us), so simulator and runtime agree by construction on what each
/// stage costs.
struct StageModel {
    std::vector<double> base_service;
    std::vector<double> penalty;
    std::vector<std::vector<double>> server_free; ///< ring per stage
    std::vector<double> depart;                   ///< current frame, per stage
    std::vector<double> busy;                     ///< summed service per stage

    StageModel(const plan::ExecutionPlan& plan, const OverheadModel& overhead, double ready_at)
    {
        const auto& stages = plan.stages();
        const std::size_t k = stages.size();
        base_service.resize(k);
        penalty.resize(k);
        server_free.resize(k);
        depart.assign(k, 0.0);
        busy.assign(k, 0.0);
        for (std::size_t i = 0; i < k; ++i) {
            const plan::PlanStage& st = stages[i];
            base_service[i] = st.service_us;
            penalty[i] = 1.0 + overhead.service_inflation;
            if (st.replicas > 1) {
                penalty[i] += overhead.replication_penalty;
                if (st.type == core::CoreType::little)
                    penalty[i] += overhead.little_replication_penalty;
            }
            server_free[i].assign(static_cast<std::size_t>(st.replicas), ready_at);
        }
    }
};

} // namespace

SimulationResult simulate(const plan::ExecutionPlan& plan, const SimulationConfig& config)
{
    if (!plan.has_profile())
        throw std::invalid_argument{
            "simulate: plan has no task-weight profile (compile it from a TaskChain)"};
    if (config.frames <= config.warmup_frames)
        throw std::invalid_argument{"simulate: frames must exceed warmup_frames"};
    const FailureModel& faults = config.faults;
    if (!faults.failures.empty()) {
        if (!plan.linear())
            throw std::invalid_argument{"simulate: core losses replay on linear plans only"};
        const core::Resources used = plan.solution().used();
        if (faults.budget.big < used.big || faults.budget.little < used.little)
            throw std::invalid_argument{"simulate: faults.budget is below the plan's used cores"};
    }

    std::vector<SimFailure> pending = faults.failures;
    std::stable_sort(pending.begin(), pending.end(),
                     [](const SimFailure& a, const SimFailure& b) { return a.frame < b.frame; });
    const plan::ExecutionPlan* current = &plan;
    std::shared_ptr<const plan::ExecutionPlan> replanned; // owns *current after a loss
    // The runtime's own controller takes each loss: same chain, same
    // degraded resource vector, same warm HeRAD re-solve. Its land step
    // applies Pipeline::retarget's rule -- a plan::resize_only target swaps
    // in place (no drain), anything else rebuilds.
    std::optional<rt::Controller> controller;
    if (!pending.empty()) {
        controller.emplace(plan.chain(), faults.budget);
        controller->bind(
            [&current](const svc::PlannedSchedule& next) {
                return plan::resize_only(*current, *next.plan)
                    ? plan::SwapOutcome::frame
                    : plan::SwapOutcome::rebuild_required;
            },
            plan.options());
    }
    StageModel model{plan, config.overhead, 0.0};
    ObsEpoch obs{config.sink, plan};

    Rng rng{config.overhead.seed};
    const double cv = config.overhead.jitter_cv;
    const double sigma = cv > 0.0 ? std::sqrt(std::log(1.0 + cv * cv)) : 0.0;
    const double mu = -0.5 * sigma * sigma; // unit-mean lognormal

    SimulationResult result;
    std::size_t next_failure = 0;
    std::uint64_t departed = 0;
    double window_start = 0.0; // departure time of the last warmup frame
    double final_departure = 0.0;

    for (std::uint64_t f = 0; f < config.frames && result.schedulable; ++f) {
        if (next_failure < pending.size() && pending[next_failure].frame <= f) {
            // One loss per frame: frame f was in service on the lost core
            // and is dropped, so k losses due at one frame drop that frame
            // and the k - 1 after it (a loss left past the run's last frame
            // is not replayed), as each fence in rt tombstones its own frame.
            const SimFailure& event = pending[next_failure++];
            RecoveryRecord record;
            record.frame = f;
            record.stage = std::min(event.stage, current->stage_count() - 1);
            record.lost_type = current->stage(record.stage).type;
            record.downtime_us = faults.detection_us + faults.reschedule_us;
            record.frames_dropped = 1;
            result.frames_dropped += 1;
            if (obs.active())
                obs.record_loss(record.stage, f, final_departure + faults.detection_us);
            const rt::ControlRecord step = controller->loss({record.lost_type});
            record.resources_after = step.after;
            result.schedulable = step.result != rt::StepResult::infeasible; // else ends the run
            if (result.schedulable) {
                // A frame swap skips the drain entirely, so the stall is
                // detection + in-flight spawn.
                if (faults.frame_swap_us.has_value() && step.swap == plan::SwapOutcome::frame) {
                    record.frame_swap_applied = true;
                    record.downtime_us = faults.detection_us + *faults.frame_swap_us;
                }
                // Hot-swap: every server of the new structure becomes
                // available once the loss is detected and the new
                // schedule deployed. The resumed pipeline is a fresh
                // track group, exactly like run_with_recovery appending
                // a hot-swapped Pipeline's workers to the shared
                // recorder.
                replanned = controller->planned().plan;
                record.new_solution = controller->solution();
                current = replanned.get();
                model = StageModel{*current, config.overhead,
                                   final_departure + record.downtime_us};
                obs = ObsEpoch{config.sink, *current};
            }
            result.recoveries.push_back(std::move(record));
            continue;
        }

        // Stages are branch-major and plan edges point forward, so every
        // predecessor's departure is already computed when a stage is
        // visited; a fan-in stage starts once the *latest* predecessor copy
        // of the frame has crossed its adaptor (the runtime's merge gate pops
        // one envelope per input). A stage's servers take frames round-robin
        // by frames departed, which is the frame number until a loss.
        const auto& stages = current->stages();
        for (std::size_t i = 0; i < stages.size(); ++i) {
            double arrival = 0.0; // source stages produce frames continuously
            for (const int p : stages[i].preds)
                arrival = std::max(arrival, model.depart[static_cast<std::size_t>(p)]
                                                + config.overhead.adaptor_crossing_us);
            std::vector<double>& servers = model.server_free[i];
            const auto server = static_cast<std::size_t>(departed % servers.size());
            const double start = std::max(arrival, servers[server]);
            const double jitter = sigma > 0.0 ? std::exp(mu + sigma * rng.normal()) : 1.0;
            const double service = model.base_service[i] * model.penalty[i] * jitter;
            model.depart[i] = start + service;
            servers[server] = model.depart[i];
            model.busy[i] += service;
            if (obs.active())
                obs.record_span(i, server, f, start, service, start - arrival);
        }
        final_departure = model.depart[static_cast<std::size_t>(current->sink_stage())];
        if (++departed == config.warmup_frames)
            window_start = final_departure;
    }

    result.final_solution = current->solution();
    const std::uint64_t measured =
        departed > config.warmup_frames ? departed - config.warmup_frames : 0;
    const double window = final_departure - window_start;
    result.period_us =
        measured > 0 && window > 0.0 ? window / static_cast<double>(measured) : 0.0;
    result.fps = result.period_us > 0.0 ? 1e6 / result.period_us : 0.0;
    obs.record_run(departed, result.frames_dropped, final_departure, result.fps);
    if (!result.recoveries.empty())
        return result; // no per-stage accounting across re-plans

    const auto& stages = plan.stages();
    result.stages.resize(stages.size());
    double active_energy = 0.0; // watt-us over the whole run
    for (std::size_t i = 0; i < stages.size(); ++i) {
        const double capacity = final_departure * static_cast<double>(stages[i].replicas);
        result.stages[i].utilization =
            capacity > 0.0 ? std::min(1.0, model.busy[i] / capacity) : 0.0;
        result.stages[i].mean_service_us = model.busy[i] / static_cast<double>(config.frames);
        active_energy += model.busy[i] * config.power.watts(stages[i].type);
    }
    result.energy_per_frame = active_energy / static_cast<double>(config.frames);
    return result;
}

SimulationResult simulate(const core::TaskChain& chain, const core::Solution& solution,
                          const SimulationConfig& config)
{
    return simulate(plan::ExecutionPlan::compile(chain, solution), config);
}

std::vector<SimFailure> random_failures(std::uint64_t seed, int count, std::uint64_t warmup,
                                        std::uint64_t frames, std::size_t stage_count)
{
    if (frames == 0 || stage_count == 0 || count <= 0)
        return {};
    if (warmup >= frames)
        warmup = 0;
    Rng rng{seed};
    std::vector<SimFailure> plan;
    plan.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        SimFailure failure;
        failure.frame = static_cast<std::uint64_t>(rng.uniform_int(
            static_cast<std::int64_t>(warmup), static_cast<std::int64_t>(frames) - 1));
        failure.stage = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(stage_count) - 1));
        plan.push_back(failure);
    }
    std::stable_sort(plan.begin(), plan.end(),
                     [](const SimFailure& a, const SimFailure& b) { return a.frame < b.frame; });
    return plan;
}

// -- multi-tenant arbitration ---------------------------------------------

namespace {

/// Accumulates one tenant's rate integrals over its presence intervals.
struct TenantAccumulator {
    bool present = false;
    double period_us = arb::kInfinitePeriod;
    double weight = 1.0;
    double present_us = 0.0;
    double frames = 0.0;
    double goodput_frames = 0.0;      ///< demand-capped frames
    double weighted_rate_us = 0.0;    ///< integral of (1/period)/weight dt
    bool ever_present = false;
};

} // namespace

MultiTenantResult simulate_multi_tenant(const MultiTenantScenario& scenario)
{
    if (scenario.horizon_us <= 0)
        throw std::invalid_argument{"simulate_multi_tenant: horizon must be positive"};
    for (std::size_t e = 0; e < scenario.events.size(); ++e) {
        const TenantEvent& event = scenario.events[e];
        if (event.at_us < 0 || event.at_us >= scenario.horizon_us)
            throw std::invalid_argument{
                "simulate_multi_tenant: event outside [0, horizon)"};
        if (e > 0 && event.at_us < scenario.events[e - 1].at_us)
            throw std::invalid_argument{
                "simulate_multi_tenant: events must be sorted by at_us"};
        if (event.kind != TenantEventKind::set_pool
            && event.tenant >= scenario.tenants.size())
            throw std::invalid_argument{
                "simulate_multi_tenant: event references unknown tenant"};
    }

    arb::ArbiterConfig config;
    config.pool = scenario.pool;
    config.policy = scenario.policy;
    config.service = scenario.service;
    arb::Arbiter arbiter{config};

    // Scenario index <-> arbiter id. Ids are handed out in join order, so a
    // rejoin gets a fresh id; the reverse map tracks only live tenants.
    std::vector<arb::TenantId> id_of(scenario.tenants.size(), 0);
    std::vector<TenantAccumulator> acc(scenario.tenants.size());

    MultiTenantResult result;
    std::int64_t now_us = 0;

    const auto integrate_to = [&](std::int64_t t_us) {
        const double dt = static_cast<double>(t_us - now_us);
        if (dt <= 0.0)
            return;
        for (std::size_t t = 0; t < acc.size(); ++t) {
            TenantAccumulator& a = acc[t];
            if (!a.present)
                continue;
            a.present_us += dt;
            if (std::isinf(a.period_us) || a.period_us <= 0.0)
                continue;
            const double rate_fps = 1e6 / a.period_us; // frames per second
            a.frames += dt / a.period_us;
            const double demand = scenario.tenants[t].demand_fps;
            const double good_fps = demand > 0.0 ? std::min(rate_fps, demand) : rate_fps;
            a.goodput_frames += dt * (good_fps / 1e6);
            a.weighted_rate_us += dt * (1.0 / a.period_us) / a.weight;
        }
        now_us = t_us;
    };

    const auto rearbitrate_and_record = [&](std::int64_t at_us) {
        const arb::ArbitrationReport report = arbiter.rearbitrate();
        result.rearbitrations += 1;
        result.probes += report.allocation.probes;

        ArbEventRecord record;
        record.at_us = at_us;
        record.generation = report.generation;
        record.steps = report.allocation.steps;
        record.tenants.reserve(report.ids.size());
        record.budgets.reserve(report.ids.size());
        record.periods_us.reserve(report.ids.size());
        for (std::size_t i = 0; i < report.ids.size(); ++i) {
            const arb::TenantId id = report.ids[i];
            const std::size_t scenario_index = static_cast<std::size_t>(
                std::find(id_of.begin(), id_of.end(), id) - id_of.begin());
            record.tenants.push_back(scenario_index);
            record.budgets.push_back(report.allocation.tenants[i].budget);
            record.periods_us.push_back(report.allocation.tenants[i].period_us);
            TenantAccumulator& a = acc[scenario_index];
            a.period_us = report.allocation.tenants[i].period_us;
        }
        result.trace.push_back(std::move(record));
    };

    std::size_t e = 0;
    while (e < scenario.events.size()) {
        const std::int64_t at_us = scenario.events[e].at_us;
        integrate_to(at_us);
        // Apply every event sharing this timestamp, then rearbitrate once.
        for (; e < scenario.events.size() && scenario.events[e].at_us == at_us; ++e) {
            const TenantEvent& event = scenario.events[e];
            switch (event.kind) {
            case TenantEventKind::join: {
                if (acc[event.tenant].present)
                    throw std::invalid_argument{
                        "simulate_multi_tenant: join of a present tenant"};
                id_of[event.tenant] = arbiter.add_tenant(scenario.tenants[event.tenant].spec);
                TenantAccumulator& a = acc[event.tenant];
                a.present = true;
                a.ever_present = true;
                a.period_us = arb::kInfinitePeriod;
                a.weight = scenario.tenants[event.tenant].spec.weight;
                break;
            }
            case TenantEventKind::leave:
                if (!acc[event.tenant].present)
                    throw std::invalid_argument{
                        "simulate_multi_tenant: leave of an absent tenant"};
                arbiter.remove_tenant(id_of[event.tenant]);
                id_of[event.tenant] = 0;
                acc[event.tenant].present = false;
                acc[event.tenant].period_us = arb::kInfinitePeriod;
                break;
            case TenantEventKind::set_weight:
                if (!acc[event.tenant].present)
                    throw std::invalid_argument{
                        "simulate_multi_tenant: set_weight of an absent tenant"};
                arbiter.set_weight(id_of[event.tenant], event.weight);
                acc[event.tenant].weight = event.weight;
                break;
            case TenantEventKind::set_pool:
                arbiter.set_pool(event.pool);
                break;
            }
        }
        rearbitrate_and_record(at_us);
    }
    integrate_to(scenario.horizon_us);

    result.tenants.resize(scenario.tenants.size());
    double goodput_frames = 0.0;
    std::vector<double> shares;
    for (std::size_t t = 0; t < acc.size(); ++t) {
        const TenantAccumulator& a = acc[t];
        TenantSimStats& stats = result.tenants[t];
        stats.present_us = a.present_us;
        stats.frames = a.frames;
        if (a.present_us > 0.0) {
            stats.goodput_fps = a.goodput_frames / (a.present_us / 1e6);
            stats.mean_weighted_rate = a.weighted_rate_us / a.present_us;
        }
        goodput_frames += a.goodput_frames;
        if (a.ever_present)
            shares.push_back(stats.mean_weighted_rate);
    }
    result.aggregate_goodput_fps =
        goodput_frames / (static_cast<double>(scenario.horizon_us) / 1e6);
    result.jain_weighted = arb::jain_index(shares);
    return result;
}

AutoscaleSimResult simulate_autoscale(const AutoscaleScenario& scenario)
{
    if (scenario.chain.empty())
        throw std::invalid_argument{"simulate_autoscale: empty chain"};
    if (scenario.load.empty())
        throw std::invalid_argument{"simulate_autoscale: empty load profile"};
    for (std::size_t i = 1; i < scenario.load.size(); ++i)
        if (scenario.load[i].at_us < scenario.load[i - 1].at_us)
            throw std::invalid_argument{"simulate_autoscale: load profile must be sorted"};
    if (scenario.sample_period_us <= 0)
        throw std::invalid_argument{"simulate_autoscale: sample period must be positive"};
    if (scenario.horizon_us <= 0)
        throw std::invalid_argument{"simulate_autoscale: horizon must be positive"};
    if (scenario.initial.total() < 1)
        throw std::invalid_argument{"simulate_autoscale: empty initial pool"};

    // The live controller; landing a re-solve in virtual time only adopts
    // its period and energy. Its construction solve seeds the warm-start
    // frontier every resize reuses. Without an injected service it solves
    // through a private uncached one, so the replay's warm flags do not
    // depend on earlier calls; the controller only calls solve_planned,
    // so that service never starts a worker thread.
    std::optional<svc::SolverService> uncached;
    svc::SolverService* service = scenario.service;
    if (service == nullptr)
        service = &uncached.emplace(svc::ServiceConfig{.workers = 1, .cache_capacity = 0});
    rt::ControlConfig config;
    config.policy = scenario.policy;
    config.service = service;
    std::optional<rt::Controller> controller;
    try {
        controller.emplace(scenario.chain, scenario.initial, config);
    } catch (const rt::NoScheduleError&) {
        throw std::invalid_argument{"simulate_autoscale: initial pool admits no schedule"};
    }
    double period_us = 0.0;
    double energy_item = 0.0;
    const auto adopt = [&](const core::Solution& solution) {
        period_us = solution.period(scenario.chain);
        energy_item = core::energy_per_item(scenario.chain, solution, scenario.power);
    };
    const svc::PlannedSchedule first = controller->planned();
    adopt(first.result.solution);
    controller->bind([&adopt](const svc::PlannedSchedule& next) {
        adopt(next.result.solution);
        return plan::SwapOutcome::frame;
    });
    std::uint64_t warm_solves = first.result.warm_start || first.result.cache_hit ? 1 : 0;

    AutoscaleSimResult result;
    double tracking_error_sum = 0.0;
    std::int64_t last_landed_us = std::numeric_limits<std::int64_t>::min();
    result.min_action_gap_us = scenario.horizon_us;
    std::size_t load_index = 0;

    for (std::int64_t now_us = scenario.sample_period_us; now_us < scenario.horizon_us;
         now_us += scenario.sample_period_us) {
        while (load_index + 1 < scenario.load.size()
               && scenario.load[load_index + 1].at_us <= now_us)
            ++load_index;
        const double offered_fps = scenario.load[load_index].offered_fps;
        // Utilization = offered load over delivered capacity, the virtual
        // stand-in for the pipeline's worst queue-depth fraction.
        const double capacity_fps = period_us > 0.0 ? 1e6 / period_us : 0.0;
        const double utilization = capacity_fps > 0.0 ? offered_fps / capacity_fps : 0.0;
        tracking_error_sum += std::abs(utilization - scenario.policy.target_utilization);
        result.max_utilization = std::max(result.max_utilization, utilization);

        const rt::ControlRecord step = controller->load(utilization, now_us * 1000);
        if (step.decision == rt::ScaleDecision::hold)
            continue;
        if (step.after != step.before) {
            ++(step.decision == rt::ScaleDecision::grow ? result.grows : result.shrinks);
            warm_solves += step.warm ? 1 : 0;
            if (last_landed_us != std::numeric_limits<std::int64_t>::min())
                result.min_action_gap_us =
                    std::min(result.min_action_gap_us, now_us - last_landed_us);
            last_landed_us = now_us;
        }
        result.clamped += step.result == rt::StepResult::held ? 1 : 0;
        result.infeasible += step.result == rt::StepResult::infeasible ? 1 : 0;
        result.events.push_back(AutoscaleEventRecord{.at_us = now_us,
                                                     .decision = step.decision,
                                                     .before = step.before,
                                                     .after = step.after,
                                                     .utilization = utilization,
                                                     .period_us = period_us,
                                                     .energy_per_item = energy_item,
                                                     .warm = step.warm});
    }

    result.samples = controller->samples();
    // Every feasible re-solve lands in virtual time: the initial solve plus
    // one per landed action.
    result.warm_fraction = static_cast<double>(warm_solves)
        / static_cast<double>(1 + result.grows + result.shrinks);
    result.mean_tracking_error =
        result.samples > 0 ? tracking_error_sum / static_cast<double>(result.samples) : 0.0;
    result.final_pool = controller->budget();
    result.final_period_us = period_us;
    return result;
}

} // namespace amp::dsim
