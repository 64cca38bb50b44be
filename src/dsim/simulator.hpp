#pragma once
// Discrete-event simulation of a pipelined-and-replicated schedule.
//
// Models the StreamPU execution of a solution: stage i is a service station
// with r_i identical servers and per-frame service time equal to the sum of
// its tasks' latencies on the stage's core type. Frames are consumed in
// stream order (the adaptors restore ordering), so the exact dynamics reduce
// to a departure-time recurrence:
//
//   start(i, f) = max(depart(i-1, f) + adaptor_overhead, depart(i, f - r_i))
//   depart(i, f) = start(i, f) + service(i, f)
//
// Service times carry an overhead model (per-crossing cost, multiplicative
// jitter, replication penalties) calibrated so that the gap between
// predicted and "real" throughput matches the shape the paper observes on
// real hardware (§VI-E): a few percent in general, larger for stages that
// replicate the slowest tasks on little cores. This is the documented
// substitute for the hybrid-core machines (DESIGN.md, substitution 1).

#include "arb/arbiter.hpp"
#include "common/rng.hpp"
#include "core/chain.hpp"
#include "core/power.hpp"
#include "core/solution.hpp"
#include "obs/sink.hpp"
#include "plan/execution_plan.hpp"
#include "rt/controller.hpp"

#include <cstdint>
#include <optional>
#include <vector>

namespace amp::dsim {

/// Overhead model applied on top of the profiled task latencies.
struct OverheadModel {
    double adaptor_crossing_us = 2.0;   ///< per frame, per stage boundary
    /// Uniform service inflation: runtime bookkeeping, cache interference
    /// and OS noise on a loaded machine (the paper observes ~+7% even on
    /// single-core unreplicated stages).
    double service_inflation = 0.05;
    double jitter_cv = 0.02;            ///< lognormal coefficient of variation
    /// Relative service inflation of a replicated stage (r > 1): contention
    /// on the shared adaptor plus cache pressure from the clones.
    double replication_penalty = 0.02;
    /// Additional inflation when the replicated stage runs on little cores
    /// (the paper's ">10% gap" observation for little-core replication of
    /// slow tasks).
    double little_replication_penalty = 0.08;
    std::uint64_t seed = 0x5eed;
};

// -- permanent core losses -------------------------------------------------
//
// Thread-free mirror of the runtime's fault model (docs/FAULT_MODEL.md): at
// chosen stream positions a stage loses one core for good. The run drives
// the runtime's own rt::Controller loss step -- it reduces the resource
// vector and re-solves HeRAD -- and resumes the departure recurrence on the
// new stage structure after a detection + reschedule latency, so recovery
// behaviour is testable deterministically, without timing jitter.

/// One permanent core loss: at stream frame `frame`, the stage at index
/// `stage` (into the *current* plan; clamped if rescheduling shrank the
/// stage list) loses one core.
struct SimFailure {
    std::uint64_t frame = 0;
    std::size_t stage = 0;
};

struct FailureModel {
    std::vector<SimFailure> failures;
    /// Resource vector the plan's solution was computed for; each loss
    /// removes one core of the failing stage's type from it before the
    /// re-solve. Ignored when `failures` is empty.
    core::Resources budget{};
    double detection_us = 200.0;  ///< watchdog heartbeat-timeout equivalent
    double reschedule_us = 50.0;  ///< solver + full pipeline rebuild cost
    /// Swap cost when the post-loss plan is *resize-only* against the
    /// running one (plan::resize_only: only replica counts changed, nothing
    /// rebound or recut): the runtime lands it mid-segment without draining
    /// (Pipeline::retarget's frame outcome), so the stall is the in-flight
    /// spawn cost, not a drain and rebuild.
    /// Unset = every recovery is charged `reschedule_us`.
    std::optional<double> frame_swap_us{};
};

struct SimulationConfig {
    std::uint64_t frames = 20000;      ///< frames to push through the pipeline
    std::uint64_t warmup_frames = 2000; ///< excluded from the throughput window
    OverheadModel overhead{};
    /// Rates for the simulated active-energy accounting (energy_per_frame).
    core::PowerModel power{};
    /// Optional telemetry sink. The simulator emits the same event and
    /// metric schema as rt::Pipeline (obs/schema.hpp) at virtual time:
    /// one track per simulated server, stage spans per frame, queue-wait
    /// and latency histograms, fence/tombstone instants on failures -- so
    /// a simulated trace diffs event-by-event against a real one.
    obs::Sink* sink = nullptr;
    /// Permanent core losses replayed during the run (linear plans only).
    FailureModel faults{};
};

struct StageStats {
    double utilization = 0.0;   ///< busy fraction of the stage's servers
    double mean_service_us = 0.0;
};

/// What the simulator decided at one core loss.
struct RecoveryRecord {
    std::uint64_t frame = 0;           ///< stream position of the loss
    std::size_t stage = 0;             ///< failed stage (pre-reschedule index)
    core::CoreType lost_type = core::CoreType::big;
    core::Resources resources_after{}; ///< degraded resource vector
    core::Solution new_solution;       ///< schedule the pipeline resumed with
    double downtime_us = 0.0;          ///< detection + reschedule/swap stall
    std::uint64_t frames_dropped = 0;  ///< in-flight frames lost to the event
    /// True when the delta is resize-only *and* FailureModel::frame_swap_us
    /// is set: the runtime would swap mid-segment without draining.
    bool frame_swap_applied = false;

    [[nodiscard]] bool operator==(const RecoveryRecord&) const = default;
};

struct SimulationResult {
    double fps = 0.0;            ///< pipeline frames per second (steady state)
    double period_us = 0.0;      ///< observed inter-departure time
    /// Simulated ACTIVE energy per frame (watt-us): busy core-time per stage
    /// x the stage type's active watts, averaged over all frames. The
    /// measured analog of core::energy_per_item, except it charges the
    /// *simulated* service times (inflation, jitter, replication penalties
    /// included) and assumes unit per-task energy weights -- the compiled
    /// plan profile carries service times, not energy weights. Like
    /// `stages`, reported only for a run without a core loss (0 and empty
    /// otherwise: no per-stage accounting across re-plans).
    double energy_per_frame = 0.0;
    std::vector<StageStats> stages;
    std::vector<RecoveryRecord> recoveries; ///< one per replayed core loss
    core::Solution final_solution;          ///< schedule the run ended on
    std::uint64_t frames_dropped = 0;
    bool schedulable = true; ///< false when a loss left no feasible schedule
};

/// Simulates a compiled execution plan -- the same object rt::Pipeline
/// executes, so a simulated and a real run of one plan are diffable
/// event-by-event -- and replays config.faults on it. The plan must carry a
/// task-weight profile (plan::ExecutionPlan::has_profile()). Throws
/// std::invalid_argument without one, when frames do not exceed
/// warmup_frames, and when losses are listed on a DAG plan or with a
/// faults.budget below the plan's used cores of either type. A loss that
/// leaves no feasible schedule ends the run (schedulable = false).
[[nodiscard]] SimulationResult simulate(const plan::ExecutionPlan& plan,
                                        const SimulationConfig& config = {});

/// Simulates the execution of `solution` over `chain` task latencies (in
/// microseconds, as in the paper's profiles). Convenience wrapper: compiles
/// the pair into a plan::ExecutionPlan (plan::PlanError, an
/// std::invalid_argument, on a malformed pair) and simulates that.
[[nodiscard]] SimulationResult simulate(const core::TaskChain& chain,
                                        const core::Solution& solution,
                                        const SimulationConfig& config = {});

/// Deterministic random failure plan: `count` losses at frames drawn from
/// [warmup, frames) and stages drawn from [0, stage_count). Same seed, same
/// plan, on every platform.
[[nodiscard]] std::vector<SimFailure> random_failures(std::uint64_t seed, int count,
                                                      std::uint64_t warmup,
                                                      std::uint64_t frames,
                                                      std::size_t stage_count);

// -- multi-tenant arbitration ---------------------------------------------
//
// Virtual-time replay of the arbiter's global allocation loop
// (docs/ARBITER.md). The decision logic is not re-implemented: the
// scenario drives a real arb::Arbiter -- the same registry, water-filling
// loop and solver probes the runtime uses -- through a scripted sequence of join/leave/weight/pool events, and
// integrates each tenant's delivered frames over the intervals between
// rearbitrations. The arbiter is wall-clock-free and the solvers are
// bit-deterministic, so two replays of one scenario produce identical
// rearbitration traces; the trace-equality test pins this.

/// One tenant of a simulated multi-tenant machine.
struct SimTenant {
    arb::TenantSpec spec;
    /// Offered load in frames per second: the tenant's goodput contribution
    /// is min(achieved rate, demand). <= 0 means unbounded demand (every
    /// delivered frame is useful).
    double demand_fps = 0.0;
};

enum class TenantEventKind : std::uint8_t {
    join,       ///< tenant appears and starts competing for cores
    leave,      ///< tenant departs; its cores return to the pool
    set_weight, ///< fair-share weight change (e.g. plan upgrade)
    set_pool,   ///< machine reconfiguration: the shared pool itself changes
};

/// One scripted control-plane event. Events at equal times are applied
/// together (in index order) and followed by a single rearbitration.
struct TenantEvent {
    std::int64_t at_us = 0;
    TenantEventKind kind = TenantEventKind::join;
    std::size_t tenant = 0;  ///< index into MultiTenantScenario::tenants
    double weight = 1.0;     ///< set_weight only
    core::Resources pool{};  ///< set_pool only
};

struct MultiTenantScenario {
    core::Resources pool{};
    arb::AllocPolicy policy = arb::AllocPolicy::weighted_max_min;
    std::vector<SimTenant> tenants; ///< catalog; events reference by index
    std::vector<TenantEvent> events;
    std::int64_t horizon_us = 1'000'000; ///< end of the simulated window
    /// Solver service backing the arbiter's probes; null = shared_service().
    svc::SolverService* service = nullptr;
};

/// One rearbitration of the replay -- the deterministic trace. `tenants`
/// maps the arbiter's id-ordered rows back to scenario indices; exact
/// (bitwise) double equality in operator== is intentional, as with
/// arb::AllocStep.
struct ArbEventRecord {
    std::int64_t at_us = 0;
    std::uint64_t generation = 0;
    std::vector<std::size_t> tenants;       ///< scenario indices, id order
    std::vector<core::Resources> budgets;   ///< aligned with `tenants`
    std::vector<double> periods_us;         ///< aligned with `tenants`
    std::vector<arb::AllocStep> steps;      ///< water-filling grant log

    [[nodiscard]] bool operator==(const ArbEventRecord&) const noexcept = default;
};

/// Integrated outcome of one tenant over the scenario window.
struct TenantSimStats {
    double present_us = 0.0;   ///< total virtual time joined
    double frames = 0.0;       ///< delivered frames (sum interval/period)
    double goodput_fps = 0.0;  ///< min(rate, demand), averaged over presence
    /// Time-averaged (1/period)/weight while present -- the fairness share.
    double mean_weighted_rate = 0.0;
};

struct MultiTenantResult {
    std::vector<ArbEventRecord> trace;   ///< one record per rearbitration
    std::vector<TenantSimStats> tenants; ///< aligned with scenario.tenants
    /// Sum of per-tenant goodputs weighted by presence time, over the
    /// horizon: useful frames per second the whole machine produced.
    double aggregate_goodput_fps = 0.0;
    /// Jain index of the tenants' mean weighted rates (tenants that were
    /// ever present); 1 = throughput exactly proportional to weight.
    double jain_weighted = 0.0;
    std::uint64_t rearbitrations = 0;
    std::uint64_t probes = 0; ///< period queries the allocation loops issued
};

/// Replays `scenario` through a real arb::Arbiter in virtual time. Events
/// must be sorted by at_us (stable within a timestamp) and lie in
/// [0, horizon_us); a join of an already-present tenant, or any other event
/// on an absent one, throws std::invalid_argument. Purely deterministic:
/// equal scenarios produce identical traces on every platform.
[[nodiscard]] MultiTenantResult simulate_multi_tenant(const MultiTenantScenario& scenario);

// ---------------------------------------------------------------------------
// Autoscaling replay (docs/AUTOSCALING.md)
//
// Virtual-time replay of the live load-scaling loop against a scripted
// offered-load profile. As with the multi-tenant replay the decision logic
// is not re-implemented: the replay feeds the runtime's own rt::Controller
// load step (band hysteresis, patience, cooldown and clamps, then the
// warm-start re-solve), landing every feasible re-solve, so a live
// controller fed the same utilization series takes the same actions.
// Utilization is offered load over delivered capacity (offered_fps *
// period_us / 1e6); both sides of the loop are deterministic, so equal
// scenarios produce identical event traces.

/// One step of the offered-load profile: from `at_us` on, the stream offers
/// `offered_fps` frames per second (step-hold until the next point).
struct LoadPoint {
    std::int64_t at_us = 0;
    double offered_fps = 0.0;
};

struct AutoscaleScenario {
    core::TaskChain chain;
    core::Resources initial{};
    rt::AutoscalePolicy policy{};
    /// Rates for the per-event energy_per_item accounting.
    core::PowerModel power{};
    /// Offered-load profile, sorted by at_us; the first point's rate also
    /// holds before its timestamp. Must be non-empty.
    std::vector<LoadPoint> load;
    std::int64_t horizon_us = 1'000'000;
    /// Controller observation window (one utilization sample per period).
    std::int64_t sample_period_us = 5'000;
    /// Solver service for the re-solves; null = a private service without a
    /// cache (every re-solve runs the solver). With a caching service, a
    /// replayed re-solve may be answered from cache -- the event's `warm`
    /// flag covers both, keeping traces equal.
    svc::SolverService* service = nullptr;
};

/// One non-hold controller action of the replay (landed or clamped).
struct AutoscaleEventRecord {
    std::int64_t at_us = 0;
    rt::ScaleDecision decision = rt::ScaleDecision::hold;
    core::Resources before{};
    core::Resources after{};       ///< == before when clamped/infeasible
    double utilization = 0.0;      ///< the sample that tripped the action
    double period_us = 0.0;        ///< achieved period after the action
    /// Active energy per item (scenario.power) of the schedule in force
    /// after the action -- unchanged when the action was absorbed.
    double energy_per_item = 0.0;
    /// Re-solve avoided the cold DP: incremental warm path or a service
    /// cache hit (the two are equivalent for trace determinism).
    bool warm = false;

    [[nodiscard]] bool operator==(const AutoscaleEventRecord&) const noexcept = default;
};

struct AutoscaleSimResult {
    std::vector<AutoscaleEventRecord> events;
    std::uint64_t samples = 0;
    std::uint64_t grows = 0;
    std::uint64_t shrinks = 0;
    std::uint64_t clamped = 0;    ///< decisions absorbed by min/max clamps
    std::uint64_t infeasible = 0; ///< actions no target of which admitted a schedule
    double warm_fraction = 0.0;   ///< warm re-solves / total re-solves
    /// Mean |utilization - policy.target_utilization| over all samples:
    /// the controller tracking error the bench gates on.
    double mean_tracking_error = 0.0;
    double max_utilization = 0.0;
    core::Resources final_pool{};
    double final_period_us = 0.0;
    /// Smallest virtual-time gap between two landed actions (horizon_us
    /// when fewer than two landed): >= policy.cooldown_ns / 1000 proves
    /// the controller never flapped within the cooldown.
    std::int64_t min_action_gap_us = 0;
};

/// Replays `scenario` through the real controller + warm solver in virtual
/// time. Throws std::invalid_argument on an empty chain/load profile, an
/// unsorted profile, or a non-positive sample period. Deterministic: equal
/// scenarios produce identical traces on every platform.
[[nodiscard]] AutoscaleSimResult simulate_autoscale(const AutoscaleScenario& scenario);

} // namespace amp::dsim
