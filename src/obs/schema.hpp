#pragma once
// Telemetry naming contract shared by the real runtime (rt::Pipeline) and
// the discrete-event simulator (dsim::simulate*): both emit trace events
// and metrics built from these helpers, so a simulated run and a real run
// of the same chain/schedule are diffable event-by-event (same names,
// stage/task ids and phases; only timestamps differ).
// docs/OBSERVABILITY.md is the human-readable version of this contract.

#include <string>

namespace amp::obs::schema {

// -- trace event names -----------------------------------------------------

/// Span covering one frame through one stage's task interval [first, last].
[[nodiscard]] inline std::string stage_span(int stage, int first_task, int last_task)
{
    return "stage" + std::to_string(stage) + "[t" + std::to_string(first_task) + "-t"
        + std::to_string(last_task) + "]";
}

inline constexpr const char* kRetry = "retry";            ///< transient fault absorbed
inline constexpr const char* kTombstone = "tombstone";    ///< frame dropped, stream kept contiguous
inline constexpr const char* kFence = "fence";            ///< watchdog declared a worker lost
inline constexpr const char* kEndOfStream = "end_of_stream";

// -- track (thread) names --------------------------------------------------

/// Worker `worker` (global stage-major index) serving `stage`.
[[nodiscard]] inline std::string worker_track(int worker, int stage)
{
    return "worker " + std::to_string(worker) + " (stage " + std::to_string(stage) + ")";
}

inline constexpr const char* kWatchdogTrack = "watchdog";

// -- metric names ----------------------------------------------------------

inline constexpr const char* kFramesDelivered = "amp_frames_delivered_total";
inline constexpr const char* kFramesDropped = "amp_frames_dropped_total";
inline constexpr const char* kRetries = "amp_task_retries_total";
inline constexpr const char* kHeartbeats = "amp_worker_heartbeats_total";
inline constexpr const char* kWorkersFenced = "amp_workers_fenced_total";
inline constexpr const char* kRunElapsedSeconds = "amp_run_elapsed_seconds";
inline constexpr const char* kRunFps = "amp_run_fps";

/// Per-stage per-frame task-interval latency (histogram, us).
[[nodiscard]] inline std::string stage_latency(int stage)
{
    return "amp_stage_latency_us{stage=\"" + std::to_string(stage) + "\"}";
}

/// Per-stage input wait (histogram, us). In rt this is the time a worker
/// waited to pop its next frame; in dsim the time a frame queued for a free
/// server -- duals of the same contention signal.
[[nodiscard]] inline std::string queue_wait(int stage)
{
    return "amp_queue_wait_us{stage=\"" + std::to_string(stage) + "\"}";
}

// -- overload protection (docs/FAULT_MODEL.md, "Overload model") -----------

/// Frames deliberately tombstoned by the pipeline's load shedder (a subset
/// of amp_frames_dropped_total -- every shed is counted, never silent).
inline constexpr const char* kFramesShed = "amp_frames_shed_total";
/// rt::BrownoutController level (0 = normal, 1 = browned out).
inline constexpr const char* kBrownoutLevel = "amp_brownout_level";
inline constexpr const char* kBrownoutEntries = "amp_brownout_entries_total";

/// Buffered envelopes in the stage's output queue (gauge, sampled by the
/// pipeline's overload monitor).
[[nodiscard]] inline std::string queue_depth(int stage)
{
    return "amp_queue_depth{stage=\"" + std::to_string(stage) + "\"}";
}

// Solver-service admission control / circuit breaker / brownout serving
// (docs/SOLVER_SERVICE.md). The dsim admission model reuses the runtime's
// decision classes, so these names cover both.
inline constexpr const char* kSvcAdmissionRejected = "amp_svc_admission_rejected_total";
inline constexpr const char* kSvcAdmissionDisplaced = "amp_svc_admission_displaced_total";
inline constexpr const char* kSvcAdmissionDepth = "amp_svc_admission_depth";
inline constexpr const char* kSvcDeadlineExceeded = "amp_svc_deadline_exceeded_total";
inline constexpr const char* kSvcDegradedServes = "amp_svc_degraded_serves_total";
inline constexpr const char* kSvcRefinements = "amp_svc_refinements_total";
inline constexpr const char* kSvcBreakerRejected = "amp_svc_breaker_rejected_total";
inline constexpr const char* kSvcBreakerTrips = "amp_svc_breaker_trips_total";
/// Gauge mirroring svc::BreakerState (0 closed, 1 open, 2 half-open).
inline constexpr const char* kSvcBreakerState = "amp_svc_breaker_state";

// -- multi-tenant arbiter (docs/ARBITER.md) --------------------------------
//
// Recorded by arb::Arbiter into its configured registry (the solver
// service's by default); counter table in docs/SOLVER_SERVICE.md.

inline constexpr const char* kArbRearbitrations = "amp_arb_rearbitrations_total";
/// Period-curve queries issued by the allocation loop (most are served by
/// the solution cache; compare with amp_svc_*_cache_miss to see real work).
inline constexpr const char* kArbProbes = "amp_arb_probes_total";
/// Single-core grants made by the filling loop.
inline constexpr const char* kArbGrants = "amp_arb_grants_total";
/// Budget changes applied to live executors without a drain.
inline constexpr const char* kArbFrameSwaps = "amp_arb_frame_swaps_total";
/// Budget changes a live executor could not absorb (owner must rebuild).
inline constexpr const char* kArbRebuildsRequired = "amp_arb_rebuilds_required_total";
inline constexpr const char* kArbTenants = "amp_arb_tenants";
/// Tenants whose quota floor the pool could not cover, last arbitration.
inline constexpr const char* kArbStarvedTenants = "amp_arb_starved_tenants";
inline constexpr const char* kArbPoolFreeBig = "amp_arb_pool_free_big";
inline constexpr const char* kArbPoolFreeLittle = "amp_arb_pool_free_little";

} // namespace amp::obs::schema
