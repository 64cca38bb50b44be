// Extension bench: chaos soak of the overload-protection layer
// (docs/FAULT_MODEL.md, "Overload model"). Two scenarios:
//
//   1. Solver-service spike soak. A pool of submitter threads drives
//      solve_batch through three phases -- warmup at ~50% of solver
//      capacity, a 4x arrival-rate spike salted with pathologically slow
//      "heavy" chains, then recovery back to the warmup rate. Every
//      request carries a client-side deadline; goodput is the number of
//      usable answers (fresh or degraded-stale) delivered before their
//      deadline. The same workload runs twice: once against an
//      unprotected service (unbounded admission, no breaker, no
//      brownout, deadlines tracked only by the client) and once against
//      a protected one (bounded priority-aware admission, slow-solve
//      circuit breaker, deadline shedding, stale-while-revalidate
//      brownout). The report shows goodput in both modes plus a
//      zero-silent-drop audit: every client-visible shed must be
//      accounted for by an amp_svc_* counter, exactly.
//
//   2. Pipeline chaos soak. A real pipeline with overload protection
//      enabled runs a bursty-stall drain (periodic output hiccups force
//      queue congestion) while a junk tenant saturates the shared solver
//      service's admission queue AND a kill fault takes out a worker
//      mid-stream. The loss's re-solve is a single solve, which never
//      enters the admission queue; the run goes on with the surviving
//      workers, must shed frames under congestion without ever dropping
//      one silently, and must account for every stream position.
//
// Flags: --arrivals=N batches in scenario 1 (default 120), --batch=N
// requests per batch (default 4), --threads=N submitters (default 8),
// --workers=N service workers (default 2), --tasks=N per fresh chain
// (default 24), --frames=N scenario-2 stream length (default 160),
// --task-us=U scenario-2 per-task service time (default 250),
// --json=<file> amp-bench-v1 report.

#include "common/argparse.hpp"
#include "common/table.hpp"
#include "core/scheduler.hpp"
#include "obs/schema.hpp"
#include "obs/sink.hpp"
#include "rt/fault.hpp"
#include "rt/rescheduler.hpp"
#include "sim/generator.hpp"
#include "support/bench_json.hpp"
#include "svc/solver_service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace amp;
using std::chrono::duration_cast;
using std::chrono::microseconds;
using std::chrono::milliseconds;
using std::chrono::nanoseconds;
using std::chrono::steady_clock;

std::int64_t steady_now_ns()
{
    return duration_cast<nanoseconds>(steady_clock::now().time_since_epoch()).count();
}

// ---------------------------------------------------------------------------
// Scenario 1: solver-service spike soak
// ---------------------------------------------------------------------------

/// One scheduled arrival: a batch of requests plus its relative arrival
/// and deadline times. Deadlines are stamped as absolute steady-clock
/// nanoseconds at launch (protected mode only; the client always tracks
/// them for the goodput tally).
struct Arrival {
    std::vector<core::ScheduleRequest> requests;
    std::int64_t arrive_rel_us = 0;
    std::int64_t deadline_rel_us = 0;
};

struct Workload {
    std::vector<Arrival> arrivals;
    std::vector<core::ScheduleRequest> warm; ///< small-R requests pre-solved to seed brownout
    double mean_solve_us = 0.0;              ///< measured normal-chain solve cost
    double heavy_solve_us = 0.0;             ///< measured heavy-chain solve cost
    std::uint64_t slow_solve_ns = 0;         ///< breaker slow-solve threshold
    std::int64_t spike_start_us = 0;
    std::int64_t spike_end_us = 0;
};

/// Client-side tallies for one soak run. Every offered request lands in
/// exactly one bucket; `goodput` additionally counts the ok buckets that
/// met their deadline.
struct SoakTally {
    std::atomic<std::uint64_t> ok_fresh{0};
    std::atomic<std::uint64_t> ok_degraded{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::uint64_t> deadline_shed{0};
    std::atomic<std::uint64_t> other_error{0};
    std::atomic<std::uint64_t> goodput{0};
    std::atomic<std::uint64_t> late{0};
    std::atomic<std::int64_t> latency_sum_us{0};
    std::atomic<std::int64_t> latency_max_us{0};
    std::atomic<std::int64_t> last_done_rel_us{0};

    [[nodiscard]] std::uint64_t answered() const
    {
        return ok_fresh.load() + ok_degraded.load() + rejected.load() + deadline_shed.load()
               + other_error.load();
    }
};

struct SoakOutcome {
    std::uint64_t offered = 0;
    double wall_s = 0.0;
    svc::AdmissionStats admission;
    std::uint64_t breaker_trips = 0;
    std::size_t breaker_transitions = 0;
    std::uint64_t ctr_admission_rejected = 0;
    std::uint64_t ctr_admission_displaced = 0;
    std::uint64_t ctr_breaker_rejected = 0;
    std::uint64_t ctr_deadline = 0;
    std::uint64_t ctr_degraded = 0;
    std::uint64_t ctr_refinements = 0;
    std::uint64_t silent_drops = 0;
    bool audit_ok = false;
};

core::TaskChain make_heavy_chain(int tasks, std::uint64_t salt)
{
    // Heavy = many tasks, so the solve itself is slow (a breaker failure
    // by construction once slow_solve_ns sits between the two measured
    // means). The salt defeats the solution cache.
    Rng rng{0xbeef00 + salt};
    sim::GeneratorConfig generator;
    generator.num_tasks = tasks;
    generator.stateless_ratio = 0.5;
    return sim::generate_chain(generator, rng);
}

Workload build_workload(int arrivals, int batch, int tasks, int workers, std::uint64_t seed)
{
    Workload load;
    Rng rng{seed};
    sim::GeneratorConfig generator;
    generator.num_tasks = tasks;
    generator.stateless_ratio = 0.5;

    // Warm pool: chains cached at a small resource vector before the soak
    // starts. "Refit" arrivals re-request them at a larger budget -- never
    // an exact cache hit, but exactly what brownout can serve stale.
    constexpr int kWarmPool = 6;
    constexpr core::Resources kWarmBudget{2, 2};
    constexpr core::Resources kSoakBudget{6, 6};
    std::vector<core::TaskChain> warm_chains;
    for (int i = 0; i < kWarmPool; ++i) {
        warm_chains.push_back(sim::generate_chain(generator, rng));
        load.warm.push_back(
            core::ScheduleRequest{warm_chains.back(), kWarmBudget, core::Strategy::herad});
    }

    // Calibrate: measure the mean solve cost of normal and heavy chains so
    // arrival rates, deadlines and the breaker threshold self-scale to the
    // machine instead of hard-coding microseconds.
    const auto measure = [&](const core::TaskChain& chain) {
        const core::ScheduleResult result =
            core::schedule(core::ScheduleRequest{chain, kSoakBudget, core::Strategy::herad});
        return static_cast<double>(result.solve_ns) / 1000.0;
    };
    double normal_sum = 0.0;
    constexpr int kSamples = 8;
    for (int i = 0; i < kSamples; ++i)
        normal_sum += measure(sim::generate_chain(generator, rng));
    load.mean_solve_us = std::max(normal_sum / kSamples, 1.0);
    double heavy_sum = 0.0;
    constexpr int kHeavySamples = 3;
    const int heavy_tasks = tasks * 5;
    for (int i = 0; i < kHeavySamples; ++i)
        heavy_sum += measure(make_heavy_chain(heavy_tasks, 1000 + static_cast<std::uint64_t>(i)));
    load.heavy_solve_us = std::max(heavy_sum / kHeavySamples, load.mean_solve_us);

    // The breaker threshold sits at the geometric mean of the two costs
    // (at least 2.5x normal, so scheduler jitter on a loaded machine does
    // not trip it on healthy solves).
    load.slow_solve_ns = static_cast<std::uint64_t>(
        std::max(2.5 * load.mean_solve_us, std::sqrt(load.mean_solve_us * load.heavy_solve_us))
        * 1000.0);

    // Warmup offers ~50% of solver capacity; the spike multiplies the
    // arrival rate by 4 (~200% of capacity) and salts in heavy chains.
    const double interval_warm_us =
        std::max(2.0 * batch * load.mean_solve_us / std::max(workers, 1), 50.0);
    const double interval_spike_us = interval_warm_us / 4.0;
    const std::int64_t deadline_slack_us =
        static_cast<std::int64_t>(8.0 * batch * load.mean_solve_us);

    const int third = std::max(arrivals / 3, 1);
    double at_us = 0.0;
    std::uint64_t fresh_salt = 0;
    for (int i = 0; i < arrivals; ++i) {
        const bool spike = i >= third && i < 2 * third;
        at_us += spike ? interval_spike_us : interval_warm_us;
        if (spike && load.spike_start_us == 0)
            load.spike_start_us = static_cast<std::int64_t>(at_us);
        if (spike)
            load.spike_end_us = static_cast<std::int64_t>(at_us);

        Arrival arrival;
        arrival.arrive_rel_us = static_cast<std::int64_t>(at_us);
        arrival.deadline_rel_us = arrival.arrive_rel_us + deadline_slack_us;
        for (int j = 0; j < batch; ++j) {
            const int k = i * batch + j;
            core::ScheduleRequest request;
            if (spike && k % 7 == 3) {
                // Heavy chain: a guaranteed slow solve. Lowest priority, so
                // the priority-aware queue sheds these first.
                request = core::ScheduleRequest{make_heavy_chain(heavy_tasks, 2000 + fresh_salt++),
                                                kSoakBudget, core::Strategy::herad};
                request.priority = -1;
            } else if (k % 3 == 2) {
                // Refit: a warm-pool chain re-requested at a varying larger
                // budget -- rarely an exact cache hit, but always
                // stale-servable from the warm {2,2} entry once brownout
                // engages.
                const core::Resources budget{4 + (k / 2) % 30, 4 + (k / 3) % 30};
                request = core::ScheduleRequest{warm_chains[static_cast<std::size_t>(k)
                                                            % warm_chains.size()],
                                                budget, core::Strategy::herad};
                request.priority = 1;
            } else {
                request = core::ScheduleRequest{sim::generate_chain(generator, rng), kSoakBudget,
                                                core::Strategy::herad};
            }
            arrival.requests.push_back(std::move(request));
        }
        load.arrivals.push_back(std::move(arrival));
    }
    return load;
}

SoakOutcome run_soak(const Workload& load, bool protected_mode, int workers, int threads,
                     SoakTally& tally)
{
    svc::ServiceConfig config;
    config.workers = workers;
    if (protected_mode) {
        config.admission = svc::AdmissionConfig{16, svc::ShedPolicy::priority_aware};
        config.breaker = svc::BreakerConfig{3, 30'000'000, 1, 1}; // 30ms cooldown
        config.slow_solve_ns = load.slow_solve_ns;
        config.brownout = true;
        config.brownout_watermark = 0.5;
    }
    svc::SolverService service{config};
    for (const core::ScheduleRequest& request : load.warm)
        (void)service.solve(request);

    const std::int64_t t0_ns = steady_now_ns();
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> submitters;
    submitters.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
        submitters.emplace_back([&] {
            for (;;) {
                const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
                if (i >= load.arrivals.size())
                    return;
                const Arrival& arrival = load.arrivals[i];
                const std::int64_t due_ns = t0_ns + arrival.arrive_rel_us * 1000;
                const std::int64_t now = steady_now_ns();
                if (now < due_ns)
                    std::this_thread::sleep_for(nanoseconds{due_ns - now});

                std::vector<core::ScheduleRequest> batch = arrival.requests;
                if (protected_mode) {
                    for (core::ScheduleRequest& request : batch)
                        request.deadline_ns = t0_ns + arrival.deadline_rel_us * 1000;
                }
                const std::vector<core::ScheduleResult> results = service.solve_batch(batch);

                const std::int64_t done_rel_us = (steady_now_ns() - t0_ns) / 1000;
                const bool in_time = done_rel_us <= arrival.deadline_rel_us;
                const std::int64_t latency_us = done_rel_us - arrival.arrive_rel_us;
                std::int64_t prev = tally.last_done_rel_us.load(std::memory_order_relaxed);
                while (prev < done_rel_us
                       && !tally.last_done_rel_us.compare_exchange_weak(prev, done_rel_us)) {
                }
                for (const core::ScheduleResult& result : results) {
                    if (result.ok()) {
                        (result.degraded ? tally.ok_degraded : tally.ok_fresh).fetch_add(1);
                        (in_time ? tally.goodput : tally.late).fetch_add(1);
                        tally.latency_sum_us.fetch_add(latency_us);
                        std::int64_t seen = tally.latency_max_us.load(std::memory_order_relaxed);
                        while (seen < latency_us
                               && !tally.latency_max_us.compare_exchange_weak(seen, latency_us)) {
                        }
                    } else if (result.error == core::ScheduleError::rejected) {
                        tally.rejected.fetch_add(1);
                    } else if (result.error == core::ScheduleError::deadline_exceeded) {
                        tally.deadline_shed.fetch_add(1);
                    } else {
                        tally.other_error.fetch_add(1);
                    }
                }
            }
        });
    }
    for (std::thread& submitter : submitters)
        submitter.join();

    SoakOutcome outcome;
    std::uint64_t batch_requests = 0;
    for (const Arrival& arrival : load.arrivals)
        batch_requests += arrival.requests.size();
    outcome.offered = batch_requests;
    outcome.wall_s = static_cast<double>(tally.last_done_rel_us.load()) / 1e6;
    outcome.admission = service.admission_stats();
    outcome.breaker_trips = service.breaker().trips();
    outcome.breaker_transitions = service.breaker().transitions().size();

    const obs::MetricsSnapshot snapshot = service.metrics().snapshot();
    const auto counter = [&](const char* name) -> std::uint64_t {
        const auto it = snapshot.counters.find(name);
        return it == snapshot.counters.end() ? 0u : it->second;
    };
    outcome.ctr_admission_rejected = counter(obs::schema::kSvcAdmissionRejected);
    outcome.ctr_admission_displaced = counter(obs::schema::kSvcAdmissionDisplaced);
    outcome.ctr_breaker_rejected = counter(obs::schema::kSvcBreakerRejected);
    outcome.ctr_deadline = counter(obs::schema::kSvcDeadlineExceeded);
    outcome.ctr_degraded = counter(obs::schema::kSvcDegradedServes);
    outcome.ctr_refinements = counter(obs::schema::kSvcRefinements);

    // Zero-silent-drop audit. Exact invariants:
    //   * every offered request is answered (nothing hangs or vanishes);
    //   * degraded serves and deadline sheds match their counters 1:1;
    //   * every client-visible rejection was counted at the admission door
    //     or the breaker, and every counted shed surfaced to a client as a
    //     rejection or a degraded-stale answer (a shed ticket whose chain
    //     has a compatible cached plan is answered degraded, so the two
    //     tallies bracket the counter sum instead of equalling it).
    outcome.silent_drops = outcome.offered - tally.answered();
    const std::uint64_t shed_counters = outcome.ctr_admission_rejected
                                        + outcome.ctr_admission_displaced
                                        + outcome.ctr_breaker_rejected;
    outcome.audit_ok = outcome.silent_drops == 0
                       && tally.ok_degraded.load() == outcome.ctr_degraded
                       && tally.deadline_shed.load() == outcome.ctr_deadline
                       && tally.rejected.load() <= shed_counters
                       && shed_counters <= tally.rejected.load() + tally.ok_degraded.load();
    return outcome;
}

void report_soak(bench::JsonReport& report, TextTable& table, const char* mode,
                 const SoakTally& tally, const SoakOutcome& outcome)
{
    const std::uint64_t answered_ok = tally.ok_fresh.load() + tally.ok_degraded.load();
    const double goodput_per_s =
        outcome.wall_s > 0.0 ? static_cast<double>(tally.goodput.load()) / outcome.wall_s : 0.0;
    const double mean_latency_ms =
        answered_ok > 0
            ? static_cast<double>(tally.latency_sum_us.load()) / (1e3 * answered_ok)
            : 0.0;

    table.add_row({mode, std::to_string(tally.goodput.load()), fmt(goodput_per_s, 0),
                   std::to_string(tally.late.load()), std::to_string(tally.ok_degraded.load()),
                   std::to_string(tally.rejected.load()),
                   std::to_string(tally.deadline_shed.load()),
                   std::to_string(outcome.breaker_trips), fmt(mean_latency_ms, 1),
                   outcome.audit_ok ? "yes" : "NO"});

    report.add_record()
        .set("scenario", "service_spike")
        .set("mode", mode)
        .set("offered", outcome.offered)
        .set("wall_s", outcome.wall_s)
        .set("goodput", tally.goodput.load())
        .set("goodput_per_s", goodput_per_s)
        .set("ok_fresh", tally.ok_fresh.load())
        .set("ok_late", tally.late.load())
        .set("degraded_serves", tally.ok_degraded.load())
        .set("rejected", tally.rejected.load())
        .set("deadline_shed", tally.deadline_shed.load())
        .set("other_errors", tally.other_error.load())
        .set("mean_latency_ms", mean_latency_ms)
        .set("max_latency_ms", static_cast<double>(tally.latency_max_us.load()) / 1e3)
        .set("admission_rejected", outcome.admission.rejected)
        .set("admission_displaced", outcome.admission.displaced)
        .set("breaker_trips", outcome.breaker_trips)
        .set("breaker_transitions", static_cast<std::uint64_t>(outcome.breaker_transitions))
        .set("refinements", outcome.ctr_refinements)
        .set("silent_drops", outcome.silent_drops)
        .set("shed_audit_ok", outcome.audit_ok);
}

// ---------------------------------------------------------------------------
// Scenario 2: pipeline chaos soak
// ---------------------------------------------------------------------------

struct Frame {
    std::uint64_t seq = 0;
};

void run_pipeline_soak(bench::JsonReport& report, std::uint64_t frames, int task_us)
{
    // Same chain shape as the recovery tests: a stateful source plus four
    // replicable tasks. The optimum (1,1B),(4,3L) loses a little worker;
    // the optimum at R = (1, 2) is the recut (1,1L),(2,1L),(2,1B), which
    // the loss handler declines, so the stream ends on the two surviving
    // littles: 1 loss, 0 recoveries.
    constexpr int kTasks = 5;
    std::vector<core::TaskDesc> descs;
    descs.push_back(core::TaskDesc{"t1", 100.0, 120.0, false});
    const double littles[] = {75.0, 75.0, 75.0, 76.0};
    for (int i = 2; i <= kTasks; ++i)
        descs.push_back(core::TaskDesc{"t" + std::to_string(i), 60.0, littles[i - 2], true});
    const core::TaskChain chain{std::move(descs)};

    // The shared solver service is itself protected and saturated by a
    // junk tenant for the whole run; the loss's re-solve is a single
    // solve and never waits in its admission queue.
    svc::ServiceConfig service_config;
    service_config.admission = svc::AdmissionConfig{4, svc::ShedPolicy::priority_aware};
    svc::SolverService service{service_config};
    rt::ReschedulePolicy policy;
    policy.service = &service;
    rt::Rescheduler rescheduler{chain, core::Resources{1, 3}, policy};

    std::atomic<bool> quit{false};
    std::thread junk{[&] {
        std::uint64_t round = 0;
        while (!quit.load(std::memory_order_acquire)) {
            std::vector<core::ScheduleRequest> requests;
            for (int i = 0; i < 8; ++i) {
                const double jitter = static_cast<double>(round * 8 + i) * 0.125;
                std::vector<core::TaskDesc> junk_tasks;
                for (int t = 1; t <= 6; ++t)
                    junk_tasks.push_back(core::TaskDesc{"j" + std::to_string(t),
                                                        10.0 + jitter + t, 20.0 + jitter + t,
                                                        t != 1});
                requests.push_back(core::ScheduleRequest{core::TaskChain{std::move(junk_tasks)},
                                                         core::Resources{2, 2},
                                                         core::Strategy::twocatac});
            }
            (void)service.solve_batch(requests);
            ++round;
        }
    }};

    rt::TaskSequence<Frame> sequence;
    for (int i = 1; i <= kTasks; ++i)
        sequence.push_back(rt::make_task<Frame>("t" + std::to_string(i), i == 1,
                                                [task_us](Frame&) {
                                                    std::this_thread::sleep_for(
                                                        microseconds{task_us});
                                                }));

    rt::FaultInjector injector;
    injector.add(rt::FaultSpec{rt::FaultKind::kill, frames / 3, 0, 1, 1, milliseconds{0}});

    obs::Sink sink{obs::SinkConfig{true, false, 1, 16}};
    rt::PipelineConfig config;
    config.faults = &injector;
    config.heartbeat_timeout = milliseconds{100};
    config.queue_capacity = 4;
    config.sink = &sink;
    config.overload.enabled = true;
    config.overload.brownout = rt::BrownoutPolicy{0.5, 0.25, 2, 2};
    config.overload.poll = milliseconds{1};

    // Bursty-stall drain: every 16th frame the consumer hiccups for 8 task
    // periods, backing the final queue up past the high watermark.
    const auto t0 = steady_clock::now();
    const rt::RecoveryReport recovery = rt::run_with_recovery<Frame>(
        sequence, rescheduler, frames, config, [&](Frame& frame) {
            if (frame.seq % 16 == 15)
                std::this_thread::sleep_for(microseconds{8 * task_us});
        });
    const double wall_s = std::chrono::duration<double>(steady_clock::now() - t0).count();
    quit.store(true, std::memory_order_release);
    junk.join();

    const rt::RunResult& total = recovery.total;
    const std::uint64_t sink_shed =
        sink.metrics().counter(obs::schema::kFramesShed).value();
    const bool accounted = total.stream_end == frames
                           && total.frames + total.frames_dropped == total.stream_end
                           && total.frames_shed <= total.frames_dropped
                           && sink_shed == total.frames_shed;
    const svc::AdmissionStats admission = service.admission_stats();

    std::printf("pipeline soak   : %llu/%llu frames in %.2fs (%.0f fps), %zu worker "
                "loss(es), %d recover%s\n",
                static_cast<unsigned long long>(total.frames),
                static_cast<unsigned long long>(frames), wall_s,
                wall_s > 0.0 ? static_cast<double>(total.frames) / wall_s : 0.0,
                total.losses.size(), recovery.recoveries,
                recovery.recoveries == 1 ? "y" : "ies");
    std::printf("frames shed     : %llu (dropped %llu, brownout entries %llu), "
                "accounting %s\n",
                static_cast<unsigned long long>(total.frames_shed),
                static_cast<unsigned long long>(total.frames_dropped),
                static_cast<unsigned long long>(total.brownout_entries),
                accounted ? "exact" : "BROKEN");
    std::printf("junk tenant     : %llu admission sheds while saturating the service\n\n",
                static_cast<unsigned long long>(admission.rejected + admission.displaced));

    report.add_record()
        .set("scenario", "pipeline_chaos")
        .set("frames", total.frames)
        .set("frames_requested", frames)
        .set("wall_s", wall_s)
        .set("fps", wall_s > 0.0 ? static_cast<double>(total.frames) / wall_s : 0.0)
        .set("frames_dropped", total.frames_dropped)
        .set("frames_shed", total.frames_shed)
        .set("brownout_entries", total.brownout_entries)
        .set("worker_losses", static_cast<std::uint64_t>(total.losses.size()))
        .set("recoveries", recovery.recoveries)
        .set("completed", recovery.completed)
        .set("recovery_latency_ms", recovery.recovery_latency_seconds * 1e3)
        .set("junk_admission_sheds", admission.rejected + admission.displaced)
        .set("accounting_exact", accounted);
}

} // namespace

int main(int argc, char** argv)
{
    const ArgParse args(argc, argv);
    const int arrivals = static_cast<int>(args.get_int("arrivals", 120));
    const int batch = static_cast<int>(args.get_int("batch", 4));
    const int threads = static_cast<int>(args.get_int("threads", 8));
    const int workers = static_cast<int>(args.get_int("workers", 2));
    const int tasks = static_cast<int>(args.get_int("tasks", 24));
    const auto frames = static_cast<std::uint64_t>(args.get_int("frames", 160));
    const int task_us = static_cast<int>(args.get_int("task-us", 250));
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 0x50a6));
    const std::string json_path = args.get("json", "");

    bench::JsonReport report{"ext_overload_soak"};
    report.param("arrivals", arrivals)
        .param("batch", batch)
        .param("threads", threads)
        .param("workers", workers)
        .param("tasks", tasks)
        .param("frames", frames)
        .param("task_us", task_us);

    std::printf("== Extension: overload chaos soak ==\n\n");

    const Workload load = build_workload(arrivals, batch, tasks, workers, seed);
    std::printf("calibration     : normal solve %.0f us, heavy %.0f us, "
                "breaker threshold %.0f us\n",
                load.mean_solve_us, load.heavy_solve_us,
                static_cast<double>(load.slow_solve_ns) / 1e3);
    std::printf("schedule        : %d batches x %d, spike (4x rate) from %.1f ms to %.1f ms\n\n",
                arrivals, batch, static_cast<double>(load.spike_start_us) / 1e3,
                static_cast<double>(load.spike_end_us) / 1e3);

    TextTable table({"mode", "goodput", "goodput/s", "late", "degraded", "rejected",
                     "deadline-shed", "breaker trips", "mean lat (ms)", "audit"});

    SoakTally unprotected_tally;
    const SoakOutcome unprotected =
        run_soak(load, /*protected_mode=*/false, workers, threads, unprotected_tally);
    report_soak(report, table, "unprotected", unprotected_tally, unprotected);

    SoakTally protected_tally;
    const SoakOutcome protected_run =
        run_soak(load, /*protected_mode=*/true, workers, threads, protected_tally);
    report_soak(report, table, "protected", protected_tally, protected_run);

    std::printf("%s\n", table.str().c_str());

    const double ratio = unprotected_tally.goodput.load() > 0
                             ? static_cast<double>(protected_tally.goodput.load())
                                   / static_cast<double>(unprotected_tally.goodput.load())
                             : static_cast<double>(protected_tally.goodput.load());
    std::printf("goodput ratio   : %.2fx (protected vs unprotected; > 1 expected under the "
                "spike)\n\n",
                ratio);
    report.add_record()
        .set("scenario", "service_spike_summary")
        .set("goodput_ratio", ratio)
        .set("both_audits_ok", unprotected.audit_ok && protected_run.audit_ok);

    run_pipeline_soak(report, frames, task_us);

    if (!json_path.empty()) {
        if (report.write_file(json_path))
            std::printf("wrote %s\n", json_path.c_str());
        else
            std::printf("FAILED to write %s\n", json_path.c_str());
    }
    return 0;
}
