// solve_cold: the cold solves behind Figs. 3-4 and behind every control
// decision that misses the cache.
//
// One client thread in a closed loop walks a seeded sequence of chains from
// the paper's generator (n in {20, 30, 40}, SR in {0.2, 0.5, 0.8}, R in
// {(10,10), (20,20)}, the 18 configurations in a seeded round-robin so
// every run solves the same mix). One query is solve_planned for all five
// strategies plus one HeRAD min_energy_under_period solve at 1.25x the
// HeRAD period -- the multi-strategy kind of query rt::Rescheduler issues.
// The service has one worker and a cache far smaller than the chain pool,
// so the calling thread does every solve and every lookup misses: core
// holds ~90% of the wall time.

#include "bench.hpp"

#include "common/rng.hpp"
#include "core/scheduler.hpp"
#include "plan/execution_plan.hpp"
#include "sim/generator.hpp"
#include "svc/solver_service.hpp"

#include <array>
#include <cstdio>
#include <exception>

namespace perfbench {
namespace {

using namespace amp;

/// Chains walked per run. At ~140 queries/s a 20 s pass uses ~2800; past
/// the end the walk wraps, and a chain seen 4096 queries ago is long gone
/// from the 64-entry cache, so lookups still miss.
constexpr int kPoolChains = 4096;
constexpr int kWarmChains = 64;
constexpr double kEnergySlack = 1.25;
constexpr double kTolerance = 1e-9;

/// The five min-period strategies, then HeRAD under the energy objective.
constexpr std::size_t kSolves = 6;
constexpr std::size_t kEnergy = 5;
constexpr std::array<const char*, kSolves> kSolveKeys = {"herad",  "2catac", "fertac",
                                                         "otac-b", "otac-l", "herad-energy"};

struct Query {
    core::TaskChain chain;
    core::Resources resources;
};

std::vector<Query> make_queries(std::uint64_t seed, int count)
{
    struct Config {
        int tasks;
        double stateless_ratio;
        core::Resources resources;
    };
    std::vector<Config> grid;
    for (const int n : {20, 30, 40})
        for (const double sr : {0.2, 0.5, 0.8})
            for (const int r : {10, 20})
                grid.push_back({n, sr, {r, r}});

    Rng rng{seed};
    std::vector<std::size_t> order(grid.size());
    std::vector<Query> queries;
    queries.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        const auto slot = static_cast<std::size_t>(i) % grid.size();
        if (slot == 0) { // fresh seeded permutation of the grid every round
            for (std::size_t k = 0; k < order.size(); ++k)
                order[k] = k;
            for (std::size_t k = order.size() - 1; k > 0; --k)
                std::swap(order[k], order[static_cast<std::size_t>(
                                        rng.uniform_int(0, static_cast<std::int64_t>(k)))]);
        }
        const Config& config = grid[order[slot]];
        sim::GeneratorConfig generator;
        generator.num_tasks = config.tasks;
        generator.stateless_ratio = config.stateless_ratio;
        queries.push_back({sim::generate_chain(generator, rng), config.resources});
    }
    return queries;
}

class SolveCold final : public Workload {
public:
    explicit SolveCold(RunOptions options)
        : options_(options)
    {
    }

    void setup() override
    {
        service_.reset();
        queries_ = make_queries(options_.seed, kPoolChains);
        svc::ServiceConfig config;
        config.workers = 1;
        config.cache_capacity = 64;
        config.cache_shards = 4;
        service_ = std::make_unique<svc::SolverService>(config);
    }

    void warm_up(double seconds, Report& report) override
    {
        if (warm_.empty()) // a disjoint chain set, so the pass still starts cold
            warm_ = make_queries(options_.seed ^ 0x5eedf00dULL, kWarmChains);
        Tracer off{false};
        const std::int64_t until = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
        for (std::size_t i = 0; now_ns() < until; ++i)
            (void)run_query(warm_[i % warm_.size()], off, 0, report);
    }

    PassSummary pass(double seconds, Tracer& tracer, Report& report) override
    {
        // Every pass walks the chains from the start, so the traced and
        // untraced passes of one run see the same queries; a chain solved
        // by the previous pass is long evicted from the 64-entry cache.
        next_ = 0;
        latencies_us_.clear();
        for (auto& samples : solve_us_)
            samples.clear();
        overhead_us_.clear();
        compile_us_.clear();

        const svc::CacheStats before = service_->cache_stats();
        const std::int64_t start = now_ns();
        const std::int64_t until = start + static_cast<std::int64_t>(seconds * 1e9);
        std::uint64_t done = 0;
        while (now_ns() < until) {
            const Query& query = queries_[next_ % queries_.size()];
            const auto id = static_cast<std::int64_t>(++next_);
            bool ok = false;
            try {
                ok = run_query(query, tracer, id, report);
            } catch (const std::exception& error) {
                report.failed_with(error.what());
                continue;
            }
            report.operation(ok);
            if (ok)
                ++done;
            if (tracer.on() && next_ % 64 == 0)
                note_thread_count();
        }
        const std::int64_t stop = now_ns();
        const svc::CacheStats after = service_->cache_stats();
        hits_ = after.hits - before.hits;
        lookups_ = hits_ + after.misses - before.misses;
        evictions_ = after.evictions - before.evictions;
        report.check(hits_ == 0, "solve_cold: every cache lookup misses (saw "
                                     + std::to_string(hits_) + " hits)");
        span_from_ = start;
        span_to_ = stop;
        throughput_ = static_cast<double>(done) / (static_cast<double>(stop - start) / 1e9);
        return {throughput_};
    }

    void end_to_end(Report& report) const override
    {
        report_rate_and_latency(report, throughput_, latencies_us_);
    }

    void per_layer(const Tracer& tracer, Report& report) const override
    {
        for (std::size_t s = 0; s < kSolves; ++s) {
            report.metric(std::string{"core.solve_p50_us."} + kSolveKeys[s],
                          quantile(solve_us_[s], 0.50), "us");
            report.metric(std::string{"core.solve_p99_us."} + kSolveKeys[s],
                          quantile(solve_us_[s], 0.99), "us");
        }
        report.metric("svc.overhead_p50_us", quantile(overhead_us_, 0.5), "us");
        report.metric("svc.cache_hit_ratio",
                      lookups_ > 0 ? static_cast<double>(hits_) / static_cast<double>(lookups_)
                                   : 0.0,
                      "ratio");
        report.metric("svc.evictions", static_cast<double>(evictions_), "count");
        report.metric("plan.compile_p50_us", quantile(compile_us_, 0.5), "us");
        report_busy_shares(report, tracer, span_from_, span_to_);
    }

private:
    /// One query; returns false when a solve did not return a plan. Output
    /// checks go to `report`; latency samples are kept only for id > 0
    /// (warm-up queries pass 0).
    bool run_query(const Query& query, Tracer& tracer, std::int64_t id, Report& report)
    {
        const std::int64_t start = now_ns();
        ScopedSpan root{tracer, "query", Layer::bench, 0, id};
        std::array<svc::PlannedSchedule, kSolves> planned;
        for (std::size_t s = 0; s < kSolves; ++s) {
            core::ScheduleRequest request{query.chain, query.resources};
            if (s == kEnergy) {
                if (!planned[0].ok())
                    break;
                request.strategy = core::Strategy::herad;
                request.options.objective = core::Objective::min_energy_under_period;
                request.options.target_period =
                    kEnergySlack * planned[0].result.solution.period(query.chain);
            } else {
                request.strategy = core::kAllStrategies[s];
            }
            const std::int64_t call = tracer.on() ? now_ns() : 0;
            planned[s] = service_->solve_planned(request);
            if (tracer.on())
                record_solve(tracer, root.id(), id, call, now_ns(), s, planned[s]);
        }
        const std::int64_t stop = now_ns();

        bool ok = true;
        for (std::size_t s = 0; s < kSolves; ++s) {
            report.check(planned[s].ok(), std::string{"solve_cold: "} + kSolveKeys[s]
                                              + " returns ok with a plan");
            ok = ok && planned[s].ok();
        }
        if (!ok)
            return false;
        const double herad = planned[0].result.solution.period(query.chain);
        for (std::size_t s = 1; s < kEnergy; ++s)
            report.check(herad <= planned[s].result.solution.period(query.chain)
                                      * (1.0 + kTolerance),
                         std::string{"solve_cold: HeRAD period <= "} + kSolveKeys[s]);
        const double target = kEnergySlack * herad;
        report.check(planned[kEnergy].result.solution.period(query.chain)
                         <= target * (1.0 + kTolerance),
                     "solve_cold: the energy solve meets its target period");

        if (id > 0)
            latencies_us_.push_back(ns_to_us(stop - start));
        if (tracer.on()) // the plan layer, timed alone on the same inputs
            for (const auto& p : planned) {
                ScopedSpan span{tracer, "plan.compile", Layer::plan, root.id(), id};
                const std::int64_t t0 = now_ns();
                const auto compiled =
                    plan::ExecutionPlan::compile(query.chain, p.result.solution);
                compile_us_.push_back(ns_to_us(now_ns() - t0));
                report.check(compiled.stage_count() == p.plan->stage_count(),
                             "solve_cold: recompiled plan matches the service's");
            }
        return true;
    }

    /// Spans for one solve_planned call: the svc call and, inside it, the
    /// core solve of solve_ns the result reports.
    void record_solve(Tracer& tracer, std::int64_t parent, std::int64_t id, std::int64_t call,
                      std::int64_t ret, std::size_t s, const svc::PlannedSchedule& planned)
    {
        const std::int64_t svc_id = tracer.new_id();
        const auto solve_ns = static_cast<std::int64_t>(planned.result.solve_ns);
        tracer.add({"svc.solve_planned", Layer::svc, call, ret, svc_id, parent, id, 0});
        tracer.add({kSolveKeys[s], Layer::core, call, call + solve_ns, tracer.new_id(), svc_id,
                    id, 1});
        solve_us_[s].push_back(ns_to_us(solve_ns));
        overhead_us_.push_back(ns_to_us(ret - call - solve_ns));
    }

    RunOptions options_;
    std::vector<Query> queries_;
    std::vector<Query> warm_;
    std::unique_ptr<svc::SolverService> service_;
    std::size_t next_ = 0;

    std::vector<double> latencies_us_;
    std::array<std::vector<double>, kSolves> solve_us_;
    std::vector<double> overhead_us_;
    std::vector<double> compile_us_;
    std::uint64_t hits_ = 0;
    std::uint64_t lookups_ = 0;
    std::uint64_t evictions_ = 0;
    std::int64_t span_from_ = 0;
    std::int64_t span_to_ = 0;
    double throughput_ = 0.0;
};

} // namespace

std::unique_ptr<Workload> make_solve_cold(const RunOptions& options)
{
    return std::make_unique<SolveCold>(options);
}

} // namespace perfbench
