// capacity_sweep: the traffic of Table II, Fig. 5 and
// examples/capacity_planner.
//
// One planning query takes one chain -- one of the two Table III receiver
// profiles or a seeded synthetic chain -- solves a 4-point R grid x the
// five strategies as one solve_batch on a pool of nproc - 1 workers,
// simulates every plan with dsim (fixed frame count and overhead seed),
// and answers with the smallest R whose simulated throughput meets the
// query's target. Half of the queries revisit one of the last few chains,
// so about half of the solves hit the svc cache while dsim still runs on
// every plan: dsim holds most of the wall time, and this is the only
// workload that uses svc through a batch pool with cache hits. Without a
// pool (the planner of stream_planner) the grid is solved one request at a
// time with solve() on the calling thread.

#include "bench.hpp"

#include "common/rng.hpp"
#include "core/scheduler.hpp"
#include "dsim/simulator.hpp"
#include "dvbs2/profiles.hpp"
#include "plan/execution_plan.hpp"
#include "sim/generator.hpp"
#include "svc/solver_service.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <exception>

namespace perfbench {
namespace {

using namespace amp;

/// Chains in the pool; the script wraps to the first one after this many new
/// chains, long after the cache has evicted it.
constexpr int kPoolChains = 1024;
/// A Table III profile replaces every 32nd new synthetic chain.
constexpr int kProfileEvery = 32;
/// Share of queries that revisit one of the last kRevisitWindow new chains.
constexpr double kRevisitShare = 0.5;
constexpr std::size_t kRevisitWindow = 8;
constexpr std::size_t kGrid = 4;
constexpr std::size_t kStrategies = std::size(core::kAllStrategies);
constexpr std::size_t kCells = kGrid * kStrategies;
constexpr std::uint64_t kSimFrames = 2000;
constexpr std::uint64_t kSimWarmup = 200;

struct Chain {
    core::TaskChain chain;
    std::array<core::Resources, kGrid> grid{};
    double target_fps = 0.0;
};

/// What the first query on a chain returned; repeats must match it exactly.
struct Answer {
    std::vector<core::Solution> solutions; ///< kCells, grid-major
    std::vector<double> fps;               ///< dsim fps per cell
    int grid_point = -1;                   ///< smallest R meeting the target, -1 = none
    int strategy = -1;                     ///< best strategy at that R
};

Chain profile_entry(const dvbs2::PlatformProfile& profile)
{
    Chain entry{dvbs2::profile_chain(profile)};
    for (std::size_t g = 0; g < kGrid; ++g) {
        const auto scale = [&](int cores) {
            return std::max(1, static_cast<int>(std::ceil(cores * static_cast<double>(g + 1)
                                                          / static_cast<double>(kGrid))));
        };
        entry.grid[g] = {scale(profile.cores_full.big), scale(profile.cores_full.little)};
    }
    return entry;
}

/// Throughput target: a seeded fraction of the chain's ideal rate on the
/// largest grid point (bounded by its slowest sequential task).
void set_target(Chain& entry, double fraction)
{
    const core::Resources top = entry.grid.back();
    const double spread = entry.chain.interval_sum(1, entry.chain.size(), core::CoreType::big)
        / static_cast<double>(top.total());
    const double bound =
        std::max(spread, entry.chain.max_sequential_weight(core::CoreType::big));
    entry.target_fps = fraction * 1e6 / bound;
}

class CapacitySweep final : public Workload {
public:
    CapacitySweep(RunOptions options, int pool_workers)
        : options_(options)
        , workers_(pool_workers)
    {
    }

    void setup() override
    {
        service_.reset();
        chains_.clear();
        answers_.clear();
        Rng rng{options_.seed};
        const auto& mac = dvbs2::mac_studio_profile();
        const auto& x7ti = dvbs2::x7ti_profile();
        for (int i = 0; i < kPoolChains; ++i) {
            Chain entry;
            if (i % kProfileEvery == kProfileEvery - 1) {
                entry = profile_entry((i / kProfileEvery) % 2 == 0 ? mac : x7ti);
            } else {
                sim::GeneratorConfig generator;
                generator.num_tasks = (i % 2 == 0) ? 20 : 30;
                generator.stateless_ratio = 0.2 + 0.3 * static_cast<double>(i % 3);
                entry.chain = sim::generate_chain(generator, rng);
                for (std::size_t g = 0; g < kGrid; ++g) {
                    const int cores = 2 * static_cast<int>(g + 1);
                    entry.grid[g] = {cores, cores};
                }
            }
            set_target(entry, rng.uniform_real(0.3, 0.9));
            chains_.push_back(std::move(entry));
        }
        answers_.resize(chains_.size());

        // The query script: new chains in pool order, interleaved with
        // revisits of recent ones.
        script_.clear();
        std::deque<std::size_t> recent;
        std::size_t fresh = 0;
        while (script_.size() < 4 * chains_.size()) {
            if (!recent.empty() && rng.bernoulli(kRevisitShare)) {
                script_.push_back(recent[static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(recent.size()) - 1))]);
                continue;
            }
            const std::size_t next = fresh++ % chains_.size();
            script_.push_back(next);
            recent.push_back(next);
            if (recent.size() > kRevisitWindow)
                recent.pop_front();
        }

        svc::ServiceConfig config;
        config.workers = std::max(1, workers_);
        config.cache_capacity = 1024;
        service_ = std::make_unique<svc::SolverService>(config);
        next_ = 0;
    }

    void warm_up(double seconds, Report& report) override
    {
        Tracer off{false};
        const std::int64_t until = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
        while (now_ns() < until)
            (void)run_query(script_[next_++ % script_.size()], off, 0, report);
    }

    PassSummary pass(double seconds, Tracer& tracer, Report& report) override
    {
        // Every pass walks the script from its start on an empty cache, so
        // the traced and untraced passes of one run see the same queries.
        // Answers are kept: a query repeated across passes must match too.
        service_->clear_cache();
        next_ = 0;
        latencies_us_.clear();
        for (auto& samples : solve_us_)
            samples.clear();
        compile_us_.clear();
        simulate_us_.clear();
        overhead_us_.clear();
        solve_ns_total_ = 0;
        call_ns_total_ = 0;

        const svc::CacheStats before = service_->cache_stats();
        const std::int64_t start = now_ns();
        const std::int64_t until = start + static_cast<std::int64_t>(seconds * 1e9);
        std::uint64_t done = 0;
        while (now_ns() < until) {
            const std::size_t chain = script_[next_ % script_.size()];
            const auto id = static_cast<std::int64_t>(++next_);
            bool ok = false;
            try {
                ok = run_query(chain, tracer, id, report);
            } catch (const std::exception& error) {
                report.failed_with(error.what());
                continue;
            }
            report.operation(ok);
            if (ok)
                ++done;
            if (tracer.on() && next_ % 16 == 0)
                note_thread_count();
        }
        const std::int64_t stop = now_ns();
        const svc::CacheStats after = service_->cache_stats();
        hits_ = after.hits - before.hits;
        lookups_ = hits_ + after.misses - before.misses;
        evictions_ = after.evictions - before.evictions;
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
        for (std::size_t s = 0; s < kStrategies; ++s) {
            const char* key = core::to_key(core::kAllStrategies[s]);
            report.metric(std::string{"core.solve_p50_us."} + key, quantile(solve_us_[s], 0.50),
                          "us");
            report.metric(std::string{"core.solve_p99_us."} + key, quantile(solve_us_[s], 0.99),
                          "us");
        }
        report.metric("svc.cache_hit_ratio",
                      lookups_ > 0 ? static_cast<double>(hits_) / static_cast<double>(lookups_)
                                   : 0.0,
                      "ratio");
        report.metric("svc.evictions", static_cast<double>(evictions_), "count");
        const double pool = static_cast<double>(call_ns_total_) * (workers_ + 1.0);
        report.metric("svc.pool_efficiency",
                      pool > 0.0 ? static_cast<double>(solve_ns_total_) / pool : 0.0, "ratio");
        report.metric("plan.compile_p50_us", quantile(compile_us_, 0.5), "us");
        if (workers_ == 0)
            report.metric("svc.overhead_p50_us", quantile(overhead_us_, 0.5), "us");
        report.metric("dsim.simulate_p50_us", quantile(simulate_us_, 0.5), "us");
        double simulate_s = 0.0;
        for (const double us : simulate_us_)
            simulate_s += us / 1e6;
        report.metric("dsim.frames_per_s",
                      simulate_s > 0.0
                          ? static_cast<double>(kSimFrames * simulate_us_.size()) / simulate_s
                          : 0.0,
                      "1/s");
        report_busy_shares(report, tracer, span_from_, span_to_);
    }

private:
    bool run_query(std::size_t index, Tracer& tracer, std::int64_t id, Report& report)
    {
        const Chain& entry = chains_[index];
        const std::int64_t start = now_ns();
        ScopedSpan root{tracer, "query", Layer::bench, 0, id};

        std::vector<core::ScheduleRequest> requests;
        requests.reserve(kCells);
        for (const core::Resources& resources : entry.grid)
            for (const core::Strategy strategy : core::kAllStrategies)
                requests.push_back({entry.chain, resources, strategy});
        std::vector<core::ScheduleResult> results;
        if (workers_ > 0) {
            const std::int64_t call = tracer.on() ? now_ns() : 0;
            results = service_->solve_batch(requests);
            if (tracer.on())
                record_solves(tracer, "svc.solve_batch", root.id(), id, call, now_ns(), results,
                             0);
        } else {
            // No pool: one request at a time on this thread, so a planner
            // next to a pipeline takes one CPU only.
            for (const core::ScheduleRequest& request : requests) {
                const std::int64_t call = tracer.on() ? now_ns() : 0;
                results.push_back(service_->solve(request));
                if (tracer.on()) {
                    const std::int64_t ret = now_ns();
                    record_solves(tracer, "svc.solve", root.id(), id, call, ret, {results.back()},
                                 results.size() - 1);
                    if (!results.back().cache_hit)
                        overhead_us_.push_back(
                            ns_to_us(ret - call
                                     - static_cast<std::int64_t>(results.back().solve_ns)));
                }
            }
        }

        Answer answer;
        bool ok = results.size() == kCells;
        dsim::SimulationConfig sim;
        sim.frames = kSimFrames;
        sim.warmup_frames = kSimWarmup;
        for (std::size_t c = 0; ok && c < kCells; ++c) {
            ok = results[c].ok();
            if (!ok)
                break;
            const std::int64_t t0 = tracer.on() ? now_ns() : 0;
            const plan::ExecutionPlan plan =
                plan::ExecutionPlan::compile(entry.chain, results[c].solution);
            const std::int64_t t1 = tracer.on() ? now_ns() : 0;
            const double fps = dsim::simulate(plan, sim).fps;
            if (tracer.on()) {
                const std::int64_t t2 = now_ns();
                tracer.add({"plan.compile", Layer::plan, t0, t1, tracer.new_id(), root.id(), id, 0});
                tracer.add({"dsim.simulate", Layer::dsim, t1, t2, tracer.new_id(), root.id(), id, 0});
                compile_us_.push_back(ns_to_us(t1 - t0));
                simulate_us_.push_back(ns_to_us(t2 - t1));
            }
            answer.solutions.push_back(results[c].solution);
            answer.fps.push_back(fps);
        }
        report.check(ok, "capacity_sweep: every grid solve returns ok");
        if (!ok)
            return false;
        for (std::size_t g = 0; g < kGrid && answer.grid_point < 0; ++g) {
            const auto first = answer.fps.begin() + static_cast<std::ptrdiff_t>(g * kStrategies);
            const auto best = std::max_element(first, first + kStrategies);
            if (*best >= entry.target_fps) {
                answer.grid_point = static_cast<int>(g);
                answer.strategy = static_cast<int>(best - first);
            }
        }
        const std::int64_t stop = now_ns();
        if (id > 0)
            latencies_us_.push_back(ns_to_us(stop - start));

        Answer& first = answers_[index];
        if (first.solutions.empty()) {
            first = std::move(answer);
        } else {
            report.check(answer.solutions == first.solutions,
                         "capacity_sweep: a repeated query returns bit-identical solutions");
            report.check(answer.fps == first.fps,
                         "capacity_sweep: a repeated query returns identical dsim results");
            report.check(answer.grid_point == first.grid_point
                             && answer.strategy == first.strategy,
                         "capacity_sweep: a repeated query returns the same answer");
        }
        return true;
    }

    /// The span of one solver-service call (a batch, or one solve without a
    /// pool) and, inside it, one core span per uncached result, laid out on
    /// the pool's lanes: each goes to the lane that frees up first. Only
    /// durations are known from outside, so placement within a batch is a
    /// reconstruction. `first_cell` is the grid cell of results[0].
    void record_solves(Tracer& tracer, const char* name, std::int64_t parent, std::int64_t id,
                      std::int64_t call, std::int64_t ret,
                      const std::vector<core::ScheduleResult>& results, std::size_t first_cell)
    {
        const std::int64_t call_id = tracer.new_id();
        tracer.add({name, Layer::svc, call, ret, call_id, parent, id, 0});
        std::vector<std::int64_t> lanes(static_cast<std::size_t>(workers_ + 1), call);
        for (std::size_t c = 0; c < results.size(); ++c) {
            const core::ScheduleResult& result = results[c];
            if (result.cache_hit)
                continue;
            const auto solve_ns = static_cast<std::int64_t>(result.solve_ns);
            auto lane = std::min_element(lanes.begin(), lanes.end());
            const std::size_t strategy = (first_cell + c) % kStrategies;
            tracer.add({core::to_key(core::kAllStrategies[strategy]), Layer::core, *lane,
                        *lane + solve_ns, tracer.new_id(), call_id, id,
                        1 + static_cast<int>(lane - lanes.begin())});
            *lane += solve_ns;
            solve_us_[strategy].push_back(ns_to_us(solve_ns));
            solve_ns_total_ += result.solve_ns;
        }
        call_ns_total_ += static_cast<std::uint64_t>(ret - call);
    }

    RunOptions options_;
    int workers_;
    std::vector<Chain> chains_;
    std::vector<Answer> answers_;
    std::vector<std::size_t> script_;
    std::unique_ptr<svc::SolverService> service_;
    std::size_t next_ = 0;

    std::vector<double> latencies_us_;
    std::array<std::vector<double>, kStrategies> solve_us_;
    std::vector<double> compile_us_;
    std::vector<double> simulate_us_;
    std::vector<double> overhead_us_; ///< per uncached solve() call (no pool)
    std::uint64_t solve_ns_total_ = 0;
    std::uint64_t call_ns_total_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t lookups_ = 0;
    std::uint64_t evictions_ = 0;
    std::int64_t span_from_ = 0;
    std::int64_t span_to_ = 0;
    double throughput_ = 0.0;
};

} // namespace

std::unique_ptr<Workload> make_capacity_sweep(const RunOptions& options, int pool_workers)
{
    return std::make_unique<CapacitySweep>(options, pool_workers);
}

} // namespace perfbench
