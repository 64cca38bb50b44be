// Extension bench: the svc::SolverService itself. Measures, over a grid of
// synthetic chains x strategies:
//
//   1. cold sequential  -- every request solved by a direct core::schedule
//                          loop on the calling thread (the pre-service
//                          baseline);
//   2. cold batch       -- the same grid as one solve_batch per worker
//                          count (parallel scaling; meaningful only on
//                          multi-core machines);
//   3. cached batch     -- the grid resubmitted to a warm service (cache
//                          speedup and hit rate).
//
// --json=<file> writes an amp-bench-v1 report: one record per measurement
// with wall-clock time, per-mode speedup vs the cold-sequential baseline,
// and cache statistics, plus the service's metrics snapshot (per-strategy
// amp_svc_* counters and latency histograms).
//
// Flags: --chains=N grid chains (default 40), --tasks=N per chain
// (default 30), --reps=N cached resubmissions (default 3),
// --workers=CSV worker counts for the scaling sweep (default "1,2,4").

#include "common/argparse.hpp"
#include "common/table.hpp"
#include "core/scheduler.hpp"
#include "sim/generator.hpp"
#include "sim/timing.hpp"
#include "support/bench_json.hpp"
#include "svc/solver_service.hpp"

#include <cstdio>
#include <string>
#include <vector>

namespace {

using namespace amp;

std::vector<core::ScheduleRequest> build_grid(int chains, int tasks, std::uint64_t seed)
{
    Rng rng{seed};
    sim::GeneratorConfig generator;
    generator.num_tasks = tasks;
    generator.stateless_ratio = 0.5;
    std::vector<core::ScheduleRequest> requests;
    requests.reserve(static_cast<std::size_t>(chains) * std::size(core::kAllStrategies));
    for (int c = 0; c < chains; ++c) {
        const core::TaskChain chain = sim::generate_chain(generator, rng);
        for (const core::Strategy strategy : core::kAllStrategies)
            requests.push_back(core::ScheduleRequest{chain, {10, 10}, strategy});
    }
    return requests;
}

std::vector<int> parse_worker_counts(const std::string& csv)
{
    std::vector<int> counts;
    std::size_t pos = 0;
    while (pos < csv.size()) {
        const std::size_t comma = csv.find(',', pos);
        const std::string token = csv.substr(pos, comma == std::string::npos ? csv.size() - pos
                                                                             : comma - pos);
        if (!token.empty())
            counts.push_back(std::stoi(token));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return counts;
}

} // namespace

int main(int argc, char** argv)
{
    const ArgParse args(argc, argv);
    const int chains = static_cast<int>(args.get_int("chains", 40));
    const int tasks = static_cast<int>(args.get_int("tasks", 30));
    const int reps = static_cast<int>(args.get_int("reps", 3));
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 0x5e41));
    const std::vector<int> worker_counts = parse_worker_counts(args.get("workers", "1,2,4"));
    const std::string json_path = args.get("json", "");

    const std::vector<core::ScheduleRequest> grid = build_grid(chains, tasks, seed);
    std::printf("== Extension: solver service (%zu requests: %d chains x %zu strategies) ==\n\n",
                grid.size(), chains, std::size(core::kAllStrategies));

    bench::JsonReport report{"ext_solver_service"};
    report.param("chains", chains)
        .param("tasks", tasks)
        .param("reps", reps)
        .param("requests", static_cast<std::uint64_t>(grid.size()));

    TextTable table({"mode", "workers", "wall (us)", "speedup vs cold-seq", "cache hit rate"});

    // 1. Baseline: the grid as a plain sequential loop over core::schedule.
    double baseline_solve_us = 0.0;
    const double cold_sequential_us = sim::time_once_us([&] {
        for (const core::ScheduleRequest& request : grid) {
            const core::ScheduleResult result = core::schedule(request);
            baseline_solve_us += static_cast<double>(result.solve_ns) / 1000.0;
        }
    });
    table.add_row({"cold-sequential", "0", fmt(cold_sequential_us, 0), "1.00", "-"});
    report.add_record()
        .set("mode", "cold_sequential")
        .set("workers", 0)
        .set("wall_us", cold_sequential_us)
        .set("speedup", 1.0);

    // 2. Cold batches: a fresh service per worker count, cache off so every
    //    solve is real work. Scaling beyond 1 only shows on multi-core
    //    machines; a 1-core container reports ~1x honestly.
    for (const int workers : worker_counts) {
        svc::ServiceConfig config;
        config.workers = workers;
        config.cache_capacity = 0;
        svc::SolverService service{config};
        // The first batch of two or more requests starts the pool; start it
        // outside the timed batch.
        if (grid.size() >= 2)
            (void)service.solve_batch({grid[0], grid[1]});
        std::vector<core::ScheduleResult> results;
        const double wall_us =
            sim::time_once_us([&] { results = service.solve_batch(grid); });
        const double speedup = wall_us > 0.0 ? cold_sequential_us / wall_us : 0.0;
        table.add_row({"cold-batch", std::to_string(service.workers()), fmt(wall_us, 0),
                       fmt(speedup, 2), "-"});
        report.add_record()
            .set("mode", "cold_batch")
            .set("workers", service.workers())
            .set("wall_us", wall_us)
            .set("speedup", speedup);
    }

    // 3. Cached batches: warm the cache with one pass, then resubmit the
    //    identical grid. Every request is a fingerprint lookup.
    svc::ServiceConfig cached_config;
    cached_config.workers = worker_counts.empty() ? 0 : worker_counts.front();
    svc::SolverService cached_service{cached_config};
    (void)cached_service.solve_batch(grid); // warm-up: all misses
    double cached_total_us = 0.0;
    std::size_t hit_requests = 0;
    for (int r = 0; r < reps; ++r) {
        std::vector<core::ScheduleResult> results;
        cached_total_us += sim::time_once_us([&] { results = cached_service.solve_batch(grid); });
        for (const core::ScheduleResult& result : results)
            hit_requests += result.cache_hit ? 1u : 0u;
    }
    const double cached_us = cached_total_us / reps;
    const double cached_speedup = cached_us > 0.0 ? cold_sequential_us / cached_us : 0.0;
    const auto cache = cached_service.cache_stats();
    const double observed_hit_rate = reps > 0 && !grid.empty()
        ? static_cast<double>(hit_requests) / (static_cast<double>(reps) * grid.size())
        : 0.0;
    table.add_row({"cached-batch", std::to_string(cached_service.workers()), fmt(cached_us, 0),
                   fmt(cached_speedup, 2), fmt_pct(observed_hit_rate, 1)});
    report.add_record()
        .set("mode", "cached_batch")
        .set("workers", cached_service.workers())
        .set("wall_us", cached_us)
        .set("speedup", cached_speedup)
        .set("hit_rate", observed_hit_rate)
        .set("cache_hits", cache.hits)
        .set("cache_misses", cache.misses)
        .set("cache_entries", cache.entries);

    std::printf("%s\n", table.str().c_str());
    std::printf("cache after cached-batch reps: %llu hits / %llu misses (%llu entries)\n",
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses),
                static_cast<unsigned long long>(cache.entries));

    report.metrics(cached_service.metrics().snapshot());
    if (!json_path.empty()) {
        if (!report.write_file(json_path)) {
            std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
            return 1;
        }
        std::printf("json report: %s\n", json_path.c_str());
    }
    return 0;
}
