// ampbench: the end-to-end benchmark of ampsched.
//
//   ampbench --workload <solve_cold|capacity_sweep|stream|stream_planner>
//            --seed <n> --seconds <s> --trace <0|1> [--trace-out <file.json>]
//
// --trace 0 prints the end-to-end metrics of an untraced pass; --trace 1
// runs an untraced and a traced pass back to back and prints the per-layer
// metrics, including the tracing overhead between the two. The last line of
// stdout is one JSON object {correct, attempted, failed, metrics}. Unknown
// or malformed flags are rejected: a mistyped --seed must never quietly
// benchmark a default.

#include "bench.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <vector>

namespace {

using namespace perfbench;

/// Setups per run; setup_s is their median.
constexpr int kSetupRepeats = 15;
/// Busy time before anything is timed: after an idle spell the host runs a
/// freshly woken vCPU slowly for a few hundred ms (see README.md).
constexpr std::int64_t kWakeNs = 1'000'000'000;
/// Untimed warm-up of the workload's own path before each measured run.
constexpr double kWarmSeconds = 0.6;
/// Share of --seconds the traced run spends untraced (the overhead baseline;
/// both passes walk the same inputs).
constexpr double kUntracedShare = 0.5;

/// Every per-layer metric with its unit, as listed in BENCHMARK.json. A
/// traced run prints all of them; a layer the workload does not exercise
/// reads 0. solve_cold, which no BENCHMARK.json workload runs, adds its
/// herad-energy solve times.
const std::map<std::string, std::string>& per_layer_catalog()
{
    static const std::map<std::string, std::string> catalog = [] {
        std::map<std::string, std::string> c;
        for (const char* s : {"herad", "2catac", "fertac", "otac-b", "otac-l"}) {
            c[std::string{"core.solve_p50_us."} + s] = "us";
            c[std::string{"core.solve_p99_us."} + s] = "us";
        }
        for (const char* layer : {"bench", "core", "svc", "plan", "dsim", "rt"})
            c[std::string{layer} + ".busy_share"] = "ratio";
        c["svc.overhead_p50_us"] = "us";
        c["svc.cache_hit_ratio"] = "ratio";
        c["svc.evictions"] = "count";
        c["svc.pool_efficiency"] = "ratio";
        c["plan.compile_p50_us"] = "us";
        c["dsim.simulate_p50_us"] = "us";
        c["dsim.frames_per_s"] = "1/s";
        c["rt.period_ratio"] = "ratio";
        for (const char* stage : {"rt.stage0.", "rt.stage1."}) {
            c[std::string{stage} + "service_p50_us"] = "us";
            c[std::string{stage} + "wait_p50_us"] = "us";
        }
        c["rt.drain_p50_us"] = "us";
        c["rt.generator_late_p99_us"] = "us";
        c["rt.frames_dropped"] = "count";
        c["rt.out_of_order"] = "count";
        c["process.threads_max"] = "count";
        c["process.steal_s"] = "s";
        c["process.probe_start_ms"] = "ms";
        c["process.probe_end_ms"] = "ms";
        c["bench.tracing_overhead"] = "ratio";
        return c;
    }();
    return catalog;
}

struct Cli {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string trace_out;
};

[[noreturn]] void usage(const std::string& error)
{
    std::fprintf(stderr,
                 "ampbench: %s\n"
                 "usage: ampbench --workload <solve_cold|capacity_sweep|stream|stream_planner> "
                 "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n",
                 error.c_str());
    std::exit(2);
}

Cli parse(int argc, char** argv)
{
    Cli cli;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        std::string value;
        if (const auto eq = flag.find('='); eq != std::string::npos) {
            value = flag.substr(eq + 1);
            flag = flag.substr(0, eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            usage("missing value for " + flag);
        }
        try {
            std::size_t used = 0;
            if (flag == "--workload") {
                cli.workload = value;
            } else if (flag == "--seed") {
                cli.seed = std::stoull(value, &used);
                have_seed = true;
            } else if (flag == "--seconds") {
                cli.seconds = std::stod(value, &used);
            } else if (flag == "--trace") {
                cli.trace = std::stoi(value, &used);
            } else if (flag == "--trace-out") {
                cli.trace_out = value;
            } else {
                usage("unknown flag " + flag);
            }
            if (used != 0 && used != value.size())
                usage("malformed value for " + flag + ": " + value);
        } catch (const std::logic_error&) {
            usage("malformed value for " + flag + ": " + value);
        }
    }
    if (cli.workload.empty() || !have_seed || cli.seconds <= 0.0 || cli.trace < 0)
        usage("--workload, --seed, --seconds (> 0) and --trace are required");
    if (cli.trace > 1)
        usage("--trace must be 0 or 1");
    return cli;
}

std::unique_ptr<Workload> make_workload(const Cli& cli)
{
    const RunOptions options{cli.seed, cli.seconds};
    if (cli.workload == "solve_cold")
        return make_solve_cold(options);
    if (cli.workload == "capacity_sweep")
        return make_capacity_sweep(options, std::max(1, cpu_count() - 1));
    if (cli.workload == "stream")
        return make_stream(true);
    if (cli.workload == "stream_planner")
        return make_stream_planner(options);
    usage("unknown workload " + cli.workload);
}

void run_untraced(Workload& workload, double seconds, Report& report)
{
    std::vector<double> setups;
    for (int i = 0; i < kSetupRepeats; ++i) {
        const std::int64_t start = now_ns();
        workload.setup();
        setups.push_back(static_cast<double>(now_ns() - start) / 1e9);
    }
    workload.warm_up(kWarmSeconds, report);
    Tracer off{false};
    (void)workload.pass(seconds, off, report);
    report.metric("setup_s", quantile(setups, 0.5), "s");
    workload.end_to_end(report);
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

void run_traced(Workload& workload, double seconds, const std::string& trace_out,
                Report& report)
{
    for (const auto& [name, unit] : per_layer_catalog())
        report.metric(name, 0.0, unit);
    workload.setup();
    workload.warm_up(kWarmSeconds, report);
    Tracer off{false};
    const PassSummary untraced = workload.pass(seconds * kUntracedShare, off, report);
    Tracer on{true};
    const PassSummary traced = workload.pass(seconds * (1.0 - kUntracedShare), on, report);
    workload.per_layer(on, report);
    const double overhead = traced.throughput_per_s > 0.0
        ? untraced.throughput_per_s / traced.throughput_per_s - 1.0
        : 0.0;
    report.metric("bench.tracing_overhead", overhead, "ratio");
    char line[160];
    std::snprintf(line, sizeof line,
                  "context: tracing overhead %.2f%% (untraced %.2f/s, traced %.2f/s, %zu spans)",
                  overhead * 100.0, untraced.throughput_per_s, traced.throughput_per_s,
                  on.size());
    report.context(line);
    if (!trace_out.empty())
        report.check(on.write_chrome(trace_out), "writing the span dump to " + trace_out);
    note_thread_count();
    report.metric("process.threads_max", max_thread_count(), "count");
}

} // namespace

int main(int argc, char** argv)
{
    const Cli cli = parse(argc, argv);
    std::unique_ptr<Workload> workload = make_workload(cli);

    Report report;
    const double steal_start = steal_seconds();
    const double probe_start = probe_ms();
    {
        const KeepAwake awake;
        spin_for_ns(kWakeNs); // absorbs the host's stall of a freshly woken vCPU
        try {
            if (cli.trace == 0)
                run_untraced(*workload, cli.seconds, report);
            else
                run_traced(*workload, cli.seconds, cli.trace_out, report);
        } catch (const std::exception& error) {
            report.failed_with(error.what());
        }
        workload.reset();
    }
    const double probe_end = probe_ms();
    const double steal = steal_seconds() - steal_start;
    char line[160];
    std::snprintf(line, sizeof line,
                  "context: probe %.1f ms at start, %.1f ms at end; host steal %.2f s",
                  probe_start, probe_end, steal);
    report.context(line);
    if (cli.trace == 1) {
        report.metric("process.probe_start_ms", probe_start, "ms");
        report.metric("process.probe_end_ms", probe_end, "ms");
        report.metric("process.steal_s", steal, "s");
    }
    report.print();
    return 0;
}
