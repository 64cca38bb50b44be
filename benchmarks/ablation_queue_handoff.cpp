// Ablation: the cost of one hand-off through rt::OrderedQueue, the wait
// every stage crossing in rt goes through. One producer pushes frames at a
// fixed gap; one consumer pops them. For each gap the bench reports the
// hand-off latency (push to pop return), the consumer's CPU time as a share
// of wall time, and how many waits the queue resolved by polling at the
// predicted arrival or by parking on its condition variable.
//
// The producer spins to each push instant, as a compute stage ends its
// frame. SCHED_IDLE spinners keep every CPU out of its idle states (as
// perfbench's KeepAwake does), so a wake-up costs the scheduler's path
// rather than an idle-state exit, the way it does beside busy stages.
//
// The consumer polls only while one guard plus one window (equal to the
// guard) fit in half the predicted gap; for closer gaps it parks, so a
// gap near four guards is where the rows switch from polled to parked.
//
// Flags: --frames=N per gap (default 1000), --json=<file> amp-bench-v1
// report (one record per gap).

#include "common/argparse.hpp"
#include "common/table.hpp"
#include "rt/ordered_queue.hpp"
#include "support/bench_json.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

/// Keeps every CPU out of its idle states with SCHED_IDLE spinners, which
/// yield to any other thread at once. Does nothing where SCHED_IDLE is
/// refused.
class KeepAwake {
public:
    KeepAwake()
    {
        for (unsigned i = 0; i < std::thread::hardware_concurrency(); ++i)
            spinners_.emplace_back([this] {
                sched_param param{};
                if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0)
                    return;
                while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
                    __builtin_ia32_pause();
#endif
                }
            });
    }
    KeepAwake(const KeepAwake&) = delete;
    KeepAwake& operator=(const KeepAwake&) = delete;
    ~KeepAwake()
    {
        stop_.store(true);
        for (auto& spinner : spinners_)
            spinner.join();
    }

private:
    std::atomic<bool> stop_{false};
    std::vector<std::thread> spinners_;
};

std::chrono::nanoseconds thread_cpu_time()
{
    timespec now{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
    return std::chrono::seconds{now.tv_sec} + std::chrono::nanoseconds{now.tv_nsec};
}

double quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    return samples[static_cast<std::size_t>(q * static_cast<double>(samples.size() - 1))];
}

struct GapResult {
    double p50_us = 0.0;
    double p90_us = 0.0;
    double cpu_share = 0.0;
    amp::rt::OrderedQueue<std::int64_t>::HandoffStats stats;
};

/// Streams `frames` frames `gap` apart through a fresh queue; each payload
/// is its push instant in steady-clock nanoseconds.
GapResult run_gap(std::chrono::microseconds gap, std::uint64_t frames)
{
    using amp::rt::Envelope;
    amp::rt::OrderedQueue<std::int64_t> queue{8};
    std::thread producer{[&] {
        const Clock::time_point start = Clock::now();
        for (std::uint64_t seq = 0; seq < frames; ++seq) {
            const Clock::time_point due = start + gap * static_cast<std::int64_t>(seq + 1);
            while (Clock::now() < due) {
            }
            queue.push(Envelope<std::int64_t>::data(seq, Clock::now().time_since_epoch().count()));
        }
        queue.push(Envelope<std::int64_t>::end_of_stream(frames));
    }};

    std::vector<double> latencies_us;
    latencies_us.reserve(frames);
    const std::chrono::nanoseconds cpu_from = thread_cpu_time();
    const Clock::time_point wall_from = Clock::now();
    while (auto envelope = queue.pop()) {
        if (envelope->end)
            break;
        const std::int64_t now = Clock::now().time_since_epoch().count();
        latencies_us.push_back(static_cast<double>(now - envelope->payload) / 1e3);
    }
    const double cpu = std::chrono::duration<double>(thread_cpu_time() - cpu_from).count();
    const double wall = std::chrono::duration<double>(Clock::now() - wall_from).count();
    producer.join();

    GapResult result;
    result.p50_us = quantile(latencies_us, 0.5);
    result.p90_us = quantile(latencies_us, 0.9);
    result.cpu_share = wall > 0.0 ? cpu / wall : 0.0;
    result.stats = queue.handoffs();
    return result;
}

} // namespace

int main(int argc, char** argv)
{
    using namespace amp;

    const ArgParse args(argc, argv);
    const auto frames = static_cast<std::uint64_t>(args.get_int("frames", 1000));
    const std::string json_path = args.get("json", "");

    std::printf("== Ablation: OrderedQueue hand-off, one producer at a fixed gap ==\n");
    std::printf("%llu frames per gap; SCHED_IDLE spinners keep the CPUs awake\n\n",
                static_cast<unsigned long long>(frames));

    const KeepAwake keep_awake;
    TextTable table({"gap (us)", "hand-off p50 (us)", "p90 (us)", "consumer CPU", "polled",
                     "parked", "guard (us)"});
    bench::JsonReport report{"ablation_queue_handoff"};
    report.param("frames", frames);
    for (const int gap_us : {3000, 1500, 300}) {
        const GapResult r = run_gap(std::chrono::microseconds{gap_us}, frames);
        const double guard_us = std::chrono::duration<double, std::micro>(r.stats.guard).count();
        table.add_row({std::to_string(gap_us), fmt(r.p50_us, 1), fmt(r.p90_us, 1),
                       fmt(r.cpu_share * 100.0, 1) + " %", std::to_string(r.stats.polled),
                       std::to_string(r.stats.parked), fmt(guard_us, 1)});
        report.add_record()
            .set("gap_us", gap_us)
            .set("handoff_p50_us", r.p50_us)
            .set("handoff_p90_us", r.p90_us)
            .set("consumer_cpu_share", r.cpu_share)
            .set("polled", r.stats.polled)
            .set("parked", r.stats.parked)
            .set("guard_us", guard_us);
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("a consumer polls only while 4 x guard <= gap (guard + window within half a "
                "gap); closer gaps park\n");

    if (!json_path.empty()) {
        if (!report.write_file(json_path))
            std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
        else
            std::printf("json report: %s\n", json_path.c_str());
    }
    return 0;
}
