#pragma once
// Shared harness of the end-to-end benchmark: clocks, spin loops,
// percentiles, process context probes, the metric report and the span
// tracer. Everything here lives on the benchmark side: spans are recorded
// around calls into ampsched's public functions, never from inside them, so
// a change to the program (obs included) cannot change the measuring tool.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() noexcept
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

[[nodiscard]] inline double ns_to_us(std::int64_t ns) noexcept
{
    return static_cast<double>(ns) / 1e3;
}

/// Busy-waits on the steady clock (never sleeps: a sleeping thread pays the
/// host's wake-up latency, a spinning one keeps its vCPU).
void spin_until_ns(std::int64_t deadline_ns) noexcept;
inline void spin_for_ns(std::int64_t ns) noexcept { spin_until_ns(now_ns() + ns); }

/// Keeps every CPU busy for its lifetime with one SCHED_IDLE spinner per
/// CPU. Any runnable thread of the workload preempts a spinner at once, so
/// the spinners take no CPU time from it; what they prevent is the vCPU
/// halting, which on a virtualized host turns every thread wake-up into a
/// hypervisor round trip and lets the clock of the busy cores drift with
/// the host's load. Where SCHED_IDLE is unavailable no spinner runs.
class KeepAwake {
public:
    KeepAwake();
    ~KeepAwake();
    KeepAwake(const KeepAwake&) = delete;
    KeepAwake& operator=(const KeepAwake&) = delete;

private:
    std::atomic<bool> stop_{false};
    std::vector<std::thread> spinners_;
};

/// Linear-interpolation quantile (q in [0, 1]); 0 for no samples.
[[nodiscard]] double quantile(std::vector<double> samples, double q);

/// Completions per second: the median over kRateWindows equal slices of
/// [from, to], so a host stall of the pipeline costs one slice instead of
/// skewing the rate.
inline constexpr int kRateWindows = 16;
[[nodiscard]] double windowed_rate(const std::vector<std::int64_t>& completions_ns,
                                   std::int64_t from_ns, std::int64_t to_ns);

// -- process context ------------------------------------------------------

[[nodiscard]] double peak_rss_mb();
/// Threads of this process right now (/proc/self/status), 0 if unreadable.
[[nodiscard]] int thread_count();
/// Host-wide steal time so far, in seconds (/proc/stat), 0 if unreadable.
[[nodiscard]] double steal_seconds();
/// Wall time of a fixed single-thread integer loop, in milliseconds.
[[nodiscard]] double probe_ms();
/// Online CPUs (at least 1).
[[nodiscard]] int cpu_count();
/// Samples thread_count() into a process-wide running maximum.
void note_thread_count();
[[nodiscard]] int max_thread_count() noexcept;

// -- report ----------------------------------------------------------------

/// What one run prints: metrics by name with unit, free-form context lines
/// and the operation/failure tallies. The last line of stdout is its JSON.
class Report {
public:
    void metric(const std::string& name, double value, const std::string& unit);
    /// A line printed before the result (p99 with its sample count, ...).
    void context(const std::string& line);
    /// Output check: a failure marks the run incorrect and is printed.
    void check(bool ok, const std::string& what);
    /// One attempted operation; `ok == false` counts it failed.
    void operation(bool ok) noexcept;
    /// An operation that threw: counted failed, marks the run incorrect and
    /// prints the exception text. Never retried.
    void failed_with(const std::string& what);
    /// Folds in the tallies, check outcome and context lines of a report
    /// another thread filled.
    void merge(const Report& other);

    /// Prints the context lines, then the JSON result as the last line
    /// (`attempted` reads at least 1, as the result format requires).
    void print() const;

private:
    struct Metric {
        double value = 0.0;
        std::string unit;
    };
    std::map<std::string, Metric> metrics_;
    std::vector<std::string> context_;
    bool correct_ = true;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    int printed_failures_ = 0;
};

// -- tracer ------------------------------------------------------------------

/// Layer a span belongs to: ampsched's modules on the timed paths plus the
/// benchmark's own code.
enum class Layer : std::uint8_t { bench, core, svc, plan, dsim, rt };
inline constexpr std::size_t kLayerCount = 6;
[[nodiscard]] const char* to_string(Layer layer) noexcept;

struct Span {
    const char* name = "";
    Layer layer = Layer::bench;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t id = 0;
    std::int64_t parent = 0; ///< 0 = root
    std::int64_t query = 0;  ///< operation the span belongs to
    int track = 0;           ///< display lane in the Chrome trace
};

/// In-memory span store. Disabled tracers record nothing; callers test
/// on() before reading the clock so an untraced pass pays one branch.
class Tracer {
public:
    explicit Tracer(bool enabled)
        : enabled_(enabled)
    {
    }

    [[nodiscard]] bool on() const noexcept { return enabled_; }
    [[nodiscard]] std::int64_t new_id() noexcept { return next_id_.fetch_add(1); }
    void add(const Span& span);

    /// Per-layer self time in seconds over spans starting in [from, to]: a
    /// span's duration minus the part its child spans cover.
    [[nodiscard]] std::array<double, kLayerCount> self_seconds(std::int64_t from_ns,
                                                               std::int64_t to_ns) const;
    /// True when some span outside `layer` overlaps [from, to].
    [[nodiscard]] bool any_outside(Layer layer, std::int64_t from_ns, std::int64_t to_ns) const;
    [[nodiscard]] std::size_t size() const;
    /// Chrome-trace JSON ("X" events, ts/dur in us); false on I/O failure.
    bool write_chrome(const std::string& path) const;

private:
    bool enabled_;
    std::atomic<std::int64_t> next_id_{1};
    mutable std::mutex mutex_;
    std::vector<Span> spans_; ///< guarded by mutex_
};

/// Records one span from construction to destruction when the tracer is on.
class ScopedSpan {
public:
    ScopedSpan(Tracer& tracer, const char* name, Layer layer, std::int64_t parent,
               std::int64_t query, int track = 0) noexcept;
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    [[nodiscard]] std::int64_t id() const noexcept { return span_.id; }

private:
    Tracer& tracer_;
    Span span_;
};

// -- workloads ---------------------------------------------------------------

struct RunOptions {
    std::uint64_t seed = 1;
    double seconds = 10.0;
};

/// Result of one measured pass, reduced to what the traced run compares
/// against the untraced one.
struct PassSummary {
    double throughput_per_s = 0.0;
};

/// One benchmark workload. main.cpp calls setup() several times and
/// reports the median as setup_s, warms up, then runs measured passes:
/// untraced ones give the end-to-end metrics, traced ones the per-layer
/// metrics.
class Workload {
public:
    virtual ~Workload() = default;
    /// Builds everything the measured passes need, replacing any previous
    /// state. Timed as setup_s.
    virtual void setup() = 0;
    /// Exercises the timed path untimed for about `seconds`.
    virtual void warm_up(double seconds, Report& report) = 0;
    /// One measured pass of about `seconds`. Checks outputs into `report`;
    /// with an enabled tracer also records spans.
    virtual PassSummary pass(double seconds, Tracer& tracer, Report& report) = 0;
    /// End-to-end metrics of the last untraced pass.
    virtual void end_to_end(Report& report) const = 0;
    /// Per-layer metrics of the last traced pass.
    virtual void per_layer(const Tracer& tracer, Report& report) const = 0;
};

std::unique_ptr<Workload> make_solve_cold(const RunOptions& options);
/// `pool_workers`: the solver service's batch pool (the calling thread
/// helps too); 0 solves the grid one request at a time on the calling
/// thread instead of as a batch.
std::unique_ptr<Workload> make_capacity_sweep(const RunOptions& options, int pool_workers);
/// stream's input is the fixed Table III profile: no seed to take. `alone`
/// adds the check that no span outside rt overlaps the timed phases.
std::unique_ptr<Workload> make_stream(bool alone);
/// stream beside a capacity_sweep planner on one more thread.
std::unique_ptr<Workload> make_stream_planner(const RunOptions& options);

/// Reports throughput plus p50/p90 latency (p99 and sample count as
/// context) under the common end-to-end names.
void report_rate_and_latency(Report& report, double throughput_per_s,
                             const std::vector<double>& latencies_us);

/// `<layer>.busy_share` for every layer: the layer's self time summed over
/// its spans (thread-seconds) per second of pass wall time. Parallel work
/// (pool solves, pipeline stages) can push a share above 1.
void report_busy_shares(Report& report, const Tracer& tracer, std::int64_t from_ns,
                        std::int64_t to_ns);

} // namespace perfbench
