#include "bench.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

namespace perfbench {

void spin_until_ns(std::int64_t deadline_ns) noexcept
{
    while (now_ns() < deadline_ns) {
    }
}

KeepAwake::KeepAwake()
{
    for (int i = 0; i < cpu_count(); ++i)
        spinners_.emplace_back([this] {
            sched_param param{};
            if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0)
                return;
            while (!stop_.load(std::memory_order_relaxed))
                __builtin_ia32_pause();
        });
}

KeepAwake::~KeepAwake()
{
    stop_.store(true);
    for (auto& spinner : spinners_)
        spinner.join();
}

double quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double pos = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double windowed_rate(const std::vector<std::int64_t>& completions_ns, std::int64_t from_ns,
                     std::int64_t to_ns)
{
    if (to_ns <= from_ns)
        return 0.0;
    const double width = static_cast<double>(to_ns - from_ns) / kRateWindows;
    std::vector<double> counts(kRateWindows, 0.0);
    for (const std::int64_t t : completions_ns) {
        if (t < from_ns || t >= to_ns)
            continue;
        const auto slot = static_cast<std::size_t>(static_cast<double>(t - from_ns) / width);
        counts[std::min<std::size_t>(slot, kRateWindows - 1)] += 1.0;
    }
    return quantile(counts, 0.5) / (width / 1e9);
}

double peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

int thread_count()
{
    std::ifstream status{"/proc/self/status"};
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("Threads:", 0) == 0)
            return std::stoi(line.substr(8));
    return 0;
}

double steal_seconds()
{
    std::ifstream stat{"/proc/stat"};
    std::string cpu;
    long long fields[8] = {};
    if (!(stat >> cpu) || cpu != "cpu")
        return 0.0;
    for (long long& field : fields)
        if (!(stat >> field))
            return 0.0;
    // user nice system idle iowait irq softirq steal
    return static_cast<double>(fields[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double probe_ms()
{
    const std::int64_t start = now_ns();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 20'000'000; ++i)
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::int64_t stop = now_ns();
    volatile std::uint64_t sink = x; // keeps the loop from being folded away
    (void)sink;
    return static_cast<double>(stop - start) / 1e6;
}

namespace {
std::atomic<int> g_max_threads{0};
} // namespace

void note_thread_count()
{
    const int now = thread_count();
    int seen = g_max_threads.load();
    while (now > seen && !g_max_threads.compare_exchange_weak(seen, now)) {
    }
}

int max_thread_count() noexcept { return g_max_threads.load(); }

int cpu_count()
{
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<int>(n) : 1;
}

// -- report ----------------------------------------------------------------

void Report::metric(const std::string& name, double value, const std::string& unit)
{
    metrics_[name] = Metric{value, unit};
}

void Report::context(const std::string& line) { context_.push_back(line); }

void Report::check(bool ok, const std::string& what)
{
    if (ok)
        return;
    correct_ = false;
    if (printed_failures_++ < 20)
        std::printf("CHECK FAILED: %s\n", what.c_str());
}

void Report::operation(bool ok) noexcept
{
    ++attempted_;
    if (!ok)
        ++failed_;
}

void Report::failed_with(const std::string& what)
{
    operation(false);
    check(false, "operation threw: " + what);
}

void Report::merge(const Report& other)
{
    for (const auto& [name, metric] : other.metrics_)
        metrics_[name] = metric;
    context_.insert(context_.end(), other.context_.begin(), other.context_.end());
    correct_ = correct_ && other.correct_;
    attempted_ += other.attempted_;
    failed_ += other.failed_;
}

namespace {

std::string json_number(double value)
{
    if (!std::isfinite(value))
        return "0";
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

std::string json_escape(const std::string& text)
{
    std::string out;
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

void Report::print() const
{
    for (const auto& line : context_)
        std::printf("%s\n", line.c_str());
    std::ostringstream json;
    json << "{\"correct\": " << (correct_ ? "true" : "false")
         << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
         << ", \"failed\": " << failed_ << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, metric] : metrics_) {
        json << (first ? "" : ", ") << '"' << json_escape(name) << "\": {\"value\": "
             << json_number(metric.value) << ", \"unit\": \"" << json_escape(metric.unit)
             << "\"}";
        first = false;
    }
    json << "}}";
    std::printf("%s\n", json.str().c_str());
    std::fflush(stdout);
}

// -- tracer ------------------------------------------------------------------

const char* to_string(Layer layer) noexcept
{
    switch (layer) {
    case Layer::bench: return "bench";
    case Layer::core: return "core";
    case Layer::svc: return "svc";
    case Layer::plan: return "plan";
    case Layer::dsim: return "dsim";
    case Layer::rt: return "rt";
    }
    return "?";
}

void Tracer::add(const Span& span)
{
    std::lock_guard lock{mutex_};
    spans_.push_back(span);
}

std::array<double, kLayerCount> Tracer::self_seconds(std::int64_t from_ns,
                                                     std::int64_t to_ns) const
{
    std::lock_guard lock{mutex_};
    std::unordered_map<std::int64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
    for (const Span& span : spans_)
        if (span.parent != 0)
            children[span.parent].emplace_back(span.start_ns, span.end_ns);

    std::array<double, kLayerCount> self{};
    for (const Span& span : spans_) {
        if (span.start_ns < from_ns || span.start_ns > to_ns)
            continue;
        std::int64_t covered = 0;
        if (const auto it = children.find(span.id); it != children.end()) {
            auto intervals = it->second;
            std::sort(intervals.begin(), intervals.end());
            std::int64_t cursor = span.start_ns;
            for (auto [begin, end] : intervals) {
                begin = std::max(begin, cursor);
                end = std::min(end, span.end_ns);
                if (end > begin) {
                    covered += end - begin;
                    cursor = end;
                }
            }
        }
        self[static_cast<std::size_t>(span.layer)] +=
            static_cast<double>(span.end_ns - span.start_ns - covered) / 1e9;
    }
    return self;
}

bool Tracer::any_outside(Layer layer, std::int64_t from_ns, std::int64_t to_ns) const
{
    std::lock_guard lock{mutex_};
    return std::any_of(spans_.begin(), spans_.end(), [&](const Span& span) {
        return span.layer != layer && span.end_ns > from_ns && span.start_ns < to_ns;
    });
}

std::size_t Tracer::size() const
{
    std::lock_guard lock{mutex_};
    return spans_.size();
}

bool Tracer::write_chrome(const std::string& path) const
{
    std::lock_guard lock{mutex_};
    std::ofstream out{path};
    if (!out)
        return false;
    const std::int64_t origin = spans_.empty()
        ? 0
        : std::min_element(spans_.begin(), spans_.end(), [](const Span& a, const Span& b) {
              return a.start_ns < b.start_ns;
          })->start_ns;
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& span = spans_[i];
        out << "{\"name\": \"" << span.name << "\", \"cat\": \"" << to_string(span.layer)
            << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << span.track
            << ", \"ts\": " << json_number(ns_to_us(span.start_ns - origin))
            << ", \"dur\": " << json_number(ns_to_us(span.end_ns - span.start_ns))
            << ", \"args\": {\"id\": " << span.id << ", \"parent\": " << span.parent
            << ", \"query\": " << span.query << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name, Layer layer, std::int64_t parent,
                       std::int64_t query, int track) noexcept
    : tracer_(tracer)
{
    if (!tracer_.on())
        return;
    span_ = Span{name, layer, now_ns(), 0, tracer_.new_id(), parent, query, track};
}

ScopedSpan::~ScopedSpan()
{
    if (!tracer_.on())
        return;
    span_.end_ns = now_ns();
    tracer_.add(span_);
}

// -- shared metric helpers ---------------------------------------------------

void report_rate_and_latency(Report& report, double throughput_per_s,
                             const std::vector<double>& latencies_us)
{
    report.metric("throughput_per_s", throughput_per_s, "1/s");
    report.metric("latency_p50_us", quantile(latencies_us, 0.50), "us");
    report.metric("latency_p90_us", quantile(latencies_us, 0.90), "us");
    char line[160];
    std::snprintf(line, sizeof line, "context: latency_p99_us = %.1f us (n = %zu samples)",
                  quantile(latencies_us, 0.99), latencies_us.size());
    report.context(line);
}

void report_busy_shares(Report& report, const Tracer& tracer, std::int64_t from_ns,
                        std::int64_t to_ns)
{
    const auto self = tracer.self_seconds(from_ns, to_ns);
    const double wall = static_cast<double>(to_ns - from_ns) / 1e9;
    for (std::size_t i = 0; i < kLayerCount; ++i)
        report.metric(std::string{to_string(static_cast<Layer>(i))} + ".busy_share",
                      wall > 0.0 ? self[i] / wall : 0.0, "ratio");
}

} // namespace perfbench
