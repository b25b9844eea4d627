// Shared pieces of the wall-clock benchmark: timing and statistics
// helpers, the metric report, and the in-memory span tracer.
//
// The benchmark measures every layer from outside, by timing calls into
// the public API (Runtime, Plan, Service, SlidingWindowSat and the serial
// references).  Spans are kept in memory by the benchmark itself and
// written out as a Chrome trace at exit; the library's own tracing
// (Service::Options::trace) stays off, because it forces the simulator.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linearly interpolated percentile (p in [0, 100]) of unsorted samples,
/// as numpy's default; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] double median(const std::vector<double>& v);
[[nodiscard]] double mean(const std::vector<double>& v);

/// Peak resident set size of this process so far (getrusage).
[[nodiscard]] double peak_rss_mb();

/// CPUs this process may run on, capped at 4 (the workloads' thread
/// budget).
[[nodiscard]] int cpu_budget();

/// Deterministic 64-bit mix (splitmix64) for deriving per-input seeds.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b);

struct Config {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /// Small shapes and one set-up round: checks the harness, not speed.
    bool smoke = false;
    std::string trace_out; ///< Chrome trace path (traced runs only)
};

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/// What one run reports: operation counts for the result line, the
/// end-to-end metrics (untraced run), the per-layer metrics (traced run)
/// and the workload's own names for its end-to-end numbers, which are
/// printed but not part of the result line.
struct Outcome {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> e2e;
    std::vector<Metric> layer;
    std::vector<Metric> named;

    void add_e2e(std::string name, double v, std::string unit)
    {
        e2e.push_back({std::move(name), v, std::move(unit)});
    }
    void add_layer(std::string name, double v, std::string unit)
    {
        layer.push_back({std::move(name), v, std::move(unit)});
    }
    void add_named(std::string name, double v, std::string unit)
    {
        named.push_back({std::move(name), v, std::move(unit)});
    }
};

// ------------------------------------------------------------- tracing ----

struct SpanRecord {
    const char* name = "";
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::uint64_t request = 0; ///< 0 = not tied to one request
    std::int64_t t0_ns = 0;
    std::int64_t t1_ns = 0;
    int tid = 0;
};

/// Process-wide in-memory span store.  Off by default; record() and
/// Scope are no-ops while off, so the untraced run pays one relaxed load
/// per span site.
class Tracer {
public:
    void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
    [[nodiscard]] bool on() const
    {
        return on_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t new_id()
    {
        return ids_.fetch_add(1, std::memory_order_relaxed) + 1;
    }
    [[nodiscard]] std::int64_t ns(Clock::time_point t) const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t -
                                                                    origin_)
            .count();
    }
    void record(const SpanRecord& s);
    [[nodiscard]] std::size_t size() const;

    /// Chrome trace-event JSON ("X" events; id/parent/request in args).
    void write_chrome(std::ostream& os) const;
    /// Per span name: count, total and self time (duration minus the
    /// part covered by child spans).
    void print_self_times(std::ostream& os) const;

private:
    std::atomic<bool> on_{false};
    std::atomic<std::uint64_t> ids_{0};
    const Clock::time_point origin_ = Clock::now();
    mutable std::mutex mu_;
    std::vector<SpanRecord> spans_;
};

[[nodiscard]] Tracer& tracer();
/// Small stable id of the calling thread, for trace output.
[[nodiscard]] int thread_index();

/// RAII span around one call.  Its parent is the innermost open Scope on
/// the same thread unless one is given.
class Scope {
public:
    explicit Scope(const char* name, std::uint64_t request = 0,
                   std::uint64_t parent = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

private:
    SpanRecord rec_;
    std::uint64_t prev_ = 0;
    bool live_ = false;
};

} // namespace perfbench
