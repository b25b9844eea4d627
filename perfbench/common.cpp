#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <map>
#include <ostream>
#include <unordered_map>

#include <sched.h>
#include <sys/resource.h>

namespace perfbench {

double percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos =
        std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 50); }

double mean(const std::vector<double>& v)
{
    if (v.empty())
        return 0;
    double s = 0;
    for (const double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

double peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

int cpu_budget()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    int n = 1;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        n = CPU_COUNT(&set);
    return std::clamp(n, 1, 4);
}

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

// ------------------------------------------------------------- tracing ----

Tracer& tracer()
{
    static Tracer t;
    return t;
}

int thread_index()
{
    static std::atomic<int> next{0};
    thread_local const int mine = next.fetch_add(1);
    return mine;
}

void Tracer::record(const SpanRecord& s)
{
    const std::lock_guard lk(mu_);
    spans_.push_back(s);
}

std::size_t Tracer::size() const
{
    const std::lock_guard lk(mu_);
    return spans_.size();
}

void Tracer::write_chrome(std::ostream& os) const
{
    const std::lock_guard lk(mu_);
    os << "{\"traceEvents\":[";
    os << std::fixed << std::setprecision(3);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord& s = spans_[i];
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
           << ",\"ts\":" << static_cast<double>(s.t0_ns) / 1e3
           << ",\"dur\":" << static_cast<double>(s.t1_ns - s.t0_ns) / 1e3
           << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
           << ",\"request\":" << s.request << "}}";
    }
    os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void Tracer::print_self_times(std::ostream& os) const
{
    const std::lock_guard lk(mu_);
    std::unordered_map<std::uint64_t, std::int64_t> child_ns;
    for (const SpanRecord& s : spans_)
        if (s.parent != 0)
            child_ns[s.parent] += s.t1_ns - s.t0_ns;
    struct Row {
        std::uint64_t count = 0;
        double total_ms = 0;
        double self_ms = 0;
    };
    std::map<std::string, Row> rows;
    for (const SpanRecord& s : spans_) {
        const std::int64_t dur = s.t1_ns - s.t0_ns;
        const auto it = child_ns.find(s.id);
        const std::int64_t covered =
            it == child_ns.end() ? 0 : std::min(it->second, dur);
        Row& r = rows[s.name];
        ++r.count;
        r.total_ms += static_cast<double>(dur) / 1e6;
        r.self_ms += static_cast<double>(dur - covered) / 1e6;
    }
    os << "per-layer self time (" << spans_.size() << " spans)\n"
       << "  " << std::left << std::setw(28) << "span" << std::right
       << std::setw(8) << "count" << std::setw(14) << "total_ms"
       << std::setw(14) << "self_ms" << std::setw(14) << "self_ms/call"
       << "\n";
    os << std::fixed << std::setprecision(3);
    for (const auto& [name, r] : rows)
        os << "  " << std::left << std::setw(28) << name << std::right
           << std::setw(8) << r.count << std::setw(14) << r.total_ms
           << std::setw(14) << r.self_ms << std::setw(14)
           << r.self_ms / static_cast<double>(r.count) << "\n";
    os << std::defaultfloat;
}

namespace {
thread_local std::uint64_t t_open_span = 0;
}

Scope::Scope(const char* name, std::uint64_t request, std::uint64_t parent)
{
    Tracer& t = tracer();
    if (!t.on())
        return;
    live_ = true;
    rec_.name = name;
    rec_.id = t.new_id();
    rec_.parent = parent != 0 ? parent : t_open_span;
    rec_.request = request;
    rec_.tid = thread_index();
    prev_ = t_open_span;
    t_open_span = rec_.id;
    rec_.t0_ns = t.ns(Clock::now());
}

Scope::~Scope()
{
    if (!live_)
        return;
    Tracer& t = tracer();
    rec_.t1_ns = t.ns(Clock::now());
    t_open_span = prev_;
    t.record(rec_);
}

} // namespace perfbench
