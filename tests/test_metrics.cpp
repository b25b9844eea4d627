// Tests for the observability layer (sat/metrics.hpp, sat/trace.hpp) and
// its service wiring: the histogram bucket layout and its one-bucket-width
// agreement with bench::percentile, deterministic text/JSON exposition,
// the admission EventLog, the merged Chrome trace (request spans nesting
// wave and kernel phase ranges), metrics-vs-Stats equivalence after a
// drain, and byte-determinism of the whole pipeline under the virtual
// clock with a single-worker closed loop.
#include "../bench/bench_common.hpp"
#include "json_valid.hpp"
#include "sat/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

namespace sat = satgpu::sat;
namespace obs = satgpu::sat::obs;
using satgpu::Dtype;

// ------------------------------------------------------ bucket layout ------

TEST(HistogramBuckets, LoHiPartitionAllOfU64)
{
    using H = obs::Histogram;
    // Exact singleton buckets below 16.
    for (std::uint64_t v = 0; v < 16; ++v) {
        EXPECT_EQ(H::bucket_index(v), static_cast<int>(v));
        EXPECT_EQ(H::bucket_lo(static_cast<int>(v)), v);
        EXPECT_EQ(H::bucket_hi(static_cast<int>(v)), v);
    }
    // The buckets tile [0, 2^64) with no gaps or overlaps, lo/hi are
    // monotone, and bucket_index is the inverse of the bounds.
    for (int i = 0; i < H::kBuckets; ++i) {
        const std::uint64_t lo = H::bucket_lo(i);
        const std::uint64_t hi = H::bucket_hi(i);
        ASSERT_LE(lo, hi) << "bucket " << i;
        EXPECT_EQ(H::bucket_index(lo), i);
        EXPECT_EQ(H::bucket_index(hi), i);
        if (i > 0) {
            EXPECT_EQ(H::bucket_lo(i), H::bucket_hi(i - 1) + 1)
                << "gap/overlap at bucket " << i;
        }
        // Log-spaced region: relative width bounded by 25%.
        if (i >= H::kLinearBuckets) {
            EXPECT_LE(4 * (hi - lo), lo)
                << "bucket " << i << " wider than 25%";
        }
    }
    EXPECT_EQ(H::bucket_lo(0), 0U);
    EXPECT_EQ(H::bucket_hi(H::kBuckets - 1),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(H::bucket_index(std::numeric_limits<std::uint64_t>::max()),
              H::kBuckets - 1);
    // Power-of-two boundaries land in the first sub-bucket of their octave.
    for (int o = 4; o < 64; ++o) {
        const std::uint64_t v = std::uint64_t{1} << o;
        EXPECT_EQ(H::bucket_lo(H::bucket_index(v)), v) << "2^" << o;
    }
}

TEST(HistogramBuckets, ObserveCountsSumsAndBuckets)
{
    obs::Histogram h;
    EXPECT_EQ(h.count(), 0U);
    EXPECT_EQ(h.sum(), 0U);
    h.observe(0);
    h.observe(5);
    h.observe(5);
    h.observe(1000);
    EXPECT_EQ(h.count(), 4U);
    EXPECT_EQ(h.sum(), 1010U);
    EXPECT_EQ(h.bucket_count(obs::Histogram::bucket_index(0)), 1U);
    EXPECT_EQ(h.bucket_count(obs::Histogram::bucket_index(5)), 2U);
    EXPECT_EQ(h.bucket_count(obs::Histogram::bucket_index(1000)), 1U);
}

// ---------------------------------------------------------- quantiles ------

TEST(HistogramQuantile, EmptyAndSingleAndClamping)
{
    obs::Histogram h;
    EXPECT_EQ(h.quantile(50), 0U);
    EXPECT_EQ(h.quantile_bucket(50), -1);

    h.observe(7);
    for (const double p : {-10.0, 0.0, 50.0, 99.0, 100.0, 250.0,
                           std::numeric_limits<double>::quiet_NaN()}) {
        EXPECT_EQ(h.quantile(p), 7U) << "p = " << p;
        EXPECT_EQ(h.quantile_bucket(p), 7) << "p = " << p;
    }
}

TEST(HistogramQuantile, ExactBelowSixteenMatchesBenchPercentile)
{
    // Every sample below 16 has a singleton bucket, so the histogram
    // quantile must EQUAL bench::percentile, not just bracket it.
    obs::Histogram h;
    std::vector<double> raw;
    for (const std::uint64_t v : {0ULL, 1ULL, 1ULL, 3ULL, 8ULL, 8ULL, 15ULL}) {
        h.observe(v);
        raw.push_back(static_cast<double>(v));
    }
    for (const double p : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0})
        EXPECT_EQ(static_cast<double>(h.quantile(p)),
                  satgpu::bench::percentile(raw, p))
            << "p = " << p;
}

TEST(HistogramQuantile, WithinOneBucketOfBenchPercentile)
{
    // The ISSUE's cross-check: on arbitrary samples, the histogram-derived
    // quantile brackets the exact nearest-rank percentile within one
    // bucket (identical rank formula, bucket-width resolution).
    obs::Histogram h;
    std::vector<double> raw;
    std::uint64_t x = 88172645463325252ULL; // xorshift64, fixed seed
    for (int i = 0; i < 500; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::uint64_t v = x % 2'000'000; // us-scale latencies
        h.observe(v);
        raw.push_back(static_cast<double>(v));
    }
    for (const double p : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
        const double exact = satgpu::bench::percentile(raw, p);
        const int b = h.quantile_bucket(p);
        ASSERT_GE(b, 0);
        EXPECT_GE(exact, static_cast<double>(obs::Histogram::bucket_lo(b)))
            << "p = " << p;
        EXPECT_LE(exact, static_cast<double>(obs::Histogram::bucket_hi(b)))
            << "p = " << p;
        EXPECT_EQ(h.quantile(p), obs::Histogram::bucket_hi(b));
    }
}

// ---------------------------------------------------- bench::percentile ----

TEST(BenchPercentile, DefinedOnEveryInput)
{
    using satgpu::bench::percentile;
    EXPECT_EQ(percentile({}, 50), 0.0);
    EXPECT_EQ(percentile({42.0}, 0), 42.0);
    EXPECT_EQ(percentile({42.0}, 100), 42.0);
    // Unsorted input is sorted internally.
    const std::vector<double> s{9.0, 1.0, 5.0, 3.0, 7.0};
    EXPECT_EQ(percentile(s, 0), 1.0);
    EXPECT_EQ(percentile(s, 50), 5.0);
    EXPECT_EQ(percentile(s, 100), 9.0);
    // Out-of-range p clamps to the nearest end; NaN clamps to 0.
    EXPECT_EQ(percentile(s, -5), 1.0);
    EXPECT_EQ(percentile(s, 250), 9.0);
    EXPECT_EQ(percentile(s, std::numeric_limits<double>::quiet_NaN()), 1.0);
}

// ------------------------------------------------------------ registry -----

TEST(MetricsRegistry, RegisterOrLookupReturnsStableInstruments)
{
    obs::MetricsRegistry reg;
    obs::Counter& a = reg.counter("requests_total", "plan-a");
    obs::Counter& b = reg.counter("requests_total", "plan-b");
    EXPECT_NE(&a, &b);
    EXPECT_EQ(&reg.counter("requests_total", "plan-a"), &a);

    a.inc();
    a.inc(4);
    b.inc(2);
    EXPECT_EQ(a.value(), 5U);
    EXPECT_EQ(reg.counter_total("requests_total"), 7U);
    EXPECT_EQ(reg.counter_total("no_such_metric"), 0U);

    obs::Gauge& g = reg.gauge("depth");
    g.set(3);
    g.add(-1);
    EXPECT_EQ(g.value(), 2);
    g.set_max(10);
    g.set_max(4); // monotone: no effect
    EXPECT_EQ(g.value(), 10);

    reg.histogram("latency_us", "plan-a").observe(100);
    reg.histogram("latency_us", "plan-b").observe(200);
    const auto t = reg.histogram_total("latency_us");
    EXPECT_EQ(t.count, 2U);
    EXPECT_EQ(t.sum, 300U);
    EXPECT_EQ(reg.series_count(), 5U);
}

TEST(MetricsRegistry, TextAndJsonAreDeterministicAndSorted)
{
    // Two registries fed the same instruments in DIFFERENT registration
    // orders must serialize byte-identically (exposition iterates sorted
    // maps, never insertion order).
    const auto build = [](obs::MetricsRegistry& reg, bool reversed) {
        const std::vector<std::pair<const char*, const char*>> series{
            {"zz_total", "p1"}, {"aa_total", "p2"}, {"aa_total", "p1"}};
        for (std::size_t n = 0; n < series.size(); ++n) {
            const auto& [name, label] =
                series[reversed ? series.size() - 1 - n : n];
            reg.counter(name, label).inc(3);
        }
        reg.gauge("depth").set(5);
        reg.histogram("lat_us", "p1").observe(12);
        reg.histogram("lat_us", "p1").observe(700);
    };
    obs::MetricsRegistry r1;
    obs::MetricsRegistry r2;
    build(r1, false);
    build(r2, true);

    std::ostringstream t1;
    std::ostringstream t2;
    r1.write_text(t1);
    r2.write_text(t2);
    EXPECT_EQ(t1.str(), t2.str());
    EXPECT_NE(t1.str().find("# TYPE aa_total counter"), std::string::npos);
    EXPECT_NE(t1.str().find("aa_total{plan=\"p1\"} 3"), std::string::npos);
    EXPECT_NE(t1.str().find("lat_us_count{plan=\"p1\"} 2"),
              std::string::npos);
    EXPECT_NE(t1.str().find("le=\"+Inf\""), std::string::npos);
    // Families come out name sorted.
    EXPECT_LT(t1.str().find("aa_total"), t1.str().find("zz_total"));

    std::ostringstream j1;
    std::ostringstream j2;
    r1.write_json(j1);
    r2.write_json(j2);
    EXPECT_EQ(j1.str(), j2.str());
    const std::string doc = j1.str();
    ASSERT_TRUE(jsonv::valid(doc)) << doc.substr(0, 400);
    EXPECT_NE(doc.find("\"schema\":\"satgpu-metrics-v1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"aa_total\""), std::string::npos);
    EXPECT_NE(doc.find("\"p50\""), std::string::npos);
    EXPECT_NE(doc.find("\"p99\""), std::string::npos);
    EXPECT_NE(doc.find("\"buckets\""), std::string::npos);
}

// ------------------------------------------------------------ event log ----

TEST(EventLog, OneValidJsonObjectPerLine)
{
    std::ostringstream os;
    obs::EventLog log(os);
    log.record({.event = "reject",
                .reason = "queue_depth",
                .request = 7,
                .plan = "48x32/u8->u32/brlt-scan-row",
                .t_us = 123,
                .queue_depth = 4,
                .queued_bytes = 6144,
                .request_bytes = 1536});
    log.record({.event = "oversized_escape",
                .reason = "",
                .request = 8,
                .plan = "p",
                .t_us = 130,
                .queue_depth = 0,
                .queued_bytes = 0,
                .request_bytes = 1 << 20});
    EXPECT_EQ(log.count(), 2U);

    std::istringstream in(os.str());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        EXPECT_TRUE(jsonv::valid(line)) << line;
    }
    EXPECT_EQ(lines, 2U);
    EXPECT_NE(os.str().find("\"event\":\"reject\""), std::string::npos);
    EXPECT_NE(os.str().find("\"reason\":\"queue_depth\""),
              std::string::npos);
    EXPECT_NE(os.str().find("\"event\":\"oversized_escape\""),
              std::string::npos);
}

// ------------------------------------------------------------ trace sink ---

namespace {

/// One complete ("X") event scraped from the fixed-key-order serializer.
struct XEvent {
    long long pid = 0;
    long long tid = 0;
    std::uint64_t ts = 0;
    std::uint64_t dur = 0;
    std::string name;
    std::string cat;
};

std::vector<XEvent> x_events(const std::string& doc)
{
    std::vector<XEvent> out;
    std::size_t pos = 0;
    const auto num_after = [&](std::size_t& cur, const char* key) {
        cur = doc.find(key, cur);
        EXPECT_NE(cur, std::string::npos) << key;
        cur += std::string_view(key).size();
        return std::strtoull(doc.c_str() + cur, nullptr, 10);
    };
    const auto str_after = [&](std::size_t& cur, const char* key) {
        cur = doc.find(key, cur);
        EXPECT_NE(cur, std::string::npos) << key;
        cur += std::string_view(key).size();
        return doc.substr(cur, doc.find('"', cur) - cur);
    };
    while ((pos = doc.find("{\"ph\":\"X\"", pos)) != std::string::npos) {
        std::size_t cur = pos;
        XEvent e;
        e.pid = static_cast<long long>(num_after(cur, "\"pid\":"));
        e.tid = static_cast<long long>(num_after(cur, "\"tid\":"));
        e.ts = num_after(cur, "\"ts\":");
        e.dur = num_after(cur, "\"dur\":");
        e.name = str_after(cur, "\"name\":\"");
        e.cat = str_after(cur, "\"cat\":\"");
        out.push_back(std::move(e));
        pos = cur;
    }
    return out;
}

} // namespace

TEST(TraceSink, SerializationIsRecordingOrderInvariant)
{
    const auto span = [](obs::SpanKind k, obs::RequestId r,
                         std::uint64_t wave, int worker, int slot,
                         std::uint64_t b, std::uint64_t e) {
        return obs::Span{.kind = k,
                         .request = r,
                         .wave = wave,
                         .worker = worker,
                         .slot = slot,
                         .t_begin = b,
                         .t_end = e,
                         .plan = "p"};
    };
    std::vector<obs::Span> spans{
        span(obs::SpanKind::kQueued, 1, 1, 0, 0, 1, 3),
        span(obs::SpanKind::kExecute, 0, 1, 0, 0, 4, 9),
        span(obs::SpanKind::kFulfilled, 1, 1, 0, 0, 9, 10),
        span(obs::SpanKind::kQueued, 2, 1, 1, 0, 2, 5),
        span(obs::SpanKind::kAssembled, 0, 1, 0, 0, 3, 4),
    };
    obs::TraceSink fwd;
    obs::TraceSink rev;
    for (const auto& s : spans)
        fwd.record_span(s);
    for (auto it = spans.rbegin(); it != spans.rend(); ++it)
        rev.record_span(*it);
    EXPECT_EQ(fwd.span_count(), spans.size());

    std::ostringstream o1;
    std::ostringstream o2;
    fwd.write_chrome_trace(o1);
    rev.write_chrome_trace(o2);
    EXPECT_EQ(o1.str(), o2.str());
    ASSERT_TRUE(jsonv::valid(o1.str())) << o1.str().substr(0, 400);
    // Worker-index merge order: worker 0's pid-1 events precede worker 1's.
    const auto events = x_events(o1.str());
    ASSERT_EQ(events.size(), spans.size());
    EXPECT_TRUE(std::is_sorted(
        events.begin(), events.end(),
        [](const XEvent& a, const XEvent& b) { return a.pid < b.pid; }));
}

// ---------------------------------------------------- service wiring -------

namespace {

/// Deterministic closed-loop driver: single worker, virtual clock,
/// alternating between two plan keys.
struct LoopResult {
    std::string metrics_json;
    std::string metrics_text;
    std::string trace;
};

LoopResult run_closed_loop(int requests)
{
    obs::MetricsRegistry registry;
    obs::TraceSink sink;
    LoopResult out;
    {
        sat::Service::Options opt;
        opt.workers = 1;
        opt.max_wave = 1; // no linger: the clock-read sequence is fixed
        opt.metrics = &registry;
        opt.trace = &sink;
        opt.virtual_time = true;
        sat::Service svc(opt);
        for (int i = 0; i < requests; ++i) {
            const bool tall = (i % 2) == 0;
            auto img = sat::AnyMatrix::random(
                Dtype::u8_, tall ? 96 : 64, tall ? 64 : 96,
                static_cast<std::uint64_t>(i));
            (void)svc.submit(std::move(img), Dtype::u32_).get();
        }
        out.metrics_json = svc.metrics_json();
        out.metrics_text = svc.metrics_text();
    }
    std::ostringstream ts;
    sink.write_chrome_trace(ts);
    out.trace = ts.str();
    return out;
}

} // namespace

TEST(ServiceObservability, VirtualTimeClosedLoopIsByteDeterministic)
{
    const LoopResult a = run_closed_loop(6);
    const LoopResult b = run_closed_loop(6);
    EXPECT_EQ(a.metrics_json, b.metrics_json);
    EXPECT_EQ(a.metrics_text, b.metrics_text);
    EXPECT_EQ(a.trace, b.trace);
    ASSERT_TRUE(jsonv::valid(a.metrics_json))
        << a.metrics_json.substr(0, 400);
    ASSERT_TRUE(jsonv::valid(a.trace)) << a.trace.substr(0, 400);
}

TEST(ServiceObservability, TraceNestsRequestWaveAndKernelPhases)
{
    const LoopResult res = run_closed_loop(4);
    for (const char* name :
         {"request.queued", "wave.assembled", "plan.execute",
          "future.fulfilled"})
        EXPECT_NE(res.trace.find(name), std::string::npos) << name;

    const auto events = x_events(res.trace);
    std::vector<XEvent> executes;
    for (const auto& e : events)
        if (e.name == "plan.execute")
            executes.push_back(e);
    ASSERT_EQ(executes.size(), 4U); // one wave per request (max_wave = 1)

    std::size_t kernels = 0;
    std::size_t phases = 0;
    for (const auto& e : events) {
        if (e.cat == "kernel") {
            ++kernels;
            // Every kernel slice sits inside SOME execute window of its
            // worker process.
            bool contained = false;
            for (const auto& x : executes)
                contained |= x.pid == e.pid && e.ts >= x.ts &&
                             e.ts + e.dur <= x.ts + x.dur;
            EXPECT_TRUE(contained)
                << e.name << " @" << e.ts << "+" << e.dur
                << " escapes every plan.execute window";
        } else if (e.cat == "phase") {
            ++phases;
            // Phase ranges nest inside their launch's kernel slice (same
            // pid AND same launch row).
            bool contained = false;
            for (const auto& k : events)
                contained |= k.cat == "kernel" && k.pid == e.pid &&
                             k.tid == e.tid && e.ts >= k.ts &&
                             e.ts + e.dur <= k.ts + k.dur;
            EXPECT_TRUE(contained)
                << "phase " << e.name << " escapes its kernel slice";
        }
    }
    EXPECT_GT(kernels, 0U);
    EXPECT_GT(phases, 0U) << "tracing must enable the profiler "
                             "(PlanRequest::profile plumbing)";
    // request.queued closes before its wave executes; future.fulfilled
    // opens after.  With the virtual clock these are exact inequalities.
    for (const auto& e : events) {
        if (e.name != "request.queued" && e.name != "future.fulfilled")
            continue;
        bool ordered = false;
        for (const auto& x : executes)
            ordered |= e.name == "request.queued" ? e.ts + e.dur <= x.ts
                                                  : e.ts >= x.ts + x.dur;
        EXPECT_TRUE(ordered) << e.name << " @" << e.ts;
    }
}

TEST(ServiceObservability, MetricsMatchStatsAfterDrain)
{
    obs::MetricsRegistry registry;
    sat::Service::Options opt;
    opt.workers = 2;
    opt.max_wave = 4;
    opt.metrics = &registry;
    sat::Service::Stats stats;
    {
        sat::Service svc(opt);
        std::vector<std::future<sat::AnyMatrix>> futs;
        for (std::uint64_t s = 0; s < 10; ++s)
            futs.push_back(svc.submit(
                sat::AnyMatrix::random(Dtype::u8_, 40,
                                       s % 2 ? 32 : 24, s),
                Dtype::u32_));
        for (auto& f : futs)
            (void)f.get();
        stats = svc.stats();
        EXPECT_EQ(svc.metrics_json(), [&] {
            std::ostringstream os;
            registry.write_json(os);
            return os.str();
        }());
    }
    EXPECT_EQ(registry.counter_total("satgpu_service_submitted_total"),
              stats.submitted);
    EXPECT_EQ(registry.counter_total("satgpu_service_completed_total"),
              stats.completed);
    EXPECT_EQ(registry.counter_total("satgpu_service_rejected_total"),
              stats.rejected);
    EXPECT_EQ(registry.counter_total("satgpu_service_failed_total"),
              stats.failed);
    EXPECT_EQ(registry.counter_total("satgpu_service_waves_total"),
              stats.waves);
    EXPECT_EQ(registry.counter_total("satgpu_service_fused_requests_total"),
              stats.fused_requests);
    const auto e2e = registry.histogram_total("satgpu_service_e2e_us");
    EXPECT_EQ(e2e.count, stats.completed);
    const auto qwait =
        registry.histogram_total("satgpu_service_queue_wait_us");
    EXPECT_EQ(qwait.count, stats.submitted);
    const auto wsize = registry.histogram_total("satgpu_service_wave_size");
    EXPECT_EQ(wsize.count, stats.waves);
    EXPECT_EQ(wsize.sum, stats.completed + stats.failed);
}

TEST(ServiceObservability, RejectionsAreCountedAndLogged)
{
    std::ostringstream event_os;
    obs::EventLog events(event_os);
    obs::MetricsRegistry registry;
    sat::Service::Options opt;
    opt.workers = 1;
    opt.max_wave = 1;
    opt.max_queue = 1;
    opt.policy = sat::Service::AdmissionPolicy::kReject;
    opt.metrics = &registry;
    opt.events = &events;
    sat::Service::Stats stats;
    {
        sat::Service svc(opt);
        std::vector<std::future<sat::AnyMatrix>> futs;
        for (std::uint64_t s = 0; s < 8; ++s)
            futs.push_back(svc.submit(
                sat::AnyMatrix::random(Dtype::u8_, 96, 96, s), Dtype::u32_));
        for (auto& f : futs) {
            try {
                (void)f.get();
            } catch (const sat::QueueFullError&) {
            }
        }
        stats = svc.stats();
    }
    EXPECT_EQ(registry.counter_total("satgpu_service_rejected_total"),
              stats.rejected);
    EXPECT_GE(stats.rejected, 1U);
    EXPECT_EQ(events.count(), stats.rejected);
    EXPECT_NE(event_os.str().find("\"event\":\"reject\""),
              std::string::npos);
    EXPECT_NE(event_os.str().find("\"reason\":\"queue_depth\""),
              std::string::npos);
}

TEST(ServiceObservability, PlanKeyLabelIsDeterministicAndDistinct)
{
    const auto key = [](std::int64_t h, std::int64_t w) {
        return sat::plan_key({.height = h,
                              .width = w,
                              .dtypes = {Dtype::u8_, Dtype::u32_},
                              .algorithm = sat::Algorithm::kBrltScanRow});
    };
    const std::string a = sat::plan_key_label(key(48, 32));
    EXPECT_EQ(a, sat::plan_key_label(key(48, 32)));
    EXPECT_NE(a, sat::plan_key_label(key(32, 48)));
    EXPECT_NE(a.find("48x32"), std::string::npos);

    auto k = key(48, 32);
    k.check = true;
    EXPECT_NE(sat::plan_key_label(k).find("/check"), std::string::npos);

    // Tiled keys that differ only in carry fanout are distinct cache
    // entries, so they must not share one metric or trace series.
    auto fan1 = key(512, 512);
    fan1.tile = {128, 128, 1};
    auto fan4 = fan1;
    fan4.tile.carry_fanout = 4;
    ASSERT_NE(fan1, fan4);
    EXPECT_NE(sat::plan_key_label(fan1), sat::plan_key_label(fan4));
    EXPECT_NE(sat::plan_key_label(fan4).find("/tile128x128/fanout4"),
              std::string::npos)
        << sat::plan_key_label(fan4);
    // Untiled labels carry no fanout.
    EXPECT_EQ(sat::plan_key_label(key(48, 32)).find("fanout"),
              std::string::npos);
}
