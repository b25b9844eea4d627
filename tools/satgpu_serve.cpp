// satgpu_serve: load driver for the concurrent sat::Service.
//
// Two phases, both optional:
//
//  * Load phase (--qps / --duration): replays an open-loop request trace
//    -- a paced stream of mixed or uniform shapes/dtype pairs -- through a
//    Service, reporting wall-clock p50/p99 latency, throughput, and the
//    service's own counters (plan-cache hits, waves, fusion, peak queue
//    depth).  --verify additionally demands every returned table be
//    bit-exact against the serial CPU oracle.
//
//  * Compare phase (--compare): the coalescing claim.  Runs the same
//    8-image 512x512 8u->32u burst through max_wave=1 and max_wave=8
//    services and reports the MODELED GPU time of each (the timing model
//    over the launches each service actually issued).  The modeled
//    speedup is deterministic -- launch counters are machine independent
//    -- and lands around 1.65x: a fused wave pays the fixed per-launch
//    overhead once per kernel pass instead of once per image.
//
// Wall-clock numbers vary by machine; modeled numbers and every counter do
// not.  CI therefore diffs BENCH_serve.json (emitted by --json) by schema,
// not by value.
#include "../bench/bench_common.hpp"
#include "core/random_fill.hpp"
#include "sat/service.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace {

using namespace satgpu;
using Clock = std::chrono::steady_clock;

[[nodiscard]] double us_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/// One trace template: the shape + dtype pair a request is stamped from.
struct Template {
    std::int64_t h;
    std::int64_t w;
    DtypePair pair;
};

/// Small shapes: the simulator executes on host CPUs, so serving-scale
/// traces need requests in the low-millisecond range.
[[nodiscard]] std::vector<Template> make_trace(std::string_view kind)
{
    if (kind == "same")
        return {{128, 128, {Dtype::u8_, Dtype::u32_}}};
    return {
        {128, 128, {Dtype::u8_, Dtype::u32_}},
        {96, 160, {Dtype::u8_, Dtype::i32_}},
        {256, 256, {Dtype::u8_, Dtype::u32_}},
        {64, 64, {Dtype::f32_, Dtype::f32_}},
        {160, 96, {Dtype::u32_, Dtype::u32_}},
    };
}

[[nodiscard]] sat::AnyMatrix random_image(Dtype t, std::int64_t h,
                                          std::int64_t w, std::uint64_t seed)
{
    sat::AnyMatrix m = sat::AnyMatrix::zeros(t, h, w);
    // Cap 15 keeps f32 tables exactly representable at these areas.
    switch (t) {
    case Dtype::u8_: fill_random_ints(m.as<u8>(), seed, 15); break;
    case Dtype::i32_: fill_random_ints(m.as<i32>(), seed, 15); break;
    case Dtype::u32_: fill_random_ints(m.as<u32>(), seed, 15); break;
    case Dtype::f32_: fill_random_ints(m.as<f32>(), seed, 15); break;
    case Dtype::f64_: fill_random_ints(m.as<f64>(), seed, 15); break;
    }
    return m;
}

/// Observability outputs of the load phase (all optional).
struct ObsConfig {
    std::string metrics_out; ///< satgpu-metrics-v1 JSON snapshot file
    std::string trace_out;   ///< merged Chrome/Perfetto trace file
    std::string events_out;  ///< admission-decision JSONL file
    /// > 0: rewrite metrics_out every this-many ms DURING the load (the
    /// snapshot loop a scraper would drive), plus the final snapshot.
    long metrics_every_ms = 0;
    bool virtual_time = false;

    [[nodiscard]] bool any() const
    {
        return !metrics_out.empty() || !trace_out.empty() ||
               !events_out.empty();
    }
};

void write_file_or_die(const std::string& path, const std::string& bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os) {
        std::cerr << "cannot open " << path << " for writing\n";
        std::exit(2);
    }
    os << bytes;
}

struct LoadReport {
    std::uint64_t requests = 0;
    std::uint64_t verified = 0;
    std::uint64_t mismatches = 0;
    double elapsed_us = 0;
    double throughput_rps = 0;
    double p50_us = 0;
    double p99_us = 0;
    double mean_us = 0;
    std::uint64_t trace_spans = 0;
    std::uint64_t admission_events = 0;
    sat::Service::Stats stats;
    std::vector<sat::Service::PlanInfo> plans; ///< snapshot at quiescence
};

LoadReport run_load(double qps, double duration_s,
                    sat::Service::Options sopt, std::string_view trace_kind,
                    bool verify, sat::Backend backend, const ObsConfig& obs)
{
    const auto templates = make_trace(trace_kind);
    const auto n = static_cast<std::size_t>(qps * duration_s);
    LoadReport rep;
    rep.requests = n;
    if (n == 0)
        return rep;

    // Pre-generate the whole trace so image synthesis never skews pacing.
    std::vector<sat::AnyMatrix> images;
    std::vector<Dtype> outs;
    images.reserve(n);
    outs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Template& t = templates[i % templates.size()];
        images.push_back(random_image(t.pair.in, t.h, t.w,
                                      /*seed=*/0x5eedull * 1000003u + i));
        outs.push_back(t.pair.out);
    }

    // Observability sinks: owned here, handed to the service by pointer.
    sat::obs::MetricsRegistry registry;
    sat::obs::TraceSink sink;
    std::ofstream events_os;
    std::unique_ptr<sat::obs::EventLog> events;
    sopt.metrics = &registry;
    sopt.virtual_time = obs.virtual_time;
    if (!obs.trace_out.empty())
        sopt.trace = &sink;
    if (!obs.events_out.empty()) {
        events_os.open(obs.events_out, std::ios::binary | std::ios::trunc);
        if (!events_os) {
            std::cerr << "cannot open " << obs.events_out
                      << " for writing\n";
            std::exit(2);
        }
        events = std::make_unique<sat::obs::EventLog>(events_os);
        sopt.events = events.get();
    }

    sat::Service svc(sopt);

    // Periodic snapshot mode: rewrite the metrics file on a fixed cadence
    // while the load runs, like a scrape endpoint would serve it.
    std::atomic<bool> snapshotting{obs.metrics_every_ms > 0 &&
                                   !obs.metrics_out.empty()};
    std::thread snapshotter;
    if (snapshotting.load()) {
        snapshotter = std::thread([&] {
            while (snapshotting.load(std::memory_order_relaxed)) {
                write_file_or_die(obs.metrics_out, svc.metrics_json());
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(obs.metrics_every_ms));
            }
        });
    }

    std::vector<std::future<sat::AnyMatrix>> futures(n);
    std::vector<Clock::time_point> submitted(n);
    std::vector<Clock::time_point> ready(n);

    // Stamp every future when it becomes ready, also while submission is
    // still running: poll the outstanding ones (oldest first) at 250 us
    // granularity until `until`.
    std::vector<std::size_t> outstanding;
    const auto reap_until = [&](Clock::time_point until) {
        while (!outstanding.empty()) {
            (void)futures[outstanding.front()].wait_until(std::min(
                until, Clock::now() + std::chrono::microseconds(250)));
            const auto now = Clock::now();
            std::erase_if(outstanding, [&](std::size_t i) {
                if (futures[i].wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready)
                    return false;
                ready[i] = now;
                return true;
            });
            if (now >= until)
                return;
        }
    };

    const auto interval =
        std::chrono::duration<double>(duration_s / static_cast<double>(n));
    const auto start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
        const auto due =
            start + std::chrono::duration_cast<Clock::duration>(
                        interval * static_cast<double>(i));
        reap_until(due);
        std::this_thread::sleep_until(due);
        submitted[i] = Clock::now();
        sat::Service::Request req;
        req.image = sat::AnyMatrix(images[i]);
        req.out = outs[i];
        req.backend = backend;
        futures[i] = svc.submit(std::move(req));
        outstanding.push_back(i);
    }
    reap_until(Clock::time_point::max());
    const auto end = Clock::now();

    // Collect and check the tables outside the timed interval.
    std::vector<double> latencies;
    latencies.reserve(n);
    std::uint64_t rejected_seen = 0;
    sat::Runtime oracle; // serial CPU reference for --verify
    for (std::size_t i = 0; i < n; ++i) {
        try {
            sat::AnyMatrix table = futures[i].get();
            latencies.push_back(us_between(submitted[i], ready[i]));
            if (verify) {
                ++rep.verified;
                if (!(table == oracle.reference(images[i], outs[i])))
                    ++rep.mismatches;
            }
        } catch (const sat::QueueFullError&) {
            ++rejected_seen;
        }
    }

    rep.elapsed_us = us_between(start, end);
    rep.throughput_rps =
        static_cast<double>(latencies.size()) / (rep.elapsed_us * 1e-6);
    rep.p50_us = bench::percentile(latencies, 50);
    rep.p99_us = bench::percentile(latencies, 99);
    for (const double l : latencies)
        rep.mean_us += l;
    if (!latencies.empty())
        rep.mean_us /= static_cast<double>(latencies.size());
    rep.stats = svc.stats();
    rep.plans = svc.plan_info();
    SATGPU_CHECK(rep.stats.rejected == rejected_seen,
                 "rejection accounting out of sync");

    if (snapshotter.joinable()) {
        snapshotting.store(false);
        snapshotter.join();
    }
    // Final outputs, written at quiescence (every future joined above).
    if (!obs.metrics_out.empty())
        write_file_or_die(obs.metrics_out, svc.metrics_json());
    if (!obs.trace_out.empty()) {
        std::ofstream os(obs.trace_out, std::ios::binary | std::ios::trunc);
        if (!os) {
            std::cerr << "cannot open " << obs.trace_out
                      << " for writing\n";
            std::exit(2);
        }
        sink.write_chrome_trace(os);
    }
    rep.trace_spans = sink.span_count();
    if (events)
        rep.admission_events = events->count();
    return rep;
}

struct CompareReport {
    std::int64_t side = 512;
    int burst = 8;
    double single_modeled_us = 0;
    double fused_modeled_us = 0;
    double modeled_speedup = 0;
    double single_wall_us = 0;
    double fused_wall_us = 0;
    std::uint64_t fused_waves = 0;
    std::uint64_t fused_max_wave = 0;
};

/// Push one warm-up then a burst of `burst` same-key images through `svc`;
/// returns (modeled_us delta, wall_us) for the burst alone.  The warm-up
/// occupies the worker while the burst enqueues, so a coalescing service
/// deterministically sees the whole burst queued when it next gathers.
std::pair<double, double> run_burst(sat::Service& svc,
                                    const std::vector<sat::AnyMatrix>& images,
                                    int burst)
{
    (void)svc.submit(sat::AnyMatrix(images[0]), Dtype::u32_).get();
    const double before = svc.stats().modeled_gpu_us;
    const auto start = Clock::now();
    std::vector<std::future<sat::AnyMatrix>> futs;
    futs.reserve(static_cast<std::size_t>(burst));
    for (int i = 0; i < burst; ++i)
        futs.push_back(svc.submit(
            sat::AnyMatrix(images[static_cast<std::size_t>(i) + 1]),
            Dtype::u32_));
    for (auto& f : futs)
        (void)f.get();
    const double wall = us_between(start, Clock::now());
    return {svc.stats().modeled_gpu_us - before, wall};
}

CompareReport run_compare()
{
    CompareReport rep;
    std::vector<sat::AnyMatrix> images;
    for (int i = 0; i <= rep.burst; ++i)
        images.push_back(random_image(
            Dtype::u8_, rep.side, rep.side,
            /*seed=*/std::uint64_t{0xc0a1e5ce} +
                static_cast<std::uint64_t>(i)));

    sat::Service::Options single;
    single.workers = 1;
    single.max_wave = 1;
    sat::Service svc_single(single);
    std::tie(rep.single_modeled_us, rep.single_wall_us) =
        run_burst(svc_single, images, rep.burst);

    sat::Service::Options fused;
    fused.workers = 1;
    fused.max_wave = rep.burst;
    fused.max_linger = std::chrono::microseconds(200'000);
    sat::Service svc_fused(fused);
    std::tie(rep.fused_modeled_us, rep.fused_wall_us) =
        run_burst(svc_fused, images, rep.burst);
    const auto fstats = svc_fused.stats();
    rep.fused_waves = fstats.waves - 1; // minus the warm-up wave
    rep.fused_max_wave = fstats.max_wave_size;

    rep.modeled_speedup = rep.fused_modeled_us > 0
                              ? rep.single_modeled_us / rep.fused_modeled_us
                              : 0;
    return rep;
}

void emit_json(const sat::Service::Options& sopt, double qps,
               double duration_s, std::string_view trace_kind, bool verify,
               const LoadReport& load, const CompareReport* compare)
{
    JsonWriter w(std::cout);
    bench::bench_json_prelude(w, "serve");
    w.key("config");
    w.begin_object();
    w.key("qps");
    w.value(qps);
    w.key("duration_s");
    w.value(duration_s);
    w.key("workers");
    w.value(sopt.workers);
    w.key("max_wave");
    w.value(sopt.max_wave);
    w.key("linger_us");
    w.value(static_cast<std::int64_t>(sopt.max_linger.count()));
    w.key("max_queue");
    w.value(static_cast<std::uint64_t>(sopt.max_queue));
    w.key("policy");
    w.value(sopt.policy == sat::Service::AdmissionPolicy::kBlock
                ? "block"
                : "reject");
    w.key("trace");
    w.value(trace_kind);
    w.key("verify");
    w.value(verify);
    w.end_object();

    w.key("load");
    w.begin_object();
    w.key("requests");
    w.value(load.requests);
    w.key("completed");
    w.value(load.stats.completed);
    w.key("rejected");
    w.value(load.stats.rejected);
    w.key("blocked");
    w.value(load.stats.blocked);
    w.key("failed");
    w.value(load.stats.failed);
    w.key("verified");
    w.value(load.verified);
    w.key("mismatches");
    w.value(load.mismatches);
    w.key("throughput_rps");
    w.value(load.throughput_rps);
    w.key("latency_us");
    w.begin_object();
    w.key("p50");
    w.value(load.p50_us);
    w.key("p99");
    w.value(load.p99_us);
    w.key("mean");
    w.value(load.mean_us);
    w.end_object();
    w.key("service");
    w.begin_object();
    w.key("plan_hits");
    w.value(load.stats.plan_hits);
    w.key("plan_misses");
    w.value(load.stats.plan_misses);
    w.key("plans_instantiated");
    w.value(load.stats.plans_instantiated);
    w.key("waves");
    w.value(load.stats.waves);
    w.key("fused_requests");
    w.value(load.stats.fused_requests);
    w.key("max_wave_size");
    w.value(load.stats.max_wave_size);
    w.key("max_queue_depth");
    w.value(load.stats.max_queue_depth);
    w.key("modeled_gpu_us");
    w.value(load.stats.modeled_gpu_us);
    w.end_object();
    // Per plan key: the label plus how the plan resolved -- which
    // algorithm, which execution backend, and whether it holds a hazard
    // certificate (docs/backends.md).
    w.key("plans");
    w.begin_array();
    for (const auto& p : load.plans) {
        w.begin_object();
        w.key("key");
        w.value(p.label);
        w.key("algorithm");
        w.value(sat::to_string(p.algorithm));
        w.key("backend");
        w.value(sat::to_string(p.backend));
        w.key("certified");
        w.value(p.certified);
        w.end_object();
    }
    w.end_array();
    w.end_object();

    w.key("compare");
    if (compare != nullptr) {
        w.begin_object();
        w.key("shape");
        w.value(std::to_string(compare->side) + "x" +
                std::to_string(compare->side));
        w.key("dtypes");
        w.value(pair_name({Dtype::u8_, Dtype::u32_}));
        w.key("burst");
        w.value(compare->burst);
        w.key("single_modeled_us");
        w.value(compare->single_modeled_us);
        w.key("fused_modeled_us");
        w.value(compare->fused_modeled_us);
        w.key("modeled_speedup");
        w.value(compare->modeled_speedup);
        w.key("single_wall_us");
        w.value(compare->single_wall_us);
        w.key("fused_wall_us");
        w.value(compare->fused_wall_us);
        w.key("fused_waves");
        w.value(compare->fused_waves);
        w.key("fused_max_wave");
        w.value(compare->fused_max_wave);
        w.end_object();
    } else {
        w.null();
    }
    w.end_object();
    std::cout << '\n';
}

int usage(int code)
{
    std::cout
        << "usage: satgpu_serve [--qps N] [--duration SEC] [--workers W]\n"
           "                    [--wave K] [--linger-us U] [--queue N]\n"
           "                    [--policy block|reject] [--trace "
           "same|mixed]\n"
           "                    [--backend sim|native]\n"
           "                    [--verify] [--compare] [--json]\n"
           "                    [--metrics-out F] [--metrics-every MS]\n"
           "                    [--trace-out F] [--events-out F]\n"
           "                    [--virtual-time]\n"
           "  Load phase: paced open-loop trace through sat::Service;\n"
           "  reports p50/p99 latency, throughput and service counters.\n"
           "  --backend B  requested execution backend for every request\n"
           "            (default sim).  native runs hazard-certified\n"
           "            plans as plain vectorized loops; uncertified plans\n"
           "            fall back to the simulator (docs/backends.md)\n"
           "  --verify  check every table against the serial CPU oracle\n"
           "  --compare also run the 8-image 512x512 coalescing burst and\n"
           "            report the modeled fused-vs-single speedup\n"
           "  --json    emit the satgpu-bench-v1 document (BENCH_serve."
           "json)\n"
           "  --metrics-out F   write the satgpu-metrics-v1 JSON snapshot\n"
           "  --metrics-every MS  also rewrite F every MS ms during load\n"
           "  --trace-out F     write the merged Chrome/Perfetto trace\n"
           "                    (request spans over kernel phase ranges)\n"
           "  --events-out F    write admission decisions as JSONL\n"
           "  --virtual-time    latencies/spans on the deterministic\n"
           "                    logical clock instead of wall time\n";
    return code;
}

} // namespace

int main(int argc, char** argv)
{
    double qps = 100;
    double duration_s = 1;
    std::string trace_kind = "mixed";
    bool verify = false;
    bool compare = false;
    sat::Backend backend = sat::Backend::kSim;
    ObsConfig obs;
    sat::Service::Options sopt;
    sopt.workers = 2;
    sopt.max_wave = 8;
    sopt.max_linger = std::chrono::microseconds(2000);
    sopt.max_queue = 256;

    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const auto next = [&]() -> const char* {
            if (i + 1 >= argc)
                std::exit(usage(2));
            return argv[++i];
        };
        // Numeric flags: the whole argument must parse, with no sign, and
        // be at least `min`; anything else is a usage error.
        const auto number = [&]<typename T>(T min) -> T {
            const std::string_view s = next();
            T v{};
            const auto [ptr, ec] =
                std::from_chars(s.data(), s.data() + s.size(), v);
            if (ec != std::errc{} || ptr != s.data() + s.size() ||
                !std::isfinite(static_cast<double>(v)) || v < min)
                std::exit(usage(2));
            return v;
        };
        constexpr double kPositive = std::numeric_limits<double>::min();
        if (arg == "--qps")
            qps = number(kPositive);
        else if (arg == "--duration")
            duration_s = number(kPositive);
        else if (arg == "--workers")
            sopt.workers = number(1);
        else if (arg == "--wave")
            sopt.max_wave = number(1);
        else if (arg == "--linger-us")
            sopt.max_linger = std::chrono::microseconds(number(0L));
        else if (arg == "--queue")
            sopt.max_queue = number(std::size_t{1});
        else if (arg == "--policy") {
            const std::string_view p = next();
            if (p == "block")
                sopt.policy = sat::Service::AdmissionPolicy::kBlock;
            else if (p == "reject")
                sopt.policy = sat::Service::AdmissionPolicy::kReject;
            else
                return usage(2);
        } else if (arg == "--trace") {
            trace_kind = next();
            if (trace_kind != "same" && trace_kind != "mixed")
                return usage(2);
        } else if (arg == "--backend") {
            const std::string_view b = next();
            if (b == "sim")
                backend = sat::Backend::kSim;
            else if (b == "native")
                backend = sat::Backend::kNative;
            else
                return usage(2);
        } else if (arg == "--metrics-out")
            obs.metrics_out = next();
        else if (arg == "--metrics-every")
            obs.metrics_every_ms = number(1L);
        else if (arg == "--trace-out")
            obs.trace_out = next();
        else if (arg == "--events-out")
            obs.events_out = next();
        else if (arg == "--virtual-time")
            obs.virtual_time = true;
        else if (arg == "--verify")
            verify = true;
        else if (arg == "--compare")
            compare = true;
        else if (arg == "--json")
            ; // handled by bench_json_requested
        else
            return usage(arg == "--help" || arg == "-h" ? 0 : 2);
    }
    const bool json = bench::bench_json_requested(argc, argv);

    const LoadReport load =
        run_load(qps, duration_s, sopt, trace_kind, verify, backend, obs);
    CompareReport cmp;
    if (compare)
        cmp = run_compare();

    if (json) {
        emit_json(sopt, qps, duration_s, trace_kind, verify, load,
                  compare ? &cmp : nullptr);
    } else {
        std::cout << "load: " << load.stats.completed << "/" << load.requests
                  << " completed (" << load.stats.rejected << " rejected), "
                  << load.throughput_rps << " rps\n"
                  << "  latency p50 " << load.p50_us / 1000.0 << " ms, p99 "
                  << load.p99_us / 1000.0 << " ms, mean "
                  << load.mean_us / 1000.0 << " ms\n"
                  << "  plans: " << load.stats.plan_misses << " planned, "
                  << load.stats.plan_hits << " cache hits, "
                  << load.stats.plans_instantiated << " instantiated\n"
                  << "  waves: " << load.stats.waves << " ("
                  << load.stats.fused_requests
                  << " requests fused, max wave "
                  << load.stats.max_wave_size << ", peak queue "
                  << load.stats.max_queue_depth << ")\n"
                  << "  modeled GPU time: "
                  << load.stats.modeled_gpu_us / 1000.0 << " ms\n";
        if (backend != sat::Backend::kSim)
            for (const auto& p : load.plans)
                std::cout << "  plan " << p.label << ": "
                          << sat::to_string(p.algorithm) << " on "
                          << sat::to_string(p.backend)
                          << (p.certified ? " (certified)" : "") << "\n";
        if (obs.any())
            std::cout << "  obs: " << load.trace_spans << " trace spans, "
                      << load.admission_events << " admission events\n";
        if (verify)
            std::cout << "  verify: " << load.verified << " checked, "
                      << load.mismatches << " mismatches\n";
        if (compare)
            std::cout << "compare (512x512 8u32u, burst of " << cmp.burst
                      << "):\n  modeled " << cmp.single_modeled_us
                      << " us single vs " << cmp.fused_modeled_us
                      << " us fused -> " << cmp.modeled_speedup
                      << "x\n  wall " << cmp.single_wall_us / 1000.0
                      << " ms single vs " << cmp.fused_wall_us / 1000.0
                      << " ms fused (" << cmp.fused_waves << " wave(s), max "
                      << cmp.fused_max_wave << ")\n";
    }

    if (verify && load.mismatches > 0) {
        std::cerr << "verify FAILED: " << load.mismatches
                  << " table(s) differ from the serial oracle\n";
        return 1;
    }
    return 0;
}
