#include "workloads.hpp"

#include "sat/cpu_reference.hpp"
#include "sat/integral_video.hpp"
#include "sat/runtime.hpp"
#include "sat/service.hpp"

#include <algorithm>
#include <array>
#include <condition_variable>
#include <deque>
#include <exception>
#include <future>
#include <iostream>
#include <memory>
#include <random>
#include <semaphore>
#include <stdexcept>
#include <string_view>
#include <thread>

namespace perfbench {
namespace {

using namespace satgpu;
using sat::AnyMatrix;

/// Shape of the short probes that measure, in a traced run, the layers a
/// workload does not exercise itself.
constexpr std::int64_t kProbeSide = 256;
constexpr std::int64_t kStreamWindow = 8;
constexpr double kMiB = 1024.0 * 1024.0;

/// Keeps a computed value alive past the optimizer.
inline void keep(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

[[nodiscard]] int setup_rounds(const Config& cfg) { return cfg.smoke ? 1 : 3; }

[[nodiscard]] Clock::duration seconds_to(double s)
{
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
}

/// Run `f` under a span named `span`; returns its wall time in ms.
template <typename F>
double timed(const char* span, F&& f, std::uint64_t request = 0)
{
    Scope s(span, request);
    const auto t0 = Clock::now();
    f();
    return ms_between(t0, Clock::now());
}

void check(Outcome& o, bool ok)
{
    ++o.attempted;
    if (!ok)
        ++o.failed;
}

[[nodiscard]] double fail_frac(const Outcome& o)
{
    return o.attempted == 0 ? 0
                            : static_cast<double>(o.failed) /
                                  static_cast<double>(o.attempted);
}

/// 8u -> 32u BRLT-ScanRow on the native backend: the plan every
/// fixed-plan workload uses.
[[nodiscard]] sat::PlanRequest
native_request(std::int64_t h, std::int64_t w, sat::QuerySpec query = {},
               sat::QueryMode mode = sat::QueryMode::kAuto)
{
    return {.height = h,
            .width = w,
            .dtypes = {Dtype::u8_, Dtype::u32_},
            .algorithm = sat::Algorithm::kBrltScanRow,
            .backend = sat::Backend::kNative,
            .query = query,
            .query_mode = mode};
}

[[nodiscard]] std::unique_ptr<sat::Runtime> make_runtime(int threads)
{
    return std::make_unique<sat::Runtime>(simt::Engine::Options{
        .record_history = false, .num_threads = threads});
}

void require_native(const sat::Plan& p, std::string_view what)
{
    if (p.backend() != sat::Backend::kNative)
        throw std::runtime_error(std::string(what) +
                                 " did not resolve to the native backend");
}

void require_certified(sat::Runtime& rt, const sat::PlanRequest& req,
                       double& certify_ms)
{
    bool ok = false;
    certify_ms += timed("runtime.certify", [&] {
        ok = rt.certify(sat::Algorithm::kBrltScanRow, req);
    });
    if (!ok)
        throw std::runtime_error("native BRLT-ScanRow is not certified");
}

[[nodiscard]] Matrix<u8> random_u8(std::int64_t side, std::uint64_t seed)
{
    return AnyMatrix::random(Dtype::u8_, side, side, seed).as<u8>();
}

/// Set-up costs of one round: certification probes and cold plans.
struct SetupCosts {
    double certify_ms = 0;
    double plan_ms = 0; ///< mean per plan key
};

void add_setup_layers(Outcome& o, const std::vector<SetupCosts>& rounds)
{
    std::vector<double> cert, plan;
    for (const SetupCosts& c : rounds) {
        cert.push_back(c.certify_ms);
        plan.push_back(c.plan_ms);
    }
    o.add_layer("runtime.certify_ms", median(cert), "ms");
    o.add_layer("model.plan_cold_ms", median(plan), "ms");
}

// --------------------------------------------------- same-host baselines ----

struct Refs {
    double serial_ms = 0;
    double parallel_ms = 0;
    double copy_ms = 0;
};

/// sat_serial, sat_parallel and a u8 -> u32 copy loop at the image's shape
/// (medians of `reps` calls each).
Refs measure_refs(const Matrix<u8>& img, int threads, int reps)
{
    std::vector<double> s, p, c;
    Matrix<u32> dst(img.height(), img.width());
    for (int r = 0; r < reps; ++r) {
        s.push_back(timed("ref.sat_serial", [&] {
            const Matrix<u32> t = sat::sat_serial<u32>(img);
            keep(t.flat().data());
        }));
        p.push_back(timed("ref.sat_parallel", [&] {
            const Matrix<u32> t =
                sat::sat_parallel<u32>(img, static_cast<unsigned>(threads));
            keep(t.flat().data());
        }));
        c.push_back(timed("ref.copy_floor", [&] {
            const auto src = img.flat();
            const auto out = dst.flat();
            for (std::size_t i = 0; i < src.size(); ++i)
                out[i] = src[i];
            keep(out.data());
        }));
    }
    return {median(s), median(p), median(c)};
}

void add_runtime_layers(Outcome& o, double execute_ms, const Refs& r)
{
    o.add_layer("runtime.execute_ms", execute_ms, "ms");
    o.add_layer("runtime.over_serial", execute_ms / r.serial_ms, "x");
    o.add_layer("runtime.over_copy_floor", execute_ms / r.copy_ms, "x");
    o.add_layer("ref.sat_serial_ms", r.serial_ms, "ms");
    o.add_layer("ref.sat_parallel_ms", r.parallel_ms, "ms");
    o.add_layer("ref.copy_floor_ms", r.copy_ms, "ms");
}

// ------------------------------------------------------- runtime probes ----

/// 8 x Plan::execute over Plan::execute_wave of the same 8 images, 128^2,
/// one engine thread (a service worker's runtime).
double measure_wave_gain(std::uint64_t seed, int reps, Outcome& o)
{
    auto rt = make_runtime(1);
    const sat::Plan plan = rt->plan(native_request(128, 128));
    require_native(plan, "128^2 wave plan");
    std::vector<AnyMatrix> imgs;
    std::vector<const AnyMatrix*> ptrs;
    for (std::uint64_t i = 0; i < 8; ++i)
        imgs.push_back(
            AnyMatrix::random(Dtype::u8_, 128, 128, mix_seed(seed, 900 + i)));
    for (const AnyMatrix& m : imgs)
        ptrs.push_back(&m);
    const sat::WaveResult warm = plan.execute_wave(ptrs);
    for (std::size_t i = 0; i < imgs.size(); ++i)
        check(o, warm.tables[i] == rt->reference(imgs[i], Dtype::u32_));

    std::vector<double> single, wave;
    for (int r = 0; r < reps; ++r) {
        single.push_back(timed("runtime.execute_x8", [&] {
            for (const AnyMatrix* m : ptrs) {
                const sat::RuntimeResult res = plan.execute(*m);
                keep(&res);
            }
        }));
        wave.push_back(timed("runtime.execute_wave", [&] {
            const sat::WaveResult res = plan.execute_wave(ptrs);
            keep(&res);
        }));
    }
    return median(single) / median(wave);
}

struct QueryTimes {
    double fused_ms = 0;
    double materialize_ms = 0;
};

/// Box r=4 through fused and materialized query plans (medians of `reps`
/// calls, each output checked against the serial query oracle).
QueryTimes measure_query(sat::Runtime& rt, const AnyMatrix& img,
                         const AnyMatrix& want, int reps, Outcome& o)
{
    const sat::QuerySpec box = sat::BoxFilterSpec{4};
    const sat::Plan fused = rt.plan_query(native_request(
        img.height(), img.width(), box, sat::QueryMode::kFused));
    const sat::Plan mat = rt.plan_query(native_request(
        img.height(), img.width(), box, sat::QueryMode::kMaterialize));
    require_native(fused, "fused box plan");
    require_native(mat, "materialized box plan");
    check(o, fused.execute(img).table == want);
    check(o, mat.execute(img).table == want);
    std::vector<double> f, m;
    for (int r = 0; r < reps; ++r) {
        AnyMatrix out;
        f.push_back(
            timed("query.fused", [&] { out = fused.execute(img).table; }));
        check(o, out == want);
        m.push_back(timed("query.materialize",
                          [&] { out = mat.execute(img).table; }));
        check(o, out == want);
    }
    return {median(f), median(m)};
}

void add_query_layers(Outcome& o, double fused_ms, double materialize_ms)
{
    o.add_layer("query.fused_ms", fused_ms, "ms");
    o.add_layer("query.materialize_ms", materialize_ms, "ms");
    o.add_layer("query.fused_gain", materialize_ms / fused_ms, "x");
}

void probe_query(Outcome& o, std::uint64_t seed, int threads)
{
    auto rt = make_runtime(threads);
    const AnyMatrix img =
        AnyMatrix::random(Dtype::u8_, kProbeSide, kProbeSide, seed);
    const AnyMatrix want =
        rt->query_reference(img, Dtype::u32_, sat::BoxFilterSpec{4});
    const QueryTimes q = measure_query(*rt, img, want, 20, o);
    add_query_layers(o, q.fused_ms, q.materialize_ms);
}

// ------------------------------------------------------------- streaming ----

using Window = sat::SlidingWindowSat<u32, u8>;

struct StreamRig {
    std::unique_ptr<sat::Runtime> rt;
    sat::Plan build_plan; ///< same-shape plain SAT (stream.build_ms)
    std::unique_ptr<Window> win;
};

/// Set-up of one stream: runtime, certificate, the same-shape plan, the
/// window, and the first T pushes that fill it.
StreamRig setup_stream(const std::vector<Matrix<u8>>& frames, int threads,
                       SetupCosts& costs)
{
    const std::int64_t side = frames[0].height();
    StreamRig rig;
    rig.rt = make_runtime(threads);
    const sat::PlanRequest req = native_request(side, side);
    require_certified(*rig.rt, req, costs.certify_ms);
    costs.plan_ms =
        timed("runtime.plan", [&] { rig.build_plan = rig.rt->plan(req); });
    require_native(rig.build_plan, "stream build plan");
    sat::Options opt;
    opt.algorithm = sat::Algorithm::kBrltScanRow;
    opt.pool = &rig.rt->pool();
    opt.backend = sat::Backend::kNative;
    rig.win = std::make_unique<Window>(rig.rt->engine(), kStreamWindow, side,
                                       side, opt, sat::TileGeometry{},
                                       sat::StreamUpdateMode::kIncremental);
    for (std::int64_t k = 0; k < kStreamWindow; ++k)
        (void)timed("stream.push", [&] {
            rig.win->push(frames[static_cast<std::size_t>(k) % frames.size()]);
        });
    return rig;
}

struct StreamSamples {
    std::vector<double> push_ms, read_ms, op_ms, late_ms;
    std::uint64_t allocs = 0; ///< pool allocations during the loop
};

/// Closed loop: push frame k, then read one random windowed box sum.
/// Every `check_every`-th push the window table and the box sum are
/// compared with window_sat_serial over the window's frames.
StreamSamples stream_loop(StreamRig& rig,
                          const std::vector<Matrix<u8>>& frames,
                          double seconds, std::uint64_t seed,
                          std::int64_t check_every, Outcome& o)
{
    StreamSamples s;
    std::mt19937_64 rng(seed);
    const std::int64_t side = frames[0].height();
    const auto nf = static_cast<std::int64_t>(frames.size());
    const std::uint64_t allocs0 = rig.rt->pool_stats().allocations;
    const auto end = Clock::now() + seconds_to(seconds);
    auto ready = Clock::now();
    for (bool first = true; first || Clock::now() < end; first = false) {
        const std::int64_t k = rig.win->frames_pushed();
        const auto req = static_cast<std::uint64_t>(k) + 1;
        Scope iter("stream.iteration", req);
        const auto t0 = Clock::now();
        s.late_ms.push_back(ms_between(ready, t0));
        {
            Scope sp("stream.push", req);
            rig.win->push(frames[static_cast<std::size_t>(k % nf)]);
        }
        const auto t1 = Clock::now();
        const auto y0 = static_cast<std::int64_t>(
            rng() % static_cast<std::uint64_t>(side));
        const auto x0 = static_cast<std::int64_t>(
            rng() % static_cast<std::uint64_t>(side));
        const std::int64_t y1 =
            y0 + static_cast<std::int64_t>(
                     rng() % static_cast<std::uint64_t>(side - y0));
        const std::int64_t x1 =
            x0 + static_cast<std::int64_t>(
                     rng() % static_cast<std::uint64_t>(side - x0));
        Matrix<u32> table;
        u32 sum = 0;
        {
            Scope sp("stream.window_read", req);
            table = rig.win->window_table();
            sum = sat::rect_sum(table, y0, x0, y1, x1);
        }
        const auto t2 = Clock::now();
        s.push_ms.push_back(ms_between(t0, t1));
        s.read_ms.push_back(ms_between(t1, t2));
        s.op_ms.push_back(ms_between(t0, t2));
        if (k % check_every == 0) {
            Scope sc("check.oracle", req);
            std::vector<const Matrix<u8>*> in_window;
            for (std::int64_t j = k - kStreamWindow + 1; j <= k; ++j)
                in_window.push_back(&frames[static_cast<std::size_t>(j % nf)]);
            const Matrix<u32> want = sat::window_sat_serial<u32, u8>(in_window);
            check(o, table == want &&
                         sum == sat::rect_sum(want, y0, x0, y1, x1));
        } else {
            ++o.attempted;
        }
        ready = Clock::now();
    }
    s.allocs = rig.rt->pool_stats().allocations - allocs0;
    return s;
}

/// stream.* metrics; returns the median same-shape build (Plan::execute).
double add_stream_layers(Outcome& o, StreamRig& rig,
                         const std::vector<Matrix<u8>>& frames,
                         const StreamSamples& s, int build_reps)
{
    std::vector<AnyMatrix> in;
    for (std::size_t i = 0; i < 4 && i < frames.size(); ++i)
        in.emplace_back(frames[i]);
    std::vector<double> build;
    for (int r = 0; r < build_reps; ++r) {
        const AnyMatrix& img = in[static_cast<std::size_t>(r) % in.size()];
        sat::RuntimeResult res;
        build.push_back(timed("stream.build",
                              [&] { res = rig.build_plan.execute(img); }));
        keep(&res);
    }
    const double push = median(s.push_ms);
    o.add_layer("stream.push_ms", push, "ms");
    o.add_layer("stream.build_ms", median(build), "ms");
    o.add_layer("stream.update_ms", push - median(build), "ms");
    o.add_layer("stream.window_read_ms", median(s.read_ms), "ms");
    o.add_layer("stream.ring_mb",
                static_cast<double>(rig.win->ring_bytes()) / kMiB, "MB");
    return median(build);
}

[[nodiscard]] std::vector<Matrix<u8>> make_frames(std::int64_t side,
                                                  std::uint64_t seed)
{
    std::vector<Matrix<u8>> frames;
    for (std::uint64_t i = 0; i < 16; ++i)
        frames.push_back(random_u8(side, mix_seed(seed, 100 + i)));
    return frames;
}

void probe_stream(Outcome& o, std::uint64_t seed, int threads, bool smoke)
{
    const auto frames = make_frames(kProbeSide, seed);
    SetupCosts costs;
    StreamRig rig = setup_stream(frames, threads, costs);
    const StreamSamples s =
        stream_loop(rig, frames, smoke ? 0.2 : 0.5, seed, 1, o);
    (void)add_stream_layers(o, rig, frames, s, 20);
}

// --------------------------------------------------------------- serving ----

struct Template {
    std::int64_t h;
    std::int64_t w;
    DtypePair pair;
};

/// satgpu_serve's mixed trace: five shapes from 64^2 to 256^2 over four
/// dtype pairs.
const std::vector<Template> kServeMix = {
    {128, 128, {Dtype::u8_, Dtype::u32_}},
    {96, 160, {Dtype::u8_, Dtype::i32_}},
    {256, 256, {Dtype::u8_, Dtype::u32_}},
    {64, 64, {Dtype::f32_, Dtype::f32_}},
    {160, 96, {Dtype::u32_, Dtype::u32_}},
};

struct ServeInputs {
    std::vector<Template> templates;
    std::vector<std::vector<AnyMatrix>> images; ///< [template][k]
    std::vector<std::vector<AnyMatrix>> refs;   ///< serial oracle tables
};

ServeInputs make_serve_inputs(std::vector<Template> templates, int per,
                              std::uint64_t seed)
{
    ServeInputs in;
    in.templates = std::move(templates);
    const sat::Runtime oracle(
        simt::Engine::Options{.record_history = false, .num_threads = 1});
    for (std::size_t t = 0; t < in.templates.size(); ++t) {
        const Template& tp = in.templates[t];
        in.images.emplace_back();
        in.refs.emplace_back();
        for (int k = 0; k < per; ++k) {
            in.images.back().push_back(AnyMatrix::random(
                tp.pair.in, tp.h, tp.w,
                mix_seed(seed, t * 1000 + static_cast<std::uint64_t>(k))));
            in.refs.back().push_back(
                oracle.reference(in.images.back().back(), tp.pair.out));
        }
    }
    return in;
}

/// What every served request asks for besides its image.
struct ServeSettings {
    sat::Algorithm algorithm = sat::Algorithm::kAuto;
    sat::Backend backend = sat::Backend::kNative;
};

[[nodiscard]] sat::Service::Options serve_options()
{
    sat::Service::Options opt;
    opt.workers = 2;
    opt.engine_threads = 1;
    opt.max_wave = 8;
    opt.max_linger = std::chrono::microseconds(2000);
    opt.max_queue = 256;
    opt.policy = sat::Service::AdmissionPolicy::kBlock;
    return opt;
}

[[nodiscard]] sat::Service::Request make_request(const ServeInputs& in,
                                                 const ServeSettings& st,
                                                 std::size_t t, std::size_t k)
{
    sat::Service::Request req;
    req.image = in.images[t][k];
    req.out = in.templates[t].pair.out;
    req.algorithm = st.algorithm;
    req.backend = st.backend;
    return req;
}

/// Warm every key: two bursts of 16 requests per template, so both
/// workers resolve and instantiate each plan before timing.
void warm_service(sat::Service& svc, const ServeInputs& in,
                  const ServeSettings& st, Outcome& o)
{
    Scope s("serve.warmup");
    for (int round = 0; round < 2; ++round) {
        std::vector<std::pair<std::size_t, std::size_t>> ids;
        std::vector<std::future<AnyMatrix>> futs;
        for (std::size_t t = 0; t < in.templates.size(); ++t)
            for (std::size_t j = 0; j < 16; ++j) {
                const std::size_t k = j % in.images[t].size();
                ids.emplace_back(t, k);
                futs.push_back(svc.submit(make_request(in, st, t, k)));
            }
        for (std::size_t i = 0; i < futs.size(); ++i)
            check(o, futs[i].get() == in.refs[ids[i].first][ids[i].second]);
    }
}

struct Phase {
    // Per completed request, in completion order.
    std::vector<double> lat_ms;  ///< due time -> future ready
    std::vector<double> due_s;   ///< due time, s after the phase began
    std::vector<double> ready_s; ///< ready time, s after the phase began
    std::vector<double> px;      ///< input pixels
    // Per submitted request.
    std::vector<double> late_ms;   ///< due time -> submit() called
    std::vector<double> submit_ms; ///< submit() call
    double window_s = 0;           ///< phase length
};

enum class Loop { kOpen, kClosed };

/// Phases are cut into slices of about this length; end-to-end serve
/// metrics are medians over slices, so one host hiccup spoils one slice
/// and not the run.
constexpr double kSliceS = 1.0;

[[nodiscard]] std::size_t slice_count(const Phase& ph)
{
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(ph.window_s / kSliceS));
}

/// Median over slices (by due time) of each slice's p-th latency
/// percentile, in ms.
double sliced_latency(const Phase& ph, double p)
{
    const std::size_t n = slice_count(ph);
    std::vector<std::vector<double>> slices(n);
    for (std::size_t i = 0; i < ph.lat_ms.size(); ++i) {
        const auto s = static_cast<std::size_t>(
            ph.due_s[i] / ph.window_s * static_cast<double>(n));
        slices[std::min(s, n - 1)].push_back(ph.lat_ms[i]);
    }
    std::vector<double> per;
    for (const auto& s : slices)
        if (!s.empty())
            per.push_back(percentile(s, p));
    return median(per);
}

/// Median over slices (by ready time, inside the phase) of completed
/// requests -- or input pixels -- per second.
double sliced_rate(const Phase& ph, bool pixels)
{
    const std::size_t n = slice_count(ph);
    std::vector<double> per(n, 0);
    for (std::size_t i = 0; i < ph.ready_s.size(); ++i)
        if (ph.ready_s[i] < ph.window_s) {
            const auto s = static_cast<std::size_t>(
                ph.ready_s[i] / ph.window_s * static_cast<double>(n));
            per[std::min(s, n - 1)] += pixels ? ph.px[i] : 1;
        }
    for (double& v : per)
        v /= ph.window_s / static_cast<double>(n);
    return median(per);
}

/// One load phase.  The calling thread submits (open loop: Poisson
/// arrivals at `rate`, seeded; closed loop: whenever one of `inflight`
/// credits is free); one collector thread stamps each future when it becomes ready,
/// polling only the futures still outstanding, and checks its table
/// against the serial oracle.
Phase serve_phase(sat::Service& svc, const ServeInputs& in,
                  const ServeSettings& st, Loop loop, double rate,
                  int inflight, double seconds, std::uint64_t seed,
                  std::uint64_t& next_request, Outcome& o)
{
    struct Pending {
        std::uint64_t request = 0;
        std::uint64_t span = 0;
        std::size_t t = 0, k = 0;
        Clock::time_point due;
        std::future<AnyMatrix> fut;
    };
    Phase ph;
    ph.window_s = seconds;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Pending> inbox; // guarded by mu
    bool done = false;         // guarded by mu
    std::counting_semaphore<4096> credits(loop == Loop::kClosed ? inflight
                                                                : 0);
    std::uint64_t attempted = 0, failed = 0; // collector-owned until join
    const auto start = Clock::now();
    const auto end = start + seconds_to(seconds);

    const auto finish = [&](Pending& p, Clock::time_point now) {
        ph.lat_ms.push_back(ms_between(p.due, now));
        ph.due_s.push_back(ms_between(start, p.due) / 1e3);
        ph.ready_s.push_back(ms_between(start, now) / 1e3);
        ph.px.push_back(
            static_cast<double>(in.templates[p.t].h * in.templates[p.t].w));
        bool ok = false;
        try {
            const AnyMatrix table = p.fut.get();
            Scope sc("check.oracle", p.request);
            ok = table == in.refs[p.t][p.k];
        } catch (const std::exception&) {
            ok = false; // rejected or failed future
        }
        ++attempted;
        if (!ok)
            ++failed;
        Tracer& tr = tracer();
        if (p.span != 0)
            tr.record({.name = "serve.request",
                       .id = p.span,
                       .request = p.request,
                       .t0_ns = tr.ns(p.due),
                       .t1_ns = tr.ns(now),
                       .tid = thread_index()});
        if (loop == Loop::kClosed)
            credits.release();
    };

    std::exception_ptr collector_error; // read only after join
    std::atomic<bool> collector_failed{false};
    std::thread collector([&] {
        try {
            std::vector<Pending> out;
            for (;;) {
                {
                    std::unique_lock lk(mu);
                    if (out.empty())
                        cv.wait(lk, [&] { return done || !inbox.empty(); });
                    while (!inbox.empty()) {
                        out.push_back(std::move(inbox.front()));
                        inbox.pop_front();
                    }
                    if (out.empty() && done)
                        return;
                }
                (void)out.front().fut.wait_for(
                    std::chrono::microseconds(250));
                const auto now = Clock::now();
                for (auto it = out.begin(); it != out.end();) {
                    if (it->fut.wait_for(std::chrono::seconds(0)) !=
                        std::future_status::ready) {
                        ++it;
                        continue;
                    }
                    finish(*it, now);
                    it = out.erase(it);
                }
            }
        } catch (...) {
            collector_error = std::current_exception();
            collector_failed = true;
            credits.release(); // unblock a closed-loop submitter
        }
    });
    const auto stop = [&] {
        {
            const std::lock_guard lk(mu);
            done = true;
        }
        cv.notify_one();
        collector.join();
    };

    try {
        std::mt19937_64 rng(seed);
        std::mt19937_64 arrivals(mix_seed(seed, 1));
        std::exponential_distribution<double> gap_s(rate > 0 ? rate : 1);
        double due_s = 0;
        while (!collector_failed) {
            Clock::time_point due;
            if (loop == Loop::kOpen) {
                due_s += gap_s(arrivals);
                due = start + seconds_to(due_s);
                if (due >= end)
                    break;
                std::this_thread::sleep_until(due);
            } else {
                credits.acquire();
                due = Clock::now();
                if (due >= end)
                    break;
            }
            const std::size_t t = rng() % in.templates.size();
            const std::size_t k = rng() % in.images[t].size();
            sat::Service::Request req = make_request(in, st, t, k);
            const std::uint64_t id = ++next_request;
            const std::uint64_t span =
                tracer().on() ? tracer().new_id() : 0;
            const auto t0 = Clock::now();
            ph.late_ms.push_back(ms_between(due, t0));
            std::future<AnyMatrix> fut;
            {
                Scope sc("service.submit", id, span);
                fut = svc.submit(std::move(req));
            }
            ph.submit_ms.push_back(ms_between(t0, Clock::now()));
            {
                const std::lock_guard lk(mu);
                inbox.push_back({id, span, t, k, due, std::move(fut)});
            }
            cv.notify_one();
        }
    } catch (...) {
        stop();
        throw;
    }
    stop();
    if (collector_error)
        std::rethrow_exception(collector_error);
    o.attempted += attempted;
    o.failed += failed;
    return ph;
}

/// A service histogram family summed over every plan label.
struct HistSnap {
    std::array<std::uint64_t, sat::obs::Histogram::kBuckets> b{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
};

HistSnap snapshot(const sat::Service& svc, std::string_view name)
{
    HistSnap s;
    for (const auto& pi : svc.plan_info()) {
        const sat::obs::Histogram& h = svc.metrics().histogram(name, pi.label);
        for (int i = 0; i < sat::obs::Histogram::kBuckets; ++i)
            s.b[static_cast<std::size_t>(i)] += h.bucket_count(i);
        s.count += h.count();
        s.sum += h.sum();
    }
    return s;
}

/// Observations between two snapshots (drops warm-up and earlier phases).
HistSnap operator-(HistSnap a, const HistSnap& b)
{
    for (std::size_t i = 0; i < a.b.size(); ++i)
        a.b[i] -= b.b[i];
    a.count -= b.count;
    a.sum -= b.sum;
    return a;
}

/// Nearest-rank quantile, interpolated linearly inside the bucket that
/// holds the rank (the bare bucket bound would read the same in most
/// runs).
double hist_quantile(const HistSnap& s, double p)
{
    if (s.count == 0)
        return 0;
    const double rank =
        std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(s.count)));
    double cum = 0;
    for (int i = 0; i < sat::obs::Histogram::kBuckets; ++i) {
        const auto c = static_cast<double>(s.b[static_cast<std::size_t>(i)]);
        if (c == 0)
            continue;
        if (cum + c >= rank) {
            const double lo =
                static_cast<double>(sat::obs::Histogram::bucket_lo(i));
            const double hi =
                static_cast<double>(sat::obs::Histogram::bucket_hi(i)) + 1;
            return lo + (rank - cum) / c * (hi - lo);
        }
        cum += c;
    }
    return 0;
}

[[nodiscard]] double hist_mean(const HistSnap& s)
{
    return s.count == 0 ? 0
                        : static_cast<double>(s.sum) /
                              static_cast<double>(s.count);
}

struct ServiceSnap {
    HistSnap queue_wait, execute, e2e, wave_size;
    sat::Service::Stats stats;
};

ServiceSnap snapshot_service(const sat::Service& svc)
{
    return {snapshot(svc, "satgpu_service_queue_wait_us"),
            snapshot(svc, "satgpu_service_execute_us"),
            snapshot(svc, "satgpu_service_e2e_us"),
            snapshot(svc, "satgpu_service_wave_size"), svc.stats()};
}

/// service.* per-layer metrics of one phase, from the service's own
/// histograms (deltas over the phase) and the benchmark's own stamps.
/// accounted_frac = (generator lateness + submit() + the service's own
/// submit -> fulfil time) / request latency; the rest is the time the
/// collector took to notice a ready future.
void add_service_layers(Outcome& o, const Phase& ph, const ServiceSnap& a,
                        const ServiceSnap& b)
{
    const HistSnap qw = b.queue_wait - a.queue_wait;
    const HistSnap ex = b.execute - a.execute;
    const HistSnap e2e = b.e2e - a.e2e;
    const HistSnap ws = b.wave_size - a.wave_size;
    const double qw50 = hist_quantile(qw, 50);
    const double ex50 = hist_quantile(ex, 50);
    o.add_layer("service.queue_wait_us.p50", qw50, "us");
    o.add_layer("service.queue_wait_us.p99", hist_quantile(qw, 99), "us");
    o.add_layer("service.execute_us.p50", ex50, "us");
    o.add_layer("service.execute_us.p99", hist_quantile(ex, 99), "us");
    o.add_layer("service.unexplained_us.p50",
                median(ph.lat_ms) * 1e3 - qw50 - ex50, "us");
    o.add_layer("service.wave_size.mean", hist_mean(ws), "count");
    const auto hits =
        static_cast<double>(b.stats.plan_hits - a.stats.plan_hits);
    const auto misses =
        static_cast<double>(b.stats.plan_misses - a.stats.plan_misses);
    o.add_layer("service.plan_hit_ratio",
                hits + misses > 0 ? hits / (hits + misses) : 0, "frac");
    const double accounted =
        (mean(ph.late_ms) + mean(ph.submit_ms) + hist_mean(e2e) / 1e3) /
        mean(ph.lat_ms);
    o.add_layer("service.accounted_frac", accounted, "frac");
    std::cout << "  latency accounting: lateness " << mean(ph.late_ms)
              << " + submit " << mean(ph.submit_ms) << " + service e2e "
              << hist_mean(e2e) / 1e3 << " ms of " << mean(ph.lat_ms)
              << " ms mean latency = " << accounted
              << (accounted >= 0.85 && accounted <= 1.02
                      ? " (within the 0.85..1.02 tolerance)\n"
                      : " (OUTSIDE the 0.85..1.02 tolerance)\n");
}

/// Short closed-loop service run at the probe shape with the fixed
/// native plan, for workloads that do not serve.
void probe_service(Outcome& o, std::uint64_t seed, bool smoke)
{
    const ServeInputs in = make_serve_inputs(
        {{kProbeSide, kProbeSide, {Dtype::u8_, Dtype::u32_}}}, 4, seed);
    const ServeSettings st{sat::Algorithm::kBrltScanRow,
                           sat::Backend::kNative};
    sat::Service svc(serve_options());
    warm_service(svc, in, st, o);
    std::uint64_t next_request = 1u << 30;
    const ServiceSnap a = snapshot_service(svc);
    const Phase ph = serve_phase(svc, in, st, Loop::kClosed, 0, 8,
                                 smoke ? 0.3 : 1.0, seed, next_request, o);
    add_service_layers(o, ph, a, snapshot_service(svc));
}

// ----------------------------------------------------------- reporting ----

/// One latency distribution, in ms.
void print_phase(std::string_view what, const std::vector<double>& ms)
{
    std::cout << "  " << what << " (n=" << ms.size() << "): p50 "
              << median(ms) << ", p90 " << percentile(ms, 90) << ", p95 "
              << percentile(ms, 95) << ", p99 " << percentile(ms, 99)
              << ", max " << percentile(ms, 100) << " ms\n";
}

void add_overhead(Outcome& o, double untraced_p50, double traced_p50)
{
    o.add_layer("trace.overhead_frac",
                (traced_p50 - untraced_p50) / untraced_p50, "frac");
    std::cout << "  tracing overhead: p50 " << untraced_p50
              << " ms untraced -> " << traced_p50 << " ms traced\n";
}

void add_common_e2e(Outcome& o, const std::vector<double>& setup_s)
{
    o.add_e2e("setup_s", median(setup_s), "s");
    o.add_e2e("peak_rss_mb", peak_rss_mb(), "MB");
}

} // namespace

// ------------------------------------------------------------- bulk_4k ----

namespace {

struct BulkRig {
    std::unique_ptr<sat::Runtime> rt;
    sat::Plan sat_plan;
    sat::Plan box_plan;
};

BulkRig setup_bulk(std::int64_t side, int threads, const AnyMatrix& warm,
                   SetupCosts& costs)
{
    BulkRig rig;
    rig.rt = make_runtime(threads);
    const sat::PlanRequest req = native_request(side, side);
    const sat::PlanRequest qreq = native_request(
        side, side, sat::BoxFilterSpec{4}, sat::QueryMode::kFused);
    require_certified(*rig.rt, req, costs.certify_ms);
    require_certified(*rig.rt, qreq, costs.certify_ms);
    costs.plan_ms =
        (timed("runtime.plan", [&] { rig.sat_plan = rig.rt->plan(req); }) +
         timed("runtime.plan_query",
               [&] { rig.box_plan = rig.rt->plan_query(qreq); })) /
        2;
    require_native(rig.sat_plan, "bulk SAT plan");
    require_native(rig.box_plan, "bulk box plan");
    if (!rig.box_plan.query_fused())
        throw std::runtime_error("bulk box plan is not fused");
    (void)timed("warmup", [&] {
        const sat::RuntimeResult a = rig.sat_plan.execute(warm);
        const sat::RuntimeResult b = rig.box_plan.execute(warm);
        keep(&a);
        keep(&b);
    });
    return rig;
}

struct BulkSamples {
    std::vector<double> sat_ms, box_ms, iter_ms, late_ms;
    std::uint64_t allocs = 0;
};

BulkSamples bulk_loop(BulkRig& rig, const std::vector<AnyMatrix>& imgs,
                      const std::vector<AnyMatrix>& sat_refs,
                      const std::vector<AnyMatrix>& box_refs, double seconds,
                      std::uint64_t& next_request, Outcome& o)
{
    BulkSamples s;
    const std::uint64_t allocs0 = rig.rt->pool_stats().allocations;
    const auto end = Clock::now() + seconds_to(seconds);
    auto ready = Clock::now();
    for (std::size_t i = 0; i == 0 || Clock::now() < end; ++i) {
        {
            const std::size_t k = i % imgs.size();
            const std::uint64_t req = ++next_request;
            Scope iter("bulk.iteration", req);
            s.late_ms.push_back(ms_between(ready, Clock::now()));
            sat::RuntimeResult sat_res, box_res;
            const double sat_ms = timed(
                "runtime.execute",
                [&] { sat_res = rig.sat_plan.execute(imgs[k]); }, req);
            {
                Scope sc("check.oracle", req);
                check(o, sat_res.table == sat_refs[k]);
            }
            const double box_ms = timed(
                "query.fused",
                [&] { box_res = rig.box_plan.execute(imgs[k]); }, req);
            {
                Scope sc("check.oracle", req);
                check(o, box_res.table == box_refs[k]);
            }
            s.sat_ms.push_back(sat_ms);
            s.box_ms.push_back(box_ms);
            s.iter_ms.push_back(sat_ms + box_ms);
        } // the 64 MiB outputs are freed here, outside every timed call
        ready = Clock::now();
    }
    s.allocs = rig.rt->pool_stats().allocations - allocs0;
    return s;
}

} // namespace

Outcome run_bulk_4k(const Config& cfg)
{
    Outcome o;
    const std::int64_t side = cfg.smoke ? 512 : 4096;
    const double mpx = static_cast<double>(side * side) / 1e6;
    const int threads = cpu_budget();
    std::cout << "bulk_4k: " << side << "^2 8u->32u, native BRLT-ScanRow, "
              << threads << " engine threads; input "
              << mpx * 1.0e6 / kMiB << " MiB, table " << 4 * mpx * 1.0e6 / kMiB
              << " MiB\n";

    std::vector<AnyMatrix> imgs, sat_refs, box_refs;
    {
        const sat::Runtime oracle;
        for (std::uint64_t k = 0; k < 2; ++k) {
            imgs.push_back(AnyMatrix::random(Dtype::u8_, side, side,
                                             mix_seed(cfg.seed, k)));
            sat_refs.push_back(oracle.reference(imgs.back(), Dtype::u32_));
            box_refs.push_back(oracle.query_reference(
                imgs.back(), Dtype::u32_, sat::BoxFilterSpec{4}));
        }
    }

    std::vector<double> setup_s;
    std::vector<SetupCosts> costs;
    BulkRig rig;
    for (int r = 0; r < setup_rounds(cfg); ++r) {
        rig = BulkRig{};
        costs.emplace_back();
        const auto t0 = Clock::now();
        rig = setup_bulk(side, threads, imgs[0], costs.back());
        setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    }

    std::uint64_t next_request = 0;
    const auto report = [&](const BulkSamples& s, std::string_view what) {
        print_phase(what, s.iter_ms);
        std::cout << "    sat_mpx_s " << mpx / (median(s.sat_ms) / 1e3)
                  << " Mpx/s, box_mpx_s " << mpx / (median(s.box_ms) / 1e3)
                  << " Mpx/s over " << s.iter_ms.size() << " iterations\n";
    };
    if (!cfg.trace) {
        const BulkSamples s = bulk_loop(rig, imgs, sat_refs, box_refs,
                                        cfg.seconds, next_request, o);
        report(s, "iteration (SAT + fused box)");
        add_common_e2e(o, setup_s);
        o.add_e2e("p50_ms", median(s.iter_ms), "ms");
        o.add_e2e("tail_ms", percentile(s.iter_ms, 90), "ms");
        o.add_e2e("mpx_s", 2 * mpx / (median(s.iter_ms) / 1e3), "Mpx/s");
        o.add_named("sat_mpx_s", mpx / (median(s.sat_ms) / 1e3), "Mpx/s");
        o.add_named("box_mpx_s", mpx / (median(s.box_ms) / 1e3), "Mpx/s");
        o.add_named("fail_frac", fail_frac(o), "frac");
        return o;
    }

    const BulkSamples a = bulk_loop(rig, imgs, sat_refs, box_refs,
                                    cfg.seconds / 2, next_request, o);
    report(a, "untraced iteration");
    tracer().enable(true);
    const BulkSamples b = bulk_loop(rig, imgs, sat_refs, box_refs,
                                    cfg.seconds / 2, next_request, o);
    report(b, "traced iteration");
    add_overhead(o, median(a.iter_ms), median(b.iter_ms));

    const Refs refs =
        measure_refs(imgs[0].as<u8>(), threads, cfg.smoke ? 2 : 5);
    add_runtime_layers(o, median(b.sat_ms), refs);
    add_setup_layers(o, costs);
    o.add_layer("runtime.wave_gain",
                measure_wave_gain(cfg.seed, cfg.smoke ? 3 : 20, o), "x");
    const QueryTimes q =
        measure_query(*rig.rt, imgs[0], box_refs[0], cfg.smoke ? 1 : 3, o);
    add_query_layers(o, median(b.box_ms), q.materialize_ms);
    o.add_layer("pool.high_water_mb",
                static_cast<double>(rig.rt->pool_stats().high_water_bytes) /
                    kMiB,
                "MB");
    o.add_layer("pool.allocs_after_warmup",
                static_cast<double>(a.allocs + b.allocs), "count");
    o.add_layer("gen.late_ms.p99", percentile(b.late_ms, 99), "ms");
    probe_service(o, cfg.seed, cfg.smoke);
    probe_stream(o, cfg.seed, threads, cfg.smoke);
    o.add_layer("fail_frac", fail_frac(o), "frac");
    return o;
}

// --------------------------------------------------------- serve_mixed ----

Outcome run_serve_mixed(const Config& cfg)
{
    Outcome o;
    const ServeInputs in = make_serve_inputs(kServeMix, 4, cfg.seed);
    // Requests pin the algorithm kAuto resolves for every key on a 4-core
    // host.  kAuto itself ranks by one timed calibration per candidate,
    // so it flips a key to BRLT-ScanRow in about one set-up in five, and
    // capacity moves with it; the traced run still times the cold kAuto
    // plans (model.plan_cold_ms) and prints what they resolved to.
    const ServeSettings st{sat::Algorithm::kScanRowColumn,
                           sat::Backend::kNative};
    // Poisson arrivals at about a fifth of capacity: each request holds a
    // worker for the 2 ms linger, so utilization is near 0.4 and the
    // queue stays short.
    const double rate = 400;
    const int inflight = 32;
    std::cout << "serve_mixed: 2 workers x 1 engine thread, max_wave 8, "
                 "linger 2 ms, kBlock, ScanRowColumn/native; open loop "
              << rate << " rps (Poisson), closed loop " << inflight
              << " in flight\n";

    std::vector<double> setup_s;
    std::unique_ptr<sat::Service> svc;
    for (int r = 0; r < setup_rounds(cfg); ++r) {
        svc.reset();
        const auto t0 = Clock::now();
        svc = std::make_unique<sat::Service>(serve_options());
        warm_service(*svc, in, st, o);
        setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    }
    for (const auto& pi : svc->plan_info())
        std::cout << "  plan " << pi.label << ": "
                  << sat::to_string(pi.algorithm) << " on "
                  << sat::to_string(pi.backend)
                  << (pi.certified ? " (certified)" : "") << "\n";

    std::uint64_t next_request = 0;
    const double open_s = cfg.seconds * 0.5;
    const double closed_s = cfg.seconds * 0.5;
    const auto closed_phase = [&] {
        const Phase c =
            serve_phase(*svc, in, st, Loop::kClosed, 0, inflight, closed_s,
                        mix_seed(cfg.seed, 2), next_request, o);
        std::cout << "  closed loop: " << sliced_rate(c, false)
                  << " rps (median of " << slice_count(c) << " slices, "
                  << c.lat_ms.size() << " completions)\n";
        return c;
    };

    if (!cfg.trace) {
        const Phase p = serve_phase(*svc, in, st, Loop::kOpen, rate, 0,
                                    open_s, mix_seed(cfg.seed, 1),
                                    next_request, o);
        print_phase("open-loop request", p.lat_ms);
        const Phase c = closed_phase();
        const double p50 = sliced_latency(p, 50);
        const double p95 = sliced_latency(p, 95);
        const double p99 = sliced_latency(p, 99);
        std::cout << "  open loop, median of " << slice_count(p)
                  << " slices: p50 " << p50 << ", p95 " << p95 << ", p99 "
                  << p99 << " ms\n";
        add_common_e2e(o, setup_s);
        // p95, not p99: the p99 moves 10-15% between runs on host stalls.
        o.add_e2e("p50_ms", p50, "ms");
        o.add_e2e("tail_ms", p95, "ms");
        o.add_e2e("mpx_s", sliced_rate(c, true) / 1e6, "Mpx/s");
        o.add_named("req_p50_ms", p50, "ms");
        o.add_named("req_p99_ms", p99, "ms");
        o.add_named("capacity_rps", sliced_rate(c, false), "1/s");
        o.add_named("gen.late_ms.p99", percentile(p.late_ms, 99), "ms");
        o.add_named("fail_frac", fail_frac(o), "frac");
        return o;
    }

    const Phase a = serve_phase(*svc, in, st, Loop::kOpen, rate, 0,
                                open_s / 2, mix_seed(cfg.seed, 1),
                                next_request, o);
    print_phase("untraced open-loop request", a.lat_ms);
    tracer().enable(true);
    const ServiceSnap before = snapshot_service(*svc);
    const Phase b = serve_phase(*svc, in, st, Loop::kOpen, rate, 0,
                                open_s / 2, mix_seed(cfg.seed, 3),
                                next_request, o);
    const ServiceSnap after = snapshot_service(*svc);
    print_phase("traced open-loop request", b.lat_ms);
    add_overhead(o, median(a.lat_ms), median(b.lat_ms));
    add_service_layers(o, b, before, after);
    o.add_layer("gen.late_ms.p99", percentile(b.late_ms, 99), "ms");
    (void)closed_phase();
    (void)timed("service.metrics_json",
                [&] { keep(svc->metrics_json().data()); });

    std::uint64_t high_water = 0;
    for (const auto& pi : svc->plan_info())
        high_water += svc->plan_high_water_bytes(pi.key);
    o.add_layer("pool.high_water_mb", static_cast<double>(high_water) / kMiB,
                "MB");

    // The runtime layer at the mix's 128^2 8u->32u key, as a worker runs
    // it: one engine thread, the plan the service resolved.
    const auto infos = svc->plan_info();
    const auto key128 = std::find_if(infos.begin(), infos.end(), [](auto& pi) {
        return pi.key.height == 128 && pi.key.width == 128 &&
               pi.key.dtypes.in == Dtype::u8_;
    });
    if (key128 == infos.end())
        throw std::runtime_error("128^2 plan key missing");
    sat::PlanRequest req = native_request(128, 128);
    req.algorithm = key128->algorithm;
    SetupCosts costs;
    auto rt = make_runtime(1);
    costs.certify_ms = timed("runtime.certify", [&] {
        (void)rt->certify(key128->algorithm, req);
    });
    const sat::Plan plan = rt->plan(req);
    const AnyMatrix& img = in.images[0][0];
    check(o, plan.execute(img).table == in.refs[0][0]);
    const std::uint64_t allocs0 = rt->pool_stats().allocations;
    std::vector<double> exec;
    for (int r = 0; r < (cfg.smoke ? 5 : 50); ++r) {
        sat::RuntimeResult res;
        exec.push_back(
            timed("runtime.execute", [&] { res = plan.execute(img); }));
        check(o, res.table == in.refs[0][0]);
    }
    o.add_layer("pool.allocs_after_warmup",
                static_cast<double>(rt->pool_stats().allocations - allocs0),
                "count");
    add_runtime_layers(o, median(exec),
                       measure_refs(img.as<u8>(), 1, cfg.smoke ? 5 : 50));

    // Cold kAuto plans for every key on one fresh worker-like runtime;
    // what they resolve to shows any kAuto flip between runs.
    auto cold = make_runtime(1);
    for (const Template& t : in.templates) {
        sat::Plan p;
        costs.plan_ms += timed("runtime.plan", [&] {
            p = cold->plan({.height = t.h,
                            .width = t.w,
                            .dtypes = t.pair,
                            .algorithm = sat::Algorithm::kAuto,
                            .backend = sat::Backend::kNative});
        });
        std::cout << "  cold kAuto plan " << t.h << "x" << t.w << "/"
                  << pair_name(t.pair) << ": " << sat::to_string(p.algorithm())
                  << " on " << sat::to_string(p.backend()) << "\n";
    }
    costs.plan_ms /= static_cast<double>(in.templates.size());
    add_setup_layers(o, {costs});
    o.add_layer("runtime.wave_gain",
                measure_wave_gain(cfg.seed, cfg.smoke ? 3 : 20, o), "x");
    probe_query(o, cfg.seed, cpu_budget());
    probe_stream(o, cfg.seed, cpu_budget(), cfg.smoke);
    o.add_layer("fail_frac", fail_frac(o), "frac");
    return o;
}

// -------------------------------------------------------- stream_1k_t8 ----

Outcome run_stream_1k_t8(const Config& cfg)
{
    Outcome o;
    const std::int64_t side = cfg.smoke ? 256 : 1024;
    const int threads = cpu_budget();
    const std::int64_t check_every = 8;
    std::cout << "stream_1k_t8: SlidingWindowSat<u32, u8>, incremental, T="
              << kStreamWindow << ", " << side << "^2 frames, native, "
              << threads << " engine threads\n";
    const auto frames = make_frames(side, cfg.seed);

    std::vector<double> setup_s;
    std::vector<SetupCosts> costs;
    StreamRig rig;
    for (int r = 0; r < setup_rounds(cfg); ++r) {
        // The window's leases return to the runtime's pool: drop the
        // window first (member-wise assignment would free the pool first).
        rig.win.reset();
        rig = StreamRig{};
        costs.emplace_back();
        const auto t0 = Clock::now();
        rig = setup_stream(frames, threads, costs.back());
        setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    }

    const auto report = [&](const StreamSamples& s, std::string_view what) {
        print_phase(what, s.op_ms);
        std::cout << "    push p50 " << median(s.push_ms) << " ms, p95 "
                  << percentile(s.push_ms, 95) << " ms over "
                  << s.push_ms.size() << " pushes\n";
    };
    const double mpx = static_cast<double>(side * side) / 1e6;
    if (!cfg.trace) {
        const StreamSamples s = stream_loop(rig, frames, cfg.seconds,
                                            cfg.seed, check_every, o);
        report(s, "push + window read");
        add_common_e2e(o, setup_s);
        o.add_e2e("p50_ms", median(s.op_ms), "ms");
        o.add_e2e("tail_ms", percentile(s.op_ms, 95), "ms");
        o.add_e2e("mpx_s", mpx / (median(s.op_ms) / 1e3), "Mpx/s");
        o.add_named("push_p50_ms", median(s.push_ms), "ms");
        o.add_named("push_p95_ms", percentile(s.push_ms, 95), "ms");
        o.add_named("fail_frac", fail_frac(o), "frac");
        return o;
    }

    const StreamSamples a = stream_loop(rig, frames, cfg.seconds / 2,
                                        cfg.seed, check_every, o);
    report(a, "untraced push + window read");
    tracer().enable(true);
    const StreamSamples b = stream_loop(rig, frames, cfg.seconds / 2,
                                        mix_seed(cfg.seed, 7), check_every,
                                        o);
    report(b, "traced push + window read");
    add_overhead(o, median(a.op_ms), median(b.op_ms));
    // The stream's build is this workload's runtime.execute.
    const double build_ms =
        add_stream_layers(o, rig, frames, b, cfg.smoke ? 5 : 20);
    add_runtime_layers(o, build_ms,
                       measure_refs(frames[0], threads, cfg.smoke ? 3 : 20));
    add_setup_layers(o, costs);
    o.add_layer("runtime.wave_gain",
                measure_wave_gain(cfg.seed, cfg.smoke ? 3 : 20, o), "x");
    o.add_layer("pool.high_water_mb",
                static_cast<double>(rig.rt->pool_stats().high_water_bytes) /
                    kMiB,
                "MB");
    o.add_layer("pool.allocs_after_warmup",
                static_cast<double>(a.allocs + b.allocs), "count");
    o.add_layer("gen.late_ms.p99", percentile(b.late_ms, 99), "ms");
    probe_query(o, cfg.seed, threads);
    probe_service(o, cfg.seed, cfg.smoke);
    o.add_layer("fail_frac", fail_frac(o), "frac");
    return o;
}

} // namespace perfbench
