// satgpu_fuzz: seeded randomized differential fuzzer for the SAT stack.
//
// Each seed deterministically samples one case -- dtype pair, algorithm
// (incl. kAuto), shape up to 4096 x 4096 (log-uniform, so ragged small
// shapes dominate but the tail reaches full size), optional macro-tile
// geometry, scheduler thread count, batch size -- plus side knobs for a
// service, a SAT-consumer query and a frame stream.  Every registered
// execution path that applies runs the case, and each of its outputs must
// be BIT-EXACT against the one serial oracle of the case's kind:
//
//   kind    oracle (once per input)  paths
//   sat     sat_serial               runtime-sim, runtime-native, wave,
//                                    wave-native, service
//   query   query_serial             query-fused, query-materialized
//   stream  window_sat_serial        stream-incremental, stream-recompute
//
// Inputs are integer-valued with a magnitude cap shrunk by image area so
// float SATs stay exactly representable and every scan order agrees
// bitwise.  Adding a path is one entry in kPaths.
//
//   satgpu_fuzz --seeds N   run seeds 0..N-1 through every path
//   satgpu_fuzz --seed S    replay one seed verbosely
//
// On mismatch the tool prints the seed, the path, the configuration and
// `reproduce: satgpu_fuzz --seed S`, then exits 1.  Sampling consumes each
// RNG stream in a fixed order, so one seed always maps to the same case on
// every build.
#include "core/random_fill.hpp"
#include "sat/integral_video.hpp"
#include "sat/runtime.hpp"
#include "sat/service.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>

namespace {

using namespace satgpu;

/// One fully sampled fuzz case.
struct FuzzConfig {
    std::uint64_t seed = 0;
    DtypePair pair{Dtype::u8_, Dtype::u32_};
    sat::Algorithm algo = sat::Algorithm::kAuto;
    std::int64_t h = 1, w = 1;
    sat::TileGeometry tile{}; ///< disabled => untiled path
    int threads = 1;
    int batch = 1;
    int fill_hi = 15; ///< input magnitude cap (see header comment)
};

/// Log-uniform side length in [1, 4096]: exponent uniform in [0, 12].
std::int64_t sample_side(std::mt19937_64& rng)
{
    std::uniform_real_distribution<double> lg(0.0, 12.0);
    const auto s = static_cast<std::int64_t>(std::exp2(lg(rng)));
    return std::clamp<std::int64_t>(s, 1, 4096);
}

FuzzConfig sample(std::uint64_t seed)
{
    // Sampling order is fixed: changing it changes what every seed means,
    // which invalidates recorded failing seeds.  Append new knobs at the end.
    std::mt19937_64 rng(seed);
    FuzzConfig c;
    c.seed = seed;
    c.pair = kPaperDtypePairs[std::uniform_int_distribution<std::size_t>(
        0, std::size(kPaperDtypePairs) - 1)(rng)];
    // 7 concrete algorithms + kAuto at ~1/8 probability.
    const auto ai = std::uniform_int_distribution<std::size_t>(
        0, std::size(sat::kAllAlgorithms))(rng);
    c.algo = ai < std::size(sat::kAllAlgorithms) ? sat::kAllAlgorithms[ai]
                                                 : sat::Algorithm::kAuto;
    c.h = sample_side(rng);
    c.w = sample_side(rng);
    if (std::uniform_int_distribution<int>(0, 1)(rng)) { // ~50% tiled
        constexpr std::int64_t kSides[] = {32, 64, 128, 256};
        c.tile.tile_h = kSides[std::uniform_int_distribution<std::size_t>(
            0, std::size(kSides) - 1)(rng)];
        c.tile.tile_w = kSides[std::uniform_int_distribution<std::size_t>(
            0, std::size(kSides) - 1)(rng)];
        c.tile.carry_fanout = std::uniform_int_distribution<int>(1, 4)(rng);
    }
    constexpr int kThreads[] = {1, 2, 7};
    c.threads = kThreads[std::uniform_int_distribution<std::size_t>(
        0, std::size(kThreads) - 1)(rng)];
    c.batch = std::uniform_int_distribution<int>(1, 3)(rng);
    // f32 sums are exact only up to 2^24; shrink the fill cap so
    // area * hi stays under it.  Wider accumulators keep the default.
    if (c.pair.out == Dtype::f32_) {
        const std::int64_t cap = (std::int64_t{1} << 24) / (c.h * c.w);
        c.fill_hi = static_cast<int>(std::clamp<std::int64_t>(cap, 1, 15));
    }
    return c;
}

std::string describe(const FuzzConfig& c)
{
    std::ostringstream os;
    os << pair_name(c.pair) << ' '
       << (c.algo == sat::Algorithm::kAuto ? "auto"
                                           : sat::to_string(c.algo))
       << ' ' << c.h << 'x' << c.w;
    if (c.tile.enabled())
        os << " tile " << c.tile.tile_h << 'x' << c.tile.tile_w << " fanout "
           << c.tile.carry_fanout;
    else
        os << " untiled";
    os << " threads " << c.threads << " batch " << c.batch << " fill 0.."
       << c.fill_hi;
    return os.str();
}

sat::AnyMatrix random_image(Dtype t, std::int64_t h, std::int64_t w,
                            std::uint64_t seed, int hi)
{
    sat::AnyMatrix m = sat::AnyMatrix::zeros(t, h, w);
    switch (t) {
    case Dtype::u8_: fill_random_ints(m.as<u8>(), seed, hi); break;
    case Dtype::i32_: fill_random_ints(m.as<i32>(), seed, hi); break;
    case Dtype::u32_: fill_random_ints(m.as<u32>(), seed, hi); break;
    case Dtype::f32_: fill_random_ints(m.as<f32>(), seed, hi); break;
    case Dtype::f64_: fill_random_ints(m.as<f64>(), seed, hi); break;
    }
    return m;
}

/// Runtimes are cached per thread count: kAuto plans share one calibrated
/// cost model and the buffer pool keeps recycling across seeds, which is
/// exactly the steady-state serving configuration worth fuzzing.
sat::Runtime& runtime_for(int threads)
{
    static std::map<int, std::unique_ptr<sat::Runtime>> cache;
    auto& slot = cache[threads];
    if (!slot)
        slot = std::make_unique<sat::Runtime>(
            simt::Engine::Options{.record_history = false,
                                  .num_threads = threads});
    return *slot;
}

// The service, query and stream knobs each come from their OWN rng stream
// (the seed XOR a fixed constant): drawing them from the base rng would
// shift every knob sampled after them and silently re-mean every recorded
// failing seed.

/// Service-shape knobs for the service path.
struct ServiceConfig {
    int workers = 1;
    int wave = 1;
    int linger_us = 0;
    std::size_t queue = 8;
};

ServiceConfig sample_service(std::uint64_t seed)
{
    std::mt19937_64 rng(seed ^ 0x5e41ce5eedf00dull);
    ServiceConfig s;
    constexpr int kWorkers[] = {1, 2, 3};
    s.workers = kWorkers[std::uniform_int_distribution<std::size_t>(
        0, std::size(kWorkers) - 1)(rng)];
    constexpr int kWave[] = {1, 2, 4, 8};
    s.wave = kWave[std::uniform_int_distribution<std::size_t>(
        0, std::size(kWave) - 1)(rng)];
    constexpr int kLinger[] = {0, 500};
    s.linger_us = kLinger[std::uniform_int_distribution<std::size_t>(
        0, std::size(kLinger) - 1)(rng)];
    // Depths below the batch size exercise kBlock backpressure.
    constexpr std::size_t kQueue[] = {2, 8, 64};
    s.queue = kQueue[std::uniform_int_distribution<std::size_t>(
        0, std::size(kQueue) - 1)(rng)];
    return s;
}

/// Query spec for the query paths.  Histogram queries are only servable
/// on the 8u -> 32u pair; other pairs remap that draw to a box filter so
/// every seed stays a valid case.
sat::QuerySpec sample_query(std::uint64_t seed, DtypePair pair)
{
    std::mt19937_64 rng(seed ^ 0x9ce5a7f00d5eedull);
    const int kind = std::uniform_int_distribution<int>(0, 3)(rng);
    const auto radius = std::uniform_int_distribution<std::int64_t>(0, 9)(rng);
    if (kind == 1) {
        constexpr double kFrac[] = {0.5, 0.85, 1.0};
        return sat::AdaptiveThresholdSpec{
            radius, kFrac[std::uniform_int_distribution<std::size_t>(
                        0, std::size(kFrac) - 1)(rng)]};
    }
    if (kind == 2) {
        const auto wh = std::uniform_int_distribution<std::int64_t>(1, 12)(rng);
        const auto ww = std::uniform_int_distribution<std::int64_t>(1, 12)(rng);
        return sat::WindowSumSpec{wh, ww};
    }
    if (kind == 3 && pair.in == Dtype::u8_ && pair.out == Dtype::u32_) {
        // 3 and 48 do not divide 256: their top bin absorbs the ragged
        // remainder (bin_of).
        constexpr int kBins[] = {2, 3, 4, 8, 16, 48};
        return sat::RegionHistogramSpec{
            kBins[std::uniform_int_distribution<std::size_t>(
                0, std::size(kBins) - 1)(rng)],
            std::min<std::int64_t>(radius, 6)};
    }
    return sat::BoxFilterSpec{radius};
}

/// Streaming-shape knobs for the stream paths.
struct StreamConfig {
    std::int64_t window = 1; ///< sliding-window length T
    int extra = 0;           ///< pushes beyond the first full window
    int deltas = 0;          ///< random pixel mutations per successive frame
};

StreamConfig sample_stream(std::uint64_t seed)
{
    std::mt19937_64 rng(seed ^ 0x57ead1ffc0de5ull);
    StreamConfig s;
    s.window = std::uniform_int_distribution<std::int64_t>(1, 8)(rng);
    s.extra = std::uniform_int_distribution<int>(0, 4)(rng);
    s.deltas = std::uniform_int_distribution<int>(1, 64)(rng);
    return s;
}

/// Which oracle a case's outputs are diffed against, named by kOracle.
enum class Kind { kSat, kQuery, kStream };
constexpr const char* kOracle[] = {"sat_serial", "query_serial",
                                   "window_sat_serial"};

/// One seed's inputs for one case kind, after the kind's clamps, with the
/// oracle output for every input computed once and shared by every path.
struct Case {
    Kind kind = Kind::kSat;
    FuzzConfig c{};
    ServiceConfig service{}; ///< kSat: the service path's knobs
    sat::QuerySpec query{};  ///< kQuery: the consumer spec
    StreamConfig stream{};   ///< kStream: the window shape
    std::vector<sat::AnyMatrix> inputs{}; ///< batch images, or stream frames
    std::vector<sat::AnyMatrix> want{};   ///< oracle per image / per push
};

std::string describe(const Case& k)
{
    std::ostringstream os;
    switch (k.kind) {
    case Kind::kSat:
        os << describe(k.c) << " service workers " << k.service.workers
           << " wave " << k.service.wave << " linger " << k.service.linger_us
           << "us queue " << k.service.queue;
        break;
    case Kind::kQuery:
        os << sat::query_label(k.query) << " on " << describe(k.c);
        break;
    case Kind::kStream:
        os << describe(k.c) << " window " << k.stream.window << " extra "
           << k.stream.extra << " deltas " << k.stream.deltas;
        break;
    }
    return os.str();
}

/// The case's batch images: a distinct deterministic fill per index.
std::vector<sat::AnyMatrix> batch_images(const FuzzConfig& c)
{
    std::vector<sat::AnyMatrix> images;
    for (int b = 0; b < c.batch; ++b)
        images.push_back(random_image(
            c.pair.in, c.h, c.w,
            c.seed * 1000003u + static_cast<std::uint64_t>(b), c.fill_hi));
    return images;
}

Case sat_case(FuzzConfig c)
{
    Case k{.c = c, .service = sample_service(c.seed)};
    k.inputs = batch_images(c);
    for (const auto& image : k.inputs)
        k.want.push_back(runtime_for(1).reference(image, c.pair.out));
    return k;
}

Case query_case(FuzzConfig c)
{
    // Query pipelines run several kernels per macro tile; cap the sides so
    // the sweep stays fast while still covering ragged multi-tile grids.
    c.h = std::min<std::int64_t>(c.h, 512);
    c.w = std::min<std::int64_t>(c.w, 512);
    Case k{.kind = Kind::kQuery, .c = c, .query = sample_query(c.seed, c.pair)};
    k.inputs = batch_images(c);
    for (const auto& image : k.inputs)
        k.want.push_back(
            runtime_for(1).query_reference(image, c.pair.out, k.query));
    return k;
}

/// A frame sequence -- frame t is frame t-1 with `deltas` random pixel
/// changes, the temporal coherence the incremental path exists for -- and
/// the serial window oracle after every push, including the warm-up
/// pushes before the first wraparound and every ring slot reuse after it.
Case stream_case(FuzzConfig c)
{
    // The recompute path and the serial oracle both rebuild T SATs per
    // push; cap the sides so the sweep stays fast.  The fill cap was
    // computed for the UNCLAMPED area, so window sums stay exactly
    // representable: T * 256^2 * 15 < 2^24.
    c.h = std::min<std::int64_t>(c.h, 256);
    c.w = std::min<std::int64_t>(c.w, 256);
    // The streaming kernel layer takes a concrete algorithm (kAuto is a
    // Runtime-level policy); remap the kAuto draw like histogram queries
    // remap non-8u pairs.
    if (c.algo == sat::Algorithm::kAuto)
        c.algo = sat::Algorithm::kBrltScanRow;
    Case k{.kind = Kind::kStream, .c = c, .stream = sample_stream(c.seed)};
    visit_paper_pair(c.pair, [&](auto ti, auto to) {
        using Tin = typename decltype(ti)::type;
        using Tout = typename decltype(to)::type;
        std::mt19937_64 delta_rng(c.seed ^ 0xde17a5eedf00d1ull);
        std::vector<Matrix<Tin>> frames;
        Matrix<Tin> frame(c.h, c.w);
        fill_random_ints(frame, c.seed * 1000003u, c.fill_hi);
        const std::int64_t pushes = k.stream.window + k.stream.extra;
        for (std::int64_t t = 0; t < pushes; ++t) {
            if (t > 0)
                for (int d = 0; d < k.stream.deltas; ++d) {
                    const auto y = std::uniform_int_distribution<
                        std::int64_t>(0, c.h - 1)(delta_rng);
                    const auto x = std::uniform_int_distribution<
                        std::int64_t>(0, c.w - 1)(delta_rng);
                    frame(y, x) = static_cast<Tin>(
                        std::uniform_int_distribution<int>(
                            0, c.fill_hi)(delta_rng));
                }
            frames.push_back(frame);
            std::vector<const Matrix<Tin>*> in_window;
            for (std::int64_t u =
                     std::max<std::int64_t>(0, t - k.stream.window + 1);
                 u <= t; ++u)
                in_window.push_back(&frames[static_cast<std::size_t>(u)]);
            k.want.emplace_back(sat::window_sat_serial<Tout, Tin>(
                std::span<const Matrix<Tin>* const>(in_window)));
        }
        for (auto& f : frames)
            k.inputs.emplace_back(std::move(f));
    });
    return k;
}

// ------------------------------------------------------------ the paths ----

using Outputs = std::vector<sat::AnyMatrix>;

sat::PlanRequest plan_request(const FuzzConfig& c)
{
    return {.height = c.h,
            .width = c.w,
            .dtypes = c.pair,
            .algorithm = c.algo,
            .tile = c.tile};
}

Outputs execute_each(const sat::Plan& plan, const Case& k)
{
    Outputs out;
    for (const auto& image : k.inputs)
        out.push_back(plan.execute(image).table);
    return out;
}

/// One Runtime plan per case, executed image by image.  A kNative request
/// the native backend refuses (uncertified or unsupported algorithm)
/// resolves back to the simulator, which still exercises the refusal path.
template <sat::Backend B>
Outputs run_runtime(const Case& k)
{
    sat::PlanRequest req = plan_request(k.c);
    req.backend = B;
    return execute_each(runtime_for(k.c.threads).plan(req), k);
}

/// The whole batch as one Plan::execute_wave (fused grid.z = K launches
/// when untiled).  A kNative request the native backend refuses resolves
/// back to the simulator, as in run_runtime.
template <sat::Backend B>
Outputs run_wave(const Case& k)
{
    sat::PlanRequest req = plan_request(k.c);
    req.backend = B;
    const auto plan = runtime_for(k.c.threads).plan(req);
    std::vector<const sat::AnyMatrix*> images;
    for (const auto& image : k.inputs)
        images.push_back(&image);
    return plan.execute_wave(images).tables;
}

/// The batch submitted through a per-seed sat::Service with the sampled
/// worker count / wave size / linger / queue depth.  Post-checks the
/// service's own invariants: one plan miss per seed, a hit for every later
/// submission, everything completed, and a metrics registry that agrees
/// with Stats at quiescence.
Outputs run_service(const Case& k)
{
    const ServiceConfig& sc = k.service;
    sat::Service svc(sat::Service::Options{
        .workers = sc.workers,
        .engine_threads = k.c.threads,
        .max_wave = sc.wave,
        .max_linger = std::chrono::microseconds(sc.linger_us),
        .max_queue = sc.queue,
        .policy = sat::Service::AdmissionPolicy::kBlock});
    std::vector<std::future<sat::AnyMatrix>> futures;
    for (const auto& image : k.inputs)
        futures.push_back(svc.submit({.image = image,
                                      .out = k.c.pair.out,
                                      .algorithm = k.c.algo,
                                      .tile = k.c.tile}));
    Outputs out;
    for (auto& f : futures)
        out.push_back(f.get());

    const auto stats = svc.stats();
    const auto batch = static_cast<std::uint64_t>(k.c.batch);
    if (stats.plan_misses != 1 || stats.plan_hits != batch - 1 ||
        stats.completed != batch) {
        std::ostringstream os;
        os << "service counter invariant (misses " << stats.plan_misses
           << " hits " << stats.plan_hits << " completed " << stats.completed
           << " for batch " << batch << ")";
        throw std::runtime_error(os.str());
    }

    // Every future is joined, so the registry must agree with Stats, every
    // admitted request must have been observed end-to-end, and wave-size
    // histogram mass must account for every submission exactly once.
    const sat::obs::MetricsRegistry& m = svc.metrics();
    const std::uint64_t m_submitted =
        m.counter_total("satgpu_service_submitted_total");
    const std::uint64_t m_completed =
        m.counter_total("satgpu_service_completed_total");
    const std::uint64_t m_rejected =
        m.counter_total("satgpu_service_rejected_total");
    const std::uint64_t m_failed =
        m.counter_total("satgpu_service_failed_total");
    const auto e2e = m.histogram_total("satgpu_service_e2e_us");
    const auto qwait = m.histogram_total("satgpu_service_queue_wait_us");
    const auto wsize = m.histogram_total("satgpu_service_wave_size");
    if (m_submitted != stats.submitted || m_completed != stats.completed ||
        m_rejected != stats.rejected || m_failed != stats.failed ||
        m_submitted != m_completed + m_rejected + m_failed ||
        e2e.count != m_completed || qwait.count != m_submitted ||
        wsize.count != stats.waves || wsize.sum != m_completed) {
        std::ostringstream os;
        os << "metrics invariant (submitted " << m_submitted << " completed "
           << m_completed << " rejected " << m_rejected << " failed "
           << m_failed << " e2e.count " << e2e.count << " queue_wait.count "
           << qwait.count << " wave_size count/sum " << wsize.count << "/"
           << wsize.sum << " vs stats submitted " << stats.submitted
           << " completed " << stats.completed << " waves " << stats.waves
           << ")";
        throw std::runtime_error(os.str());
    }
    return out;
}

/// The case's query through one consumer path: the fused tiled pipeline
/// (global SAT never materialized) or materialize-then-consume.  Exactness
/// holds for float dtypes too: integer-valued fills keep every window sum
/// exactly representable, and both paths apply the same per-pixel op.
template <sat::QueryMode M>
Outputs run_query(const Case& k)
{
    sat::PlanRequest req = plan_request(k.c);
    req.query = k.query;
    req.query_mode = M;
    return execute_each(runtime_for(k.c.threads).plan_query(req), k);
}

/// The frame sequence through a SlidingWindowSat; one window aggregate per
/// push.
template <sat::StreamUpdateMode M>
Outputs run_stream(const Case& k)
{
    return visit_paper_pair(k.c.pair, [&](auto ti, auto to) {
        using Tin = typename decltype(ti)::type;
        using Tout = typename decltype(to)::type;
        simt::Engine::Options eo{.record_history = false};
        eo.num_threads = k.c.threads;
        simt::Engine eng(eo);
        sat::SlidingWindowSat<Tout, Tin> window(
            eng, k.stream.window, k.c.h, k.c.w,
            {.algorithm = k.c.algo}, k.c.tile, M);
        Outputs out;
        for (const auto& frame : k.inputs) {
            window.push(frame.as<Tin>());
            out.emplace_back(window.window_table());
        }
        return out;
    });
}

/// One registered execution path: which cases it runs, and how.  run()
/// returns one output per input (batch image or stream push) and throws
/// std::runtime_error when a path-specific invariant breaks.
struct Path {
    const char* name;
    bool (*applies)(const Case&);
    Outputs (*run)(const Case&);
};

template <Kind K>
bool of_kind(const Case& k)
{
    return k.kind == K;
}

const Path kPaths[] = {
    {"runtime-sim", of_kind<Kind::kSat>, run_runtime<sat::Backend::kSim>},
    {"runtime-native", of_kind<Kind::kSat>,
     run_runtime<sat::Backend::kNative>},
    {"wave", of_kind<Kind::kSat>, run_wave<sat::Backend::kSim>},
    {"wave-native", of_kind<Kind::kSat>, run_wave<sat::Backend::kNative>},
    {"service", of_kind<Kind::kSat>, run_service},
    {"query-fused", of_kind<Kind::kQuery>, run_query<sat::QueryMode::kFused>},
    {"query-materialized", of_kind<Kind::kQuery>,
     run_query<sat::QueryMode::kMaterialize>},
    {"stream-incremental", of_kind<Kind::kStream>,
     run_stream<sat::StreamUpdateMode::kIncremental>},
    {"stream-recompute", of_kind<Kind::kStream>,
     run_stream<sat::StreamUpdateMode::kRecompute>},
};

/// Empty when `got` matches the case's oracle output for output.
std::string first_mismatch(const Case& k, const Outputs& got)
{
    if (got.size() != k.want.size())
        return std::to_string(got.size()) + " output(s) for " +
               std::to_string(k.want.size()) + " input(s)";
    for (std::size_t i = 0; i < got.size(); ++i)
        if (!(got[i] == k.want[i]))
            return (k.kind == Kind::kStream ? "push " : "image ") +
                   std::to_string(i) + " differs from " +
                   kOracle[static_cast<int>(k.kind)];
    return {};
}

/// Run every applicable path on seed `seed`, one case kind at a time (so
/// only one kind's inputs and oracle outputs are alive).  Prints the
/// failure and returns false on the first mismatch; `runs[p]` counts the
/// cases path p ran.
bool run_seed(std::uint64_t seed, bool verbose,
              std::vector<std::uint64_t>& runs)
{
    const FuzzConfig c = sample(seed);
    for (const auto build : {sat_case, query_case, stream_case}) {
        const Case k = build(c);
        if (verbose)
            std::cout << "seed " << seed << ": " << describe(k) << '\n';
        for (std::size_t p = 0; p < std::size(kPaths); ++p) {
            const Path& path = kPaths[p];
            if (!path.applies(k))
                continue;
            ++runs[p];
            std::string why;
            try {
                why = first_mismatch(k, path.run(k));
            } catch (const std::exception& e) {
                why = e.what();
            }
            if (!why.empty()) {
                std::cout << "FAIL seed " << seed << " path " << path.name
                          << ": " << why << "\n  config: " << describe(k)
                          << "\n  reproduce: satgpu_fuzz --seed " << seed
                          << '\n';
                return false;
            }
            if (verbose)
                std::cout << "  " << path.name << ": bit-exact vs "
                          << kOracle[static_cast<int>(k.kind)] << '\n';
        }
    }
    return true;
}

/// A whole non-negative decimal; nullopt on garbage, a sign or overflow.
std::optional<std::uint64_t> parse_u64(std::string_view s)
{
    std::uint64_t v = 0;
    const char* const end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc{} || ptr != end)
        return std::nullopt;
    return v;
}

void print_usage()
{
    std::cout << "usage: satgpu_fuzz [--seeds N] [--seed S]\n"
                 "  --seeds N: run seeds 0..N-1 (N > 0, default 32) through "
                 "every\n"
                 "             registered path; exit 1 on the first mismatch\n"
                 "  --seed S:  replay one seed verbosely (the reproduce\n"
                 "             command printed on failure)\n"
                 "paths:";
    for (const Path& p : kPaths)
        std::cout << ' ' << p.name;
    std::cout << '\n';
}

} // namespace

int main(int argc, char** argv)
{
    std::uint64_t seeds = 32;
    std::optional<std::uint64_t> single;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if ((arg == "--seeds" || arg == "--seed") && i + 1 < argc) {
            const auto v = parse_u64(argv[++i]);
            if (!v || (arg == "--seeds" && *v == 0)) {
                std::cerr << "satgpu_fuzz: " << arg << " expects a "
                          << (arg == "--seeds" ? "positive" : "non-negative")
                          << " integer, got \"" << argv[i] << "\"\n";
                return 2;
            }
            if (arg == "--seeds")
                seeds = *v;
            else
                single = *v;
        } else {
            print_usage();
            return arg == "--help" || arg == "-h" ? 0 : 2;
        }
    }

    std::vector<std::uint64_t> runs(std::size(kPaths), 0);
    if (single)
        return run_seed(*single, /*verbose=*/true, runs) ? 0 : 1;

    for (std::uint64_t s = 0; s < seeds; ++s)
        if (!run_seed(s, /*verbose=*/false, runs))
            return 1;
    std::cout << "fuzz: " << seeds
              << " seed(s) bit-exact against the serial oracles; cases per "
                 "path:";
    for (std::size_t p = 0; p < std::size(kPaths); ++p)
        std::cout << ' ' << kPaths[p].name << ' ' << runs[p];
    std::cout << '\n';
    // A registered path that no seed applied to is dead in the sweep.
    if (std::ranges::count(runs, 0u) == 0)
        return 0;
    std::cout << "FAIL: a registered path ran on none of the seeds\n";
    return 1;
}
