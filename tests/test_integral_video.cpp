// Streaming temporal SAT tests (docs/streaming.md): the integral-video
// eight-corner identity against a nested-loop oracle across all seven
// paper dtype pairs, ring wraparound and degenerate windows for the
// sliding-window aggregate, bit-exactness of the incremental update
// against the from-scratch recompute twin and the serial oracle at
// several engine thread counts, native-vs-simulator parity of the
// temporal kernels, golden FNV-1a checksums pinning absolute values, and
// the service-layer StreamSession front door.
#include "core/random_fill.hpp"
#include "model/cost_model.hpp"
#include "sat/integral_video.hpp"
#include "sat/service.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace sat = satgpu::sat;
namespace simt = satgpu::simt;
namespace model = satgpu::model;
namespace obs = satgpu::sat::obs;
using satgpu::DtypePair;
using satgpu::Matrix;

namespace {

template <typename Tin>
std::vector<Matrix<Tin>> make_frames(std::int64_t t, std::int64_t h,
                                     std::int64_t w, std::uint64_t seed)
{
    std::vector<Matrix<Tin>> frames;
    frames.reserve(static_cast<std::size_t>(t));
    for (std::int64_t i = 0; i < t; ++i) {
        Matrix<Tin> f(h, w);
        satgpu::fill_random(f, seed + static_cast<std::uint64_t>(i));
        frames.push_back(std::move(f));
    }
    return frames;
}

template <typename Tin>
std::vector<const Matrix<Tin>*> ptrs_of(const std::vector<Matrix<Tin>>& v)
{
    std::vector<const Matrix<Tin>*> p;
    p.reserve(v.size());
    for (const auto& f : v)
        p.push_back(&f);
    return p;
}

template <typename T>
std::uint64_t table_checksum(const Matrix<T>& m)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const T& v : m.flat()) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(T));
        h ^= bits;
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace

// ------------------------------------------------- eight-corner identity --

TEST(IntegralVideo, EightCornerLookupMatchesNestedLoopAllPairs)
{
    for (const DtypePair pair : satgpu::kPaperDtypePairs)
        satgpu::visit_paper_pair(pair, [&](auto ti, auto to) {
            using Tin = typename decltype(ti)::type;
            using Tout = typename decltype(to)::type;
            const auto frames = make_frames<Tin>(4, 13, 17, 900);
            const auto p = ptrs_of(frames);
            simt::Engine eng({.record_history = false});
            const auto iv = sat::compute_integral_video<Tout, Tin>(eng, p);
            ASSERT_EQ(iv.frames(), 4) << pair_name(pair);
            // Every temporal span x a grid of rectangles, including
            // single-pixel and full-frame boxes.
            const std::int64_t ys[] = {0, 1, 5, 12};
            const std::int64_t xs[] = {0, 2, 9, 16};
            for (std::int64_t t0 = 0; t0 < 4; ++t0)
                for (std::int64_t t1 = t0; t1 < 4; ++t1)
                    for (const std::int64_t y0 : ys)
                        for (const std::int64_t y1 : ys) {
                            if (y1 < y0)
                                continue;
                            for (const std::int64_t x0 : xs)
                                for (const std::int64_t x1 : xs) {
                                    if (x1 < x0)
                                        continue;
                                    const Tout got = iv.box_sum(t0, y0, x0,
                                                                t1, y1, x1);
                                    const Tout want =
                                        sat::box_sum_serial<Tout, Tin>(
                                            std::span<
                                                const Matrix<Tin>* const>(
                                                p),
                                            t0, y0, x0, t1, y1, x1);
                                    ASSERT_EQ(got, want)
                                        << pair_name(pair) << " box t["
                                        << t0 << "," << t1 << "] y[" << y0
                                        << "," << y1 << "] x[" << x0 << ","
                                        << x1 << "]";
                                }
                        }
        });
}

TEST(IntegralVideo, MatchesSerialOracleTiledAndUntiled)
{
    const auto frames = make_frames<satgpu::u8>(5, 40, 70, 71);
    const auto p = ptrs_of(frames);
    const auto oracle = sat::integral_video_serial<satgpu::u32, satgpu::u8>(
        std::span<const Matrix<satgpu::u8>* const>(p));
    simt::Engine eng({.record_history = false});
    for (const auto algo : {sat::Algorithm::kBrltScanRow,
                            sat::Algorithm::kScanRowColumn}) {
        const auto iv = sat::compute_integral_video<satgpu::u32, satgpu::u8>(
            eng, p, {.algorithm = algo});
        ASSERT_EQ(iv.frames(), oracle.frames()) << sat::to_string(algo);
        for (std::int64_t t = 0; t < iv.frames(); ++t)
            EXPECT_EQ(iv.tables[static_cast<std::size_t>(t)],
                      oracle.tables[static_cast<std::size_t>(t)])
                << sat::to_string(algo) << " frame " << t;
    }
    // Macro-tiled per-frame SATs feed the same temporal accumulate.
    const auto tiled = sat::compute_integral_video<satgpu::u32, satgpu::u8>(
        eng, p, {}, sat::TileGeometry{.tile_h = 32, .tile_w = 32});
    for (std::int64_t t = 0; t < tiled.frames(); ++t)
        EXPECT_EQ(tiled.tables[static_cast<std::size_t>(t)],
                  oracle.tables[static_cast<std::size_t>(t)])
            << "tiled frame " << t;
}

TEST(IntegralVideo, NativeBackendBitExactWithSimulator)
{
    const auto frames = make_frames<satgpu::u8>(3, 33, 65, 5150);
    const auto p = ptrs_of(frames);
    simt::Engine eng({.record_history = false});
    const auto sim = sat::compute_integral_video<satgpu::u32, satgpu::u8>(
        eng, p, {.algorithm = sat::Algorithm::kBrltScanRow});
    const auto native = sat::compute_integral_video<satgpu::u32, satgpu::u8>(
        eng, p,
        {.algorithm = sat::Algorithm::kBrltScanRow,
         .backend = sat::Backend::kNative});
    ASSERT_EQ(sim.frames(), native.frames());
    for (std::int64_t t = 0; t < sim.frames(); ++t)
        EXPECT_EQ(sim.tables[static_cast<std::size_t>(t)],
                  native.tables[static_cast<std::size_t>(t)])
            << "frame " << t;
    // The native temporal passes carry no byte instrumentation; the sim
    // passes do.  (bench_stream's traffic proof runs the simulator.)
    EXPECT_GT(sat::device_bytes(sim.launches), 0u);
}

// ----------------------------------------------------- sliding windows ----

namespace {

/// After every push, the window aggregate must equal the serial oracle
/// over the frames currently in the window AND the recompute twin's
/// aggregate, bit for bit.
template <typename Tout, typename Tin>
void expect_stream_bit_exact(int num_threads, std::int64_t window,
                             std::int64_t h, std::int64_t w,
                             std::int64_t pushes, std::uint64_t seed)
{
    simt::Engine::Options eo{.record_history = false};
    eo.num_threads = num_threads;
    simt::Engine eng(eo);
    sat::SlidingWindowSat<Tout, Tin> inc(
        eng, window, h, w, {}, {}, sat::StreamUpdateMode::kIncremental);
    sat::SlidingWindowSat<Tout, Tin> rec(
        eng, window, h, w, {}, {}, sat::StreamUpdateMode::kRecompute);
    ASSERT_EQ(inc.mode(), sat::StreamUpdateMode::kIncremental);
    ASSERT_EQ(rec.mode(), sat::StreamUpdateMode::kRecompute);

    const auto frames = make_frames<Tin>(pushes, h, w, seed);
    for (std::int64_t t = 0; t < pushes; ++t) {
        inc.push(frames[static_cast<std::size_t>(t)]);
        rec.push(frames[static_cast<std::size_t>(t)]);
        ASSERT_EQ(inc.frames_pushed(), t + 1);
        ASSERT_EQ(inc.occupancy(), std::min(t + 1, window));

        std::vector<const Matrix<Tin>*> in_window;
        for (std::int64_t u = std::max<std::int64_t>(0, t - window + 1);
             u <= t; ++u)
            in_window.push_back(&frames[static_cast<std::size_t>(u)]);
        const Matrix<Tout> want = sat::window_sat_serial<Tout, Tin>(
            std::span<const Matrix<Tin>* const>(in_window));
        const Matrix<Tout> got = inc.window_table();
        ASSERT_EQ(got, want) << "threads=" << num_threads << " push " << t;
        ASSERT_EQ(got, rec.window_table())
            << "threads=" << num_threads << " push " << t;
    }
}

} // namespace

TEST(SlidingWindow, IncrementalEqualsRecomputeAndSerialAcrossThreadCounts)
{
    // Window 3 with 8 pushes wraps the ring twice; 29x34 exercises ragged
    // warp edges.
    for (const int threads : {1, 2, 7})
        expect_stream_bit_exact<satgpu::u32, satgpu::u8>(threads, 3, 29, 34,
                                                         8, 1234);
}

TEST(SlidingWindow, WiderDtypesAndFloatsStayBitExact)
{
    expect_stream_bit_exact<satgpu::i32, satgpu::i32>(1, 4, 21, 45, 9, 77);
    expect_stream_bit_exact<satgpu::f32, satgpu::f32>(1, 3, 16, 33, 7, 78);
    expect_stream_bit_exact<satgpu::f64, satgpu::f64>(1, 2, 17, 31, 5, 79);
}

TEST(SlidingWindow, DegenerateWindows)
{
    // T = 1: the aggregate is exactly the newest frame's SAT.
    simt::Engine eng({.record_history = false});
    const auto frames = make_frames<satgpu::u8>(3, 11, 19, 4242);
    sat::SlidingWindowSat<satgpu::u32, satgpu::u8> one(eng, 1, 11, 19);
    for (const auto& f : frames) {
        one.push(f);
        EXPECT_EQ(one.window_table(), sat::sat_serial<satgpu::u32>(f));
        EXPECT_EQ(one.occupancy(), 1);
    }
    // Single-row and single-column frames.
    expect_stream_bit_exact<satgpu::u32, satgpu::u8>(1, 3, 1, 67, 6, 91);
    expect_stream_bit_exact<satgpu::u32, satgpu::u8>(1, 3, 67, 1, 6, 92);
}

TEST(SlidingWindow, RingBytesTrackOccupancyAndMode)
{
    simt::Engine eng({.record_history = false});
    const std::int64_t h = 8, w = 16;
    sat::SlidingWindowSat<satgpu::u32, satgpu::u8> inc(
        eng, 4, h, w, {}, {}, sat::StreamUpdateMode::kIncremental);
    sat::SlidingWindowSat<satgpu::u32, satgpu::u8> rec(
        eng, 4, h, w, {}, {}, sat::StreamUpdateMode::kRecompute);
    EXPECT_EQ(inc.ring_bytes(), 0u);
    const auto frames = make_frames<satgpu::u8>(6, h, w, 7);
    for (std::size_t i = 0; i < frames.size(); ++i) {
        inc.push(frames[i]);
        rec.push(frames[i]);
        const auto occ = std::min<std::uint64_t>(i + 1, 4);
        // Incremental rings hold Tout SATs; recompute rings raw Tin frames.
        EXPECT_EQ(inc.ring_bytes(), occ * h * w * sizeof(satgpu::u32));
        EXPECT_EQ(rec.ring_bytes(), occ * h * w * sizeof(satgpu::u8));
    }
}

TEST(SlidingWindow, IncrementalMovesLessDeviceTrafficSteadyState)
{
    // The tentpole claim at test scale (bench_stream asserts it at 1024^2):
    // once the window is full, an incremental push must move >= T/2 x less
    // device traffic than the from-scratch recompute push.  T = 8 -> 4x.
    simt::Engine eng({.record_history = false});
    const std::int64_t window = 8, h = 64, w = 64;
    sat::SlidingWindowSat<satgpu::u32, satgpu::u8> inc(
        eng, window, h, w, {}, {}, sat::StreamUpdateMode::kIncremental);
    sat::SlidingWindowSat<satgpu::u32, satgpu::u8> rec(
        eng, window, h, w, {}, {}, sat::StreamUpdateMode::kRecompute);
    const auto frames = make_frames<satgpu::u8>(window + 2, h, w, 31);
    std::uint64_t inc_bytes = 0, rec_bytes = 0;
    for (std::size_t i = 0; i < frames.size(); ++i) {
        inc_bytes = sat::device_bytes(inc.push(frames[i]));
        rec_bytes = sat::device_bytes(rec.push(frames[i]));
    }
    ASSERT_GT(inc_bytes, 0u);
    EXPECT_GE(rec_bytes, 4 * inc_bytes)
        << "incremental " << inc_bytes << " vs recompute " << rec_bytes;
    EXPECT_EQ(inc.window_table(), rec.window_table());
}

// ------------------------------------------------------ mode resolution --

TEST(StreamMode, AutoFollowsTheTrafficForecast)
{
    const DtypePair dt{satgpu::Dtype::u8_, satgpu::Dtype::u32_};
    // T = 1: one fused update costs more than one plain accumulate, so the
    // forecast sends it down the recompute path.
    EXPECT_EQ(sat::resolve_stream_mode(sat::StreamUpdateMode::kAuto, dt, 64,
                                       64, 1),
              sat::StreamUpdateMode::kRecompute);
    for (const std::int64_t t : {2, 4, 8, 32})
        EXPECT_EQ(sat::resolve_stream_mode(sat::StreamUpdateMode::kAuto, dt,
                                           64, 64, t),
                  sat::StreamUpdateMode::kIncremental)
            << t;
    // Explicit modes pass through untouched.
    EXPECT_EQ(sat::resolve_stream_mode(sat::StreamUpdateMode::kRecompute,
                                       dt, 64, 64, 8),
              sat::StreamUpdateMode::kRecompute);
}

TEST(StreamMode, ForecastAdvantageScalesWithWindow)
{
    const DtypePair dt{satgpu::Dtype::u8_, satgpu::Dtype::u32_};
    for (const std::int64_t t : {2, 4, 8, 16}) {
        const auto f = model::predict_stream_traffic(dt, 1024, 1024, t);
        // recompute / incremental >= T/2 is the documented bound
        // bench_stream asserts with measured counters.
        EXPECT_GE(f.recompute_bytes,
                  static_cast<double>(t) / 2.0 * f.incremental_bytes)
            << t;
    }
}

// ------------------------------------------------------- golden values ---

TEST(IntegralVideoGolden, ChecksumsPinAbsoluteValues)
{
    // FNV-1a over the full tables for fixed (seed, shape) streams,
    // captured from the current implementation (same idiom as SatGolden).
    simt::Engine eng({.record_history = false});
    const auto frames = make_frames<satgpu::u8>(4, 37, 53, 20240);
    const auto p = ptrs_of(frames);
    const auto iv = sat::compute_integral_video<satgpu::u32, satgpu::u8>(
        eng, p);
    ASSERT_EQ(iv.frames(), 4);
    EXPECT_EQ(table_checksum(iv.tables[0]), 0xe7dc0515d047f8faull);
    EXPECT_EQ(table_checksum(iv.tables[3]), 0xc821c9de1b69eab7ull);

    sat::SlidingWindowSat<satgpu::u32, satgpu::u8> win(eng, 3, 37, 53);
    for (const auto& f : frames)
        win.push(f);
    EXPECT_EQ(table_checksum(win.window_table()), 0x7998f8c919432f52ull);
}

// ------------------------------------------------------- service layer ---

TEST(StreamSession, PushQueryAndObservabilityThroughService)
{
    obs::TraceSink trace;
    sat::Service::Options so;
    so.workers = 1;
    so.trace = &trace;
    so.virtual_time = true;
    sat::Service svc(so);

    auto session = svc.open_stream({.height = 24,
                                    .width = 40,
                                    .window = 3,
                                    .algorithm = sat::Algorithm::kAuto});
    ASSERT_NE(session, nullptr);
    EXPECT_EQ(session->mode(), sat::StreamUpdateMode::kIncremental);
    EXPECT_NE(session->algorithm(), sat::Algorithm::kAuto);
    EXPECT_NE(session->label().find("/stream=3/incremental"),
              std::string::npos)
        << session->label();

    const auto frames = make_frames<satgpu::u8>(5, 24, 40, 606);
    for (const auto& f : frames)
        session->push(sat::AnyMatrix(f));
    EXPECT_EQ(session->frames_pushed(), 5);
    EXPECT_GT(session->last_push_bytes(), 0u);
    EXPECT_EQ(session->ring_bytes(), 3u * 24 * 40 * sizeof(satgpu::u32));

    // The aggregate equals the serial oracle over the last 3 frames.
    std::vector<const Matrix<satgpu::u8>*> tail = {&frames[2], &frames[3],
                                                   &frames[4]};
    const auto want = sat::window_sat_serial<satgpu::u32, satgpu::u8>(
        std::span<const Matrix<satgpu::u8>* const>(tail));
    EXPECT_EQ(session->window_table().as<satgpu::u32>(), want);
    EXPECT_EQ(session->window_sum(0, 0, 23, 39),
              static_cast<double>(sat::rect_sum(want, 0, 0, 23, 39)));

    // Metric series exist under the session label; spans were recorded.
    const std::string text = svc.metrics_text();
    EXPECT_NE(text.find("satgpu_service_stream_frames_total"),
              std::string::npos);
    EXPECT_NE(text.find(session->label()), std::string::npos);
    EXPECT_EQ(trace.span_count(), 5u); // one plan.execute span per push
    EXPECT_EQ(trace.wave_count(), 5u);
}

TEST(StreamSession, WindowSumClampsOutOfRangeRectangles)
{
    // A query rectangle is user input: the part inside the frame is
    // summed, and an empty or reversed rectangle sums to 0 (the rule
    // IntegralHistogram::region follows) -- it must not abort.
    sat::Service svc;
    auto session = svc.open_stream({.height = 64, .width = 64, .window = 2});
    const auto frames = make_frames<satgpu::u8>(3, 64, 64, 77);
    for (const auto& f : frames)
        session->push(sat::AnyMatrix(f));
    std::vector<const Matrix<satgpu::u8>*> tail = {&frames[1], &frames[2]};
    const auto want = sat::window_sat_serial<satgpu::u32, satgpu::u8>(
        std::span<const Matrix<satgpu::u8>* const>(tail));
    const auto sum = [&](std::int64_t y0, std::int64_t x0, std::int64_t y1,
                         std::int64_t x1) {
        return static_cast<double>(sat::rect_sum(want, y0, x0, y1, x1));
    };
    EXPECT_EQ(session->window_sum(0, 0, 64, 63), sum(0, 0, 63, 63));
    EXPECT_EQ(session->window_sum(-5, 10, 20, 1000), sum(0, 10, 20, 63));
    EXPECT_EQ(session->window_sum(3, -7, 40, 12), sum(3, 0, 40, 12));
    EXPECT_EQ(session->window_sum(10, 10, 9, 20), 0.0);  // reversed rows
    EXPECT_EQ(session->window_sum(10, 30, 20, 29), 0.0); // reversed cols
    EXPECT_EQ(session->window_sum(64, 0, 70, 63), 0.0);  // wholly below
    EXPECT_EQ(session->window_sum(-9, -9, -1, 5), 0.0);  // wholly above
}

TEST(StreamSession, RequestTrafficAndStreamsShareOneService)
{
    sat::Service svc;
    auto session = svc.open_stream(
        {.height = 16, .width = 16, .window = 2});
    auto fut = svc.submit(sat::AnyMatrix::random(satgpu::Dtype::u8_, 16, 16,
                                                 9),
                          satgpu::Dtype::u32_);
    session->push(sat::AnyMatrix::random(satgpu::Dtype::u8_, 16, 16, 10));
    const auto table = fut.get();
    EXPECT_EQ(table.dtype(), satgpu::Dtype::u32_);
    EXPECT_EQ(session->frames_pushed(), 1);
}
