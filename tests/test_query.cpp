// Tests for the fused SAT-consumer query pipeline (sat/query.hpp,
// Runtime::plan_query, docs/fused_queries.md): spec grammar round-trips,
// halo rules, bit-exact agreement of the fused tiled pipeline AND the
// materialize-then-consume path with the serial query oracle across specs,
// dtype pairs, and geometries, QueryMode::kAuto resolution against the
// closed-form traffic forecast, hazard-free execution under the checker,
// pooled-workspace bounds, native-backend certification, golden checks
// against the example workloads' own host loops, and the service-layer
// integration (plan-cache keys, submit, waves).
#include "core/random_fill.hpp"
#include "model/cost_model.hpp"
#include "sat/cpu_reference.hpp"
#include "sat/integral_histogram.hpp"
#include "sat/query.hpp"
#include "sat/runtime.hpp"
#include "sat/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

// Counting replacement of the global allocator for this test binary: the
// native fused consumer must not allocate per block
// (QueryNative.FusedConsumerAllocatesNothingPerBlock).
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
} // namespace

// GCC flags free() of what it sees inlined as an operator-new pointer;
// malloc/free is exactly the pairing these replacements define.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t n)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}
// The nothrow form too (std::stable_sort's temporary buffer uses it), so
// every pointer the replaced deletes free() came from malloc.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace sat = satgpu::sat;
namespace simt = satgpu::simt;
namespace model = satgpu::model;
using satgpu::Dtype;
using satgpu::DtypePair;
using satgpu::Matrix;

namespace {

// Ragged, non-multiple-of-32 shape (same as test_runtime.cpp): a 64x64
// macro tile grid over it is 2x3 with three distinct ragged edge shapes.
constexpr std::int64_t kH = 97;
constexpr std::int64_t kW = 130;

const sat::QuerySpec kSpecs[] = {
    sat::QuerySpec{sat::BoxFilterSpec{4}},
    sat::QuerySpec{sat::AdaptiveThresholdSpec{6, 0.9}},
    sat::QuerySpec{sat::WindowSumSpec{5, 9}},
    sat::QuerySpec{sat::RegionHistogramSpec{8, 3}},
};

sat::Runtime& shared_runtime()
{
    static sat::Runtime rt({.record_history = false});
    return rt;
}

} // namespace

// ------------------------------------------------------------ spec layer ----

TEST(QuerySpec, LabelParseRoundTrip)
{
    for (const auto& q : kSpecs) {
        const std::string label = sat::query_label(q);
        const auto back = sat::parse_query_spec(label);
        ASSERT_TRUE(back.has_value()) << label;
        EXPECT_EQ(*back, q) << label;
    }
    // monostate round-trips through the empty label and "none".
    EXPECT_EQ(sat::query_label(sat::QuerySpec{}), "");
    EXPECT_EQ(sat::parse_query_spec(""), sat::QuerySpec{});
    EXPECT_EQ(sat::parse_query_spec("none"), sat::QuerySpec{});
    // A bare thresh radius takes the default fraction.
    const auto bare = sat::parse_query_spec("thresh:r=7");
    ASSERT_TRUE(bare.has_value());
    EXPECT_EQ(std::get<sat::AdaptiveThresholdSpec>(*bare).radius, 7);
}

TEST(QuerySpec, ParseRejectsMalformedInput)
{
    for (const char* bad :
         {"box", "box:r=", "box:r=4x", "box:r=4,", "thresh:f=0.5",
          "wsum:h=8", "wsum:h=8,w=", "hist:b=8", "hist:r=4,b=8", "box:r=4 ",
          "unknown:r=1"})
        EXPECT_FALSE(sat::parse_query_spec(bad).has_value()) << bad;
}

TEST(QuerySpec, HaloMatchesWindowReach)
{
    const auto box = sat::query_halo(sat::QuerySpec{sat::BoxFilterSpec{4}});
    EXPECT_EQ(box.top, 4);
    EXPECT_EQ(box.left, 4);
    EXPECT_EQ(box.bottom, 4);
    EXPECT_EQ(box.right, 4);
    // Anchored windows only reach down and right.
    const auto ws =
        sat::query_halo(sat::QuerySpec{sat::WindowSumSpec{5, 9}});
    EXPECT_EQ(ws.top, 0);
    EXPECT_EQ(ws.left, 0);
    EXPECT_EQ(ws.bottom, 4);
    EXPECT_EQ(ws.right, 8);
}

TEST(QuerySpec, OutputDtypeAndHeight)
{
    EXPECT_EQ(sat::query_out_dtype(kSpecs[0], Dtype::u32_), Dtype::f32_);
    EXPECT_EQ(sat::query_out_dtype(kSpecs[1], Dtype::i32_), Dtype::u8_);
    EXPECT_EQ(sat::query_out_dtype(kSpecs[2], Dtype::f64_), Dtype::f64_);
    EXPECT_EQ(sat::query_out_dtype(kSpecs[3], Dtype::u32_), Dtype::u32_);
    EXPECT_EQ(sat::query_out_height(kSpecs[3], kH), 8 * kH);
    EXPECT_EQ(sat::query_out_height(kSpecs[0], kH), kH);
}

// -------------------------------------------- fused vs oracle, all specs ----

namespace {

/// Plan `q` under `mode` on `dt` and demand bit-exact agreement with the
/// serial query oracle, for a tiled and the untiled-request geometry.
void expect_query_exact(DtypePair dt, const sat::QuerySpec& q,
                        sat::QueryMode mode)
{
    sat::Runtime& rt = shared_runtime();
    const auto image = sat::AnyMatrix::random(dt.in, kH, kW, /*seed=*/11);
    const auto want = rt.query_reference(image, dt.out, q);
    for (const sat::TileGeometry tile :
         {sat::TileGeometry{64, 64}, sat::TileGeometry{}}) {
        const auto plan = rt.plan_query({.height = kH,
                                         .width = kW,
                                         .dtypes = dt,
                                         .tile = tile,
                                         .query = q,
                                         .query_mode = mode});
        const auto res = plan.execute(image);
        EXPECT_EQ(res.table.dtype(), sat::query_out_dtype(q, dt.out));
        EXPECT_TRUE(res.table == want)
            << sat::query_label(q) << " " << pair_name(dt) << " mode "
            << sat::to_string(mode) << (tile.enabled() ? " tiled" : "");
    }
}

} // namespace

TEST(QueryRuntime, FusedMatchesOracleAllSpecs)
{
    const DtypePair pair{Dtype::u8_, Dtype::u32_};
    for (const auto& q : kSpecs)
        expect_query_exact(pair, q, sat::QueryMode::kFused);
}

TEST(QueryRuntime, MaterializedMatchesOracleAllSpecs)
{
    const DtypePair pair{Dtype::u8_, Dtype::u32_};
    for (const auto& q : kSpecs)
        expect_query_exact(pair, q, sat::QueryMode::kMaterialize);
}

TEST(QueryRuntime, EveryPaperPairServesNonHistQueries)
{
    for (const DtypePair dt : satgpu::kPaperDtypePairs)
        for (std::size_t i = 0; i < 3; ++i) { // hist needs 8u -> 32u
            expect_query_exact(dt, kSpecs[i], sat::QueryMode::kFused);
            expect_query_exact(dt, kSpecs[i], sat::QueryMode::kMaterialize);
        }
}

TEST(QueryRuntime, LargeHaloStillExactWhenItSwallowsTheTile)
{
    // r=70 halo > the 64x64 tile: every extended tile is most of the
    // 97x130 image.  Extended tiles stay at most 130 columns wide, so the
    // single-pass tile SAT still covers them (the wide-tile fallback is
    // FusedWideTileFallbackIsExactAndWithinWorkspace's case).
    const sat::QuerySpec q{sat::BoxFilterSpec{70}};
    expect_query_exact({Dtype::u8_, Dtype::u32_}, q, sat::QueryMode::kFused);
}

TEST(QueryRuntime, FusedWideTileFallbackIsExactAndWithinWorkspace)
{
    // An extended tile wider than the single-pass tile SAT covers (1024
    // columns for 4-byte sums, 512 for 8-byte ones) takes the plan
    // algorithm's multi-kernel local-SAT fallback inside the fused path.
    // Its output must stay bit-exact, and its pooled build must stay
    // within the plan's workspace_bytes, whose !fits term prices it.
    struct Case {
        DtypePair dt;
        std::int64_t h, w;
        sat::TileGeometry tile;
        sat::QuerySpec q;
    };
    const Case cases[] = {
        // First tile extends to 1024 + 8 = 1032 columns > 1024.
        {{Dtype::u8_, Dtype::u32_}, 40, 1100, {64, 1024},
         sat::QuerySpec{sat::BoxFilterSpec{8}}},
        // First tile extends to 512 + 4 = 516 columns > 512.
        {{Dtype::f64_, Dtype::f64_}, 40, 700, {32, 512},
         sat::QuerySpec{sat::WindowSumSpec{3, 5}}},
    };
    for (const Case& c : cases) {
        const auto image = sat::AnyMatrix::random(c.dt.in, c.h, c.w, 21);
        for (const auto backend : {sat::Backend::kSim, sat::Backend::kNative}) {
            // Fresh runtime so the partition high-water is this plan's.
            sat::Runtime rt({.record_history = false});
            const auto want = rt.query_reference(image, c.dt.out, c.q);
            const auto plan = rt.plan_query(
                {.height = c.h,
                 .width = c.w,
                 .dtypes = c.dt,
                 .algorithm = sat::Algorithm::kBrltScanRow,
                 .tile = c.tile,
                 .backend = backend,
                 .query = c.q,
                 .query_mode = sat::QueryMode::kFused});
            ASSERT_TRUE(plan.query_fused());
            ASSERT_EQ(plan.backend(), backend);
            const auto res = plan.execute(image);
            EXPECT_TRUE(res.table == want)
                << sat::query_label(c.q) << " " << pair_name(c.dt) << " "
                << sat::to_string(backend);
            EXPECT_LE(rt.pool().high_water_bytes(/*partition=*/0),
                      static_cast<std::uint64_t>(plan.workspace_bytes()))
                << sat::query_label(c.q) << " " << sat::to_string(backend);
            // The fallback runs the plan algorithm's kernels.
            bool fallback = false;
            for (const auto& l : res.launches)
                fallback = fallback || l.info.name == "brlt_scanrow";
            EXPECT_TRUE(fallback)
                << sat::query_label(c.q) << " " << sat::to_string(backend);
        }
    }
}

TEST(QueryHistogram, RegionQueryEqualsIntegralHistogramRegion)
{
    // Both histogram APIs bin with bin_of through one bin-mask kernel, so
    // for dividing and ragged bin counts the region-histogram query at
    // every pixel equals IntegralHistogram::region over that pixel's
    // clamped window, and both equal the serial oracle -- fused and
    // materialized, on the simulator and natively.
    const std::int64_t h = 45, w = 71, r = 3;
    Matrix<satgpu::u8> img(h, w);
    satgpu::fill_random(img, 4242, satgpu::u8{0}, satgpu::u8{255});
    const sat::AnyMatrix image(img);
    sat::Runtime& rt = shared_runtime();
    for (const int bins : {5, 8, 48}) {
        const sat::RegionHistogramSpec spec{bins, r};
        const auto oracle = sat::query_serial_hist(img, spec);
        const auto ih = sat::integral_histogram_batched(rt, img, bins);
        for (std::int64_t y = 0; y < h; ++y)
            for (std::int64_t x = 0; x < w; ++x) {
                const auto counts = ih.region(y - r, x - r, y + r, x + r);
                for (int b = 0; b < bins; ++b)
                    ASSERT_EQ(counts[static_cast<std::size_t>(b)],
                              oracle(std::int64_t{b} * h + y, x))
                        << bins << " bins, bin " << b << " at " << y << ","
                        << x;
            }
        for (const auto backend : {sat::Backend::kSim, sat::Backend::kNative})
            for (const auto mode :
                 {sat::QueryMode::kFused, sat::QueryMode::kMaterialize}) {
                const auto plan = rt.plan_query({.height = h,
                                                 .width = w,
                                                 .dtypes = {Dtype::u8_,
                                                            Dtype::u32_},
                                                 .tile = {32, 32},
                                                 .backend = backend,
                                                 .query = spec,
                                                 .query_mode = mode});
                ASSERT_EQ(plan.backend(), backend);
                EXPECT_TRUE(plan.execute(image).table.as<satgpu::u32>() ==
                            oracle)
                    << bins << " bins " << sat::to_string(mode) << " "
                    << sat::to_string(backend);
            }
    }
}

// ------------------------------------------------------- kAuto resolution ----

TEST(QueryRuntime, AutoModePicksFusedForSmallHalos)
{
    sat::Runtime& rt = shared_runtime();
    const auto plan = rt.plan_query({.height = 512,
                                     .width = 512,
                                     .dtypes = {Dtype::u8_, Dtype::u32_},
                                     .query = kSpecs[0]});
    EXPECT_TRUE(plan.query_fused());
    // A fused plan always reports the tile geometry it will run under.
    EXPECT_TRUE(plan.tile().enabled());
    const auto t = model::predict_query_traffic(
        kSpecs[0], {Dtype::u8_, Dtype::u32_}, 512, 512,
        plan.tile().tile_h, plan.tile().tile_w);
    EXPECT_LT(t.fused_bytes, t.materialized_bytes);
}

TEST(QueryRuntime, AutoModePicksMaterializeWhenTheHaloDominates)
{
    // A 400x400 anchored window over 64x64 tiles inflates every extended
    // tile to ~the whole image; the forecast must flip to materialize.
    sat::Runtime& rt = shared_runtime();
    const sat::QuerySpec q{sat::WindowSumSpec{400, 400}};
    const auto plan = rt.plan_query({.height = 512,
                                     .width = 512,
                                     .dtypes = {Dtype::u8_, Dtype::u32_},
                                     .tile = {64, 64},
                                     .query = q});
    EXPECT_FALSE(plan.query_fused());
    const auto t = model::predict_query_traffic(
        q, {Dtype::u8_, Dtype::u32_}, 512, 512, 64, 64);
    EXPECT_GT(t.fused_bytes, t.materialized_bytes);
}

// ------------------------------------------- hazards, workspace, backend ----

TEST(QueryRuntime, FusedPipelineIsHazardFreeUnderTheChecker)
{
    sat::Runtime rt({.record_history = false});
    const auto image =
        sat::AnyMatrix::random(Dtype::u8_, kH, kW, /*seed=*/5);
    for (const auto& q : kSpecs) {
        const auto plan = rt.plan_query({.height = kH,
                                         .width = kW,
                                         .dtypes = {Dtype::u8_, Dtype::u32_},
                                         .tile = {64, 64},
                                         .check = true,
                                         .query = q,
                                         .query_mode =
                                             sat::QueryMode::kFused});
        const auto res = plan.execute(image);
        EXPECT_EQ(simt::total_hazards(res.launches), 0u)
            << sat::query_label(q);
    }
}

TEST(QueryRuntime, PoolHighWaterStaysWithinTheWorkspaceBound)
{
    // Fresh runtime so the partition high-water is this plan's alone.
    for (const auto mode :
         {sat::QueryMode::kFused, sat::QueryMode::kMaterialize}) {
        for (const auto& q : kSpecs) {
            sat::Runtime rt({.record_history = false});
            const auto plan =
                rt.plan_query({.height = kH,
                               .width = kW,
                               .dtypes = {Dtype::u8_, Dtype::u32_},
                               .tile = {64, 64},
                               .query = q,
                               .query_mode = mode});
            const auto image =
                sat::AnyMatrix::random(Dtype::u8_, kH, kW, /*seed=*/3);
            (void)plan.execute(image);
            EXPECT_LE(rt.pool().high_water_bytes(/*partition=*/0),
                      static_cast<std::uint64_t>(plan.workspace_bytes()))
                << sat::query_label(q) << " mode " << sat::to_string(mode);
        }
    }
}

TEST(QueryRuntime, NativeBackendCertifiesAndMatchesTheSimulator)
{
    sat::Runtime& rt = shared_runtime();
    const auto image =
        sat::AnyMatrix::random(Dtype::u8_, kH, kW, /*seed=*/13);
    for (const auto& q : kSpecs) {
        const auto want = rt.query_reference(image, Dtype::u32_, q);
        const auto plan = rt.plan_query({.height = kH,
                                         .width = kW,
                                         .dtypes = {Dtype::u8_, Dtype::u32_},
                                         .backend = sat::Backend::kNative,
                                         .query = q,
                                         .query_mode =
                                             sat::QueryMode::kFused});
        EXPECT_EQ(plan.backend(), sat::Backend::kNative)
            << sat::query_label(q);
        EXPECT_TRUE(plan.certified()) << sat::query_label(q);
        EXPECT_TRUE(plan.execute(image).table == want)
            << sat::query_label(q);
    }
}

// ------------------------------------------ native fused-query coverage ----

TEST(QueryNative, FusedMatchesOracleOnEveryEdgeCase)
{
    // Every spec, fused on the native backend, against the serial oracle:
    // degenerate and ragged shapes, radii from 0 to larger than a tile
    // (r = 70: halo-dominated extended tiles), anchored windows that hang
    // off the right and bottom edges, and a small and the default tile.
    // Together they hit the ring's zero column and zero row (the -1
    // corner) on the top/left image edges and the clamped corners on the
    // bottom/right ones.
    sat::Runtime& rt = shared_runtime();
    const DtypePair dt{Dtype::u8_, Dtype::u32_};
    std::vector<sat::QuerySpec> specs;
    for (const int r : {0, 1, 4, 70}) {
        specs.emplace_back(sat::BoxFilterSpec{r});
        specs.emplace_back(sat::AdaptiveThresholdSpec{r, 0.9});
        specs.emplace_back(sat::RegionHistogramSpec{4, r});
    }
    for (const auto& [wh, ww] : {std::pair{1, 1}, std::pair{5, 9},
                                 std::pair{40, 3}, std::pair{2, 400},
                                 std::pair{300, 70}})
        specs.emplace_back(sat::WindowSumSpec{wh, ww});
    for (const auto& [h, w] :
         {std::pair<std::int64_t, std::int64_t>{1, 1}, {1, 300}, {33, 31},
          {257, 65}, {97, 130}}) {
        const auto image =
            sat::AnyMatrix::random(dt.in, h, w, /*seed=*/static_cast<std::uint64_t>(h * w));
        for (const auto& q : specs) {
            const auto want = rt.query_reference(image, dt.out, q);
            for (const sat::TileGeometry tile :
                 {sat::TileGeometry{64, 64}, sat::TileGeometry{}}) {
                const auto plan = rt.plan_query(
                    {.height = h,
                     .width = w,
                     .dtypes = dt,
                     .algorithm = sat::Algorithm::kBrltScanRow,
                     .tile = tile,
                     .backend = sat::Backend::kNative,
                     .query = q,
                     .query_mode = sat::QueryMode::kFused});
                ASSERT_EQ(plan.backend(), sat::Backend::kNative);
                ASSERT_TRUE(plan.query_fused());
                EXPECT_TRUE(plan.execute(image).table == want)
                    << sat::query_label(q) << " " << h << "x" << w
                    << (tile.enabled() ? " tile 64" : " default tile");
            }
        }
    }
}

TEST(QueryNative, FusedConsumerAllocatesNothingPerBlock)
{
    // Drive the consumer kernel directly over one 64 x 256 local SAT: a
    // 2-band tile and four 8-band tiles.  After a warm-up launch (the
    // executor slot's scratch grows once), a launch of 32 blocks must
    // allocate exactly what a launch of 2 blocks does -- i.e. nothing per
    // block.
    using satgpu::f32;
    using satgpu::u32;
    using satgpu::u8;
    constexpr std::int64_t kRows = 64, kCols = 256;
    Matrix<u8> img(kRows, kCols);
    satgpu::fill_random(img, 17);
    const auto sat_buf =
        simt::DeviceBuffer<u32>::adopt(sat::sat_serial<u32>(img));
    simt::DeviceBuffer<f32> out(kRows * kCols);
    const sat::BoxFilterSpec spec{4};
    const sat::detail::ExtRect ext{0, 0, kRows, kCols};
    using Job = sat::detail::ConsumerJob<u32, u8, f32>;
    const auto job = [&](std::int64_t y0, std::int64_t h, std::int64_t w) {
        return Job{&sat_buf, nullptr, &out, kRows, kCols,
                   satgpu::sat::TileGrid::Rect{y0, 0, h, w}, ext, 0};
    };
    const std::vector<Job> small{job(0, kRows, 64)};
    const std::vector<Job> large{job(0, 16, kCols), job(16, 16, kCols),
                                 job(32, 16, kCols), job(48, 16, kCols)};
    simt::Engine eng({.record_history = false, .num_threads = 1});
    const auto allocs_of = [&](const std::vector<Job>& jobs) {
        const std::uint64_t before = g_heap_allocs.load();
        const auto stats = sat::detail::launch_query_consumer(
            eng, std::span<const Job>(jobs), spec, /*native=*/true);
        const std::uint64_t n = g_heap_allocs.load() - before;
        EXPECT_EQ(stats.counters.blocks,
                  jobs.size() * static_cast<std::size_t>(
                                    satgpu::ceil_div(jobs[0].rect.w,
                                                     std::int64_t{32})));
        return n;
    };
    (void)allocs_of(large); // warm-up
    const std::uint64_t few = allocs_of(small);
    const std::uint64_t many = allocs_of(large);
    EXPECT_EQ(many, few);

    // The launches computed the box filter over the whole image.
    const auto want = sat::query_serial<u32>(img, spec);
    EXPECT_EQ(std::move(out).release_matrix(kRows, kCols), want);
}

TEST(QueryRuntime, WaveExecutionMatchesPerImageExecution)
{
    sat::Runtime& rt = shared_runtime();
    std::vector<sat::AnyMatrix> images;
    std::vector<const sat::AnyMatrix*> ptrs;
    for (std::uint64_t s = 0; s < 3; ++s)
        images.push_back(sat::AnyMatrix::random(Dtype::u8_, kH, kW, 40 + s));
    for (const auto& img : images)
        ptrs.push_back(&img);
    const auto plan = rt.plan_query({.height = kH,
                                     .width = kW,
                                     .dtypes = {Dtype::u8_, Dtype::u32_},
                                     .tile = {64, 64},
                                     .query = kSpecs[0]});
    const auto wave = plan.execute_wave(ptrs);
    ASSERT_EQ(wave.tables.size(), images.size());
    for (std::size_t i = 0; i < images.size(); ++i)
        EXPECT_TRUE(wave.tables[i] ==
                    rt.query_reference(images[i], Dtype::u32_, kSpecs[0]))
            << "image " << i;
}

// ------------------------------------------------- example golden checks ----

TEST(QueryGolden, BoxFilterMatchesTheHostWindowMean)
{
    // examples/box_filter.cpp's host loop -- the mean over the clamped
    // (2r+1)^2 window -- against the serial box oracle, which both plan
    // paths reproduce bit for bit (QueryRuntime tests above).
    sat::Runtime& rt = shared_runtime();
    Matrix<satgpu::u8> img(64, 96);
    satgpu::fill_random(img, 91, satgpu::u8{0}, satgpu::u8{255});
    const sat::AnyMatrix image(img);
    const auto blurred =
        rt.query_reference(image, Dtype::u32_,
                           sat::QuerySpec{sat::BoxFilterSpec{5}});
    for (std::int64_t y : {0L, 31L, 63L})
        for (std::int64_t x : {0L, 47L, 95L}) {
            double sum = 0;
            std::int64_t cnt = 0;
            for (std::int64_t dy = -5; dy <= 5; ++dy)
                for (std::int64_t dx = -5; dx <= 5; ++dx)
                    if (img.in_bounds(y + dy, x + dx)) {
                        sum += img(y + dy, x + dx);
                        ++cnt;
                    }
            EXPECT_NEAR(blurred.as<satgpu::f32>()(y, x),
                        sum / static_cast<double>(cnt), 1e-4)
                << y << "," << x;
        }

    // r = 0 degenerates to the 1x1 window: every path outputs a defined
    // copy of the image, never a divide-by-zero feeding NaNs.
    const sat::QuerySpec r0{sat::BoxFilterSpec{0}};
    Matrix<satgpu::f32> copy(img.height(), img.width());
    for (std::int64_t y = 0; y < img.height(); ++y)
        for (std::int64_t x = 0; x < img.width(); ++x)
            copy(y, x) = static_cast<satgpu::f32>(img(y, x));
    EXPECT_EQ(rt.query_reference(image, Dtype::u32_, r0).as<satgpu::f32>(),
              copy);
    for (const auto mode : {sat::QueryMode::kFused,
                            sat::QueryMode::kMaterialize}) {
        const auto plan = rt.plan_query({.height = img.height(),
                                         .width = img.width(),
                                         .dtypes = {Dtype::u8_, Dtype::u32_},
                                         .tile = {64, 64},
                                         .query = r0,
                                         .query_mode = mode});
        EXPECT_EQ(plan.execute(image).table.as<satgpu::f32>(), copy)
            << sat::to_string(mode);
    }
}

TEST(QueryGolden, AdaptiveThresholdMatchesTheBradleyRothLoop)
{
    // Host loop mirrored from examples/adaptive_threshold.cpp.
    sat::Runtime& rt = shared_runtime();
    Matrix<satgpu::u8> img(kH, kW);
    satgpu::fill_random(img, 73, satgpu::u8{0}, satgpu::u8{255});
    constexpr std::int64_t r = 12;
    constexpr double frac = 0.80;

    simt::Engine eng({.record_history = false});
    const auto table =
        sat::compute_sat<satgpu::u32>(eng, img,
                                      {sat::Algorithm::kBrltScanRow})
            .table;
    Matrix<satgpu::u8> want(kH, kW);
    for (std::int64_t y = 0; y < kH; ++y)
        for (std::int64_t x = 0; x < kW; ++x) {
            const auto y0 = std::max<std::int64_t>(0, y - r);
            const auto x0 = std::max<std::int64_t>(0, x - r);
            const auto y1 = std::min(kH - 1, y + r);
            const auto x1 = std::min(kW - 1, x + r);
            const double mean =
                static_cast<double>(sat::rect_sum(table, y0, x0, y1, x1)) /
                static_cast<double>((y1 - y0 + 1) * (x1 - x0 + 1));
            want(y, x) =
                static_cast<double>(img(y, x)) < mean * frac ? 1 : 0;
        }

    const auto plan = rt.plan_query(
        {.height = kH,
         .width = kW,
         .dtypes = {Dtype::u8_, Dtype::u32_},
         .tile = {64, 64},
         .query = sat::QuerySpec{sat::AdaptiveThresholdSpec{r, frac}},
         .query_mode = sat::QueryMode::kFused});
    const auto res = plan.execute(sat::AnyMatrix(img));
    EXPECT_EQ(res.table.as<satgpu::u8>(), want);
}

TEST(QueryGolden, WindowSumOfSquaresMatchesTemplateMatchingEnergy)
{
    // examples/template_matching.cpp's per-window energy is the anchored
    // window sum over the SQUARED image: run the wsum query on x^2.
    sat::Runtime& rt = shared_runtime();
    Matrix<satgpu::u8> img(kH, kW);
    satgpu::fill_random(img, 79);
    constexpr std::int64_t th = 8, tw = 12;
    Matrix<satgpu::u32> sq(kH, kW);
    for (std::int64_t y = 0; y < kH; ++y)
        for (std::int64_t x = 0; x < kW; ++x)
            sq(y, x) = static_cast<satgpu::u32>(img(y, x)) *
                       static_cast<satgpu::u32>(img(y, x));

    const auto plan = rt.plan_query(
        {.height = kH,
         .width = kW,
         .dtypes = {Dtype::u32_, Dtype::u32_},
         .tile = {64, 64},
         .query = sat::QuerySpec{sat::WindowSumSpec{th, tw}},
         .query_mode = sat::QueryMode::kFused});
    const auto res = plan.execute(sat::AnyMatrix(sq));
    const auto& energy = res.table.as<satgpu::u32>();

    for (std::int64_t y = 0; y + th <= kH; y += 13)
        for (std::int64_t x = 0; x + tw <= kW; x += 17) {
            satgpu::u32 want = 0;
            for (std::int64_t dy = 0; dy < th; ++dy)
                for (std::int64_t dx = 0; dx < tw; ++dx)
                    want += sq(y + dy, x + dx);
            ASSERT_EQ(energy(y, x), want) << y << "," << x;
        }
    // Windows that do not fit are defined zero.
    EXPECT_EQ(energy(kH - 1, 0), 0u);
    EXPECT_EQ(energy(0, kW - 1), 0u);
}

TEST(QueryGolden, HaarEdgeFeatureIsADifferenceOfWindowSums)
{
    // examples/haar_features.cpp's edge feature: top (h x w) window minus
    // the (h x w) window anchored h rows below -- two reads of ONE wsum
    // query output, no second plan needed.
    sat::Runtime& rt = shared_runtime();
    Matrix<satgpu::u8> img(kH, kW);
    satgpu::fill_random(img, 87, satgpu::u8{0}, satgpu::u8{255});
    constexpr std::int64_t fh = 6, fw = 10;

    simt::Engine eng({.record_history = false});
    const auto table =
        sat::compute_sat<satgpu::i32>(eng, img,
                                      {sat::Algorithm::kBrltScanRow})
            .table;

    const auto plan = rt.plan_query(
        {.height = kH,
         .width = kW,
         .dtypes = {Dtype::u8_, Dtype::i32_},
         .tile = {64, 64},
         .query = sat::QuerySpec{sat::WindowSumSpec{fh, fw}},
         .query_mode = sat::QueryMode::kFused});
    const auto res = plan.execute(sat::AnyMatrix(img));
    const auto& wsum = res.table.as<satgpu::i32>();

    for (std::int64_t y = 0; y + 2 * fh <= kH; y += 11)
        for (std::int64_t x = 0; x + fw <= kW; x += 19) {
            const auto top =
                sat::rect_sum(table, y, x, y + fh - 1, x + fw - 1);
            const auto bottom = sat::rect_sum(table, y + fh, x,
                                              y + 2 * fh - 1, x + fw - 1);
            ASSERT_EQ(wsum(y, x) - wsum(y + fh, x), top - bottom)
                << y << "," << x;
        }
}

// -------------------------------------------------------- service layer ----

TEST(QueryService, PlanKeySeparatesQueriesFromPlainSats)
{
    sat::PlanRequest plain{.height = kH, .width = kW};
    sat::PlanRequest boxed = plain;
    boxed.query = kSpecs[0];
    sat::PlanRequest modal = boxed;
    modal.query_mode = sat::QueryMode::kMaterialize;

    const auto kp = sat::plan_key(plain);
    const auto kb = sat::plan_key(boxed);
    const auto km = sat::plan_key(modal);
    EXPECT_FALSE(kp == kb);
    EXPECT_FALSE(kb == km);
    const sat::PlanKeyHash h;
    EXPECT_NE(h(kp), h(kb));
    EXPECT_NE(h(kb), h(km));

    EXPECT_EQ(sat::plan_key_label(kb),
              sat::plan_key_label(kp) + "/query=box:r=4");
    EXPECT_EQ(sat::plan_key_label(km),
              sat::plan_key_label(kb) + "/qmode=materialize");
}

TEST(QueryService, SubmittedQueriesResolveToTheOracleAnswer)
{
    sat::Service svc({.workers = 2, .max_wave = 4});
    std::vector<sat::AnyMatrix> images;
    std::vector<std::future<sat::AnyMatrix>> futures;
    for (std::uint64_t s = 0; s < 6; ++s) {
        images.push_back(
            sat::AnyMatrix::random(Dtype::u8_, kH, kW, 60 + s));
        sat::Service::Request req;
        req.image = images.back();
        req.out = Dtype::u32_;
        req.query = kSpecs[s % std::size(kSpecs)];
        futures.push_back(svc.submit(std::move(req)));
    }
    sat::Runtime& oracle = shared_runtime();
    for (std::size_t i = 0; i < images.size(); ++i)
        EXPECT_TRUE(futures[i].get() ==
                    oracle.query_reference(images[i], Dtype::u32_,
                                           kSpecs[i % std::size(kSpecs)]))
            << "request " << i;
    const auto stats = svc.stats();
    EXPECT_EQ(stats.completed, 6u);
    EXPECT_EQ(stats.failed, 0u);
}
