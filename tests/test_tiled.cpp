// Tests for the macro-tile out-of-core execution layer (sat/tiled.hpp):
// bit-exactness against both the untiled kernels and the serial oracle
// across ragged shapes, degenerate tilings, every paper dtype pair and
// several scheduler thread counts; golden checksums pin two large tiled
// tables; and the 8192 x 8192 acceptance case shows the pooled high-water
// mark stays O(tile area) while different tile geometries and thread
// counts produce identical bits.
#include "core/random_fill.hpp"
#include "sat/runtime.hpp"
#include "sat/tiled.hpp"

#include <gtest/gtest.h>

#include <cstring>

namespace sat = satgpu::sat;
namespace simt = satgpu::simt;
using satgpu::Matrix;

namespace {

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

std::uint64_t any_checksum(const sat::AnyMatrix& m)
{
    return m.visit([](const auto& t) { return table_checksum(t); });
}

template <typename Tout, typename Tin>
void expect_tiled_matches(std::int64_t h, std::int64_t w,
                          const sat::TileGeometry& geo,
                          sat::Algorithm algo = sat::Algorithm::kScanRowColumn)
{
    Matrix<Tin> img(h, w);
    satgpu::fill_random(img, /*seed=*/5);
    const auto want = sat::sat_serial<Tout>(img);

    simt::Engine eng;
    const auto untiled = sat::compute_sat<Tout>(eng, img, {algo});
    const auto tiled = sat::compute_sat_tiled<Tout>(eng, img, geo, {algo});

    EXPECT_EQ(tiled.table, want)
        << h << "x" << w << " tile " << geo.tile_h << "x" << geo.tile_w;
    EXPECT_EQ(tiled.table, untiled.table)
        << h << "x" << w << " tile " << geo.tile_h << "x" << geo.tile_w;
}

} // namespace

// ------------------------------------------------------- ragged shapes -----

TEST(Tiled, RaggedShapesMatchUntiledAndOracle)
{
    expect_tiled_matches<std::uint32_t, std::uint8_t>(97, 130, {32, 32});
    expect_tiled_matches<std::uint32_t, std::uint8_t>(97, 130, {64, 64});
    expect_tiled_matches<std::uint32_t, std::uint8_t>(4096, 33, {32, 32});
}

TEST(Tiled, SingleRowAndSingleColumn)
{
    // h or w = 1 exercises one-band tiles on every strip.
    expect_tiled_matches<std::uint32_t, std::uint8_t>(1, 200, {32, 32});
    expect_tiled_matches<std::uint32_t, std::uint8_t>(200, 1, {32, 32});
}

// --------------------------------------------------- degenerate tilings ----

TEST(Tiled, SingleTileCoversWholeImage)
{
    // Tile >= image: the grid degenerates to one tile and the tiled entry
    // point must behave exactly like the untiled one (same launches).
    Matrix<std::uint8_t> img(50, 60);
    satgpu::fill_random(img, 5);
    simt::Engine eng;
    const auto untiled = sat::compute_sat<std::uint32_t>(eng, img, {});
    const auto tiled =
        sat::compute_sat_tiled<std::uint32_t>(eng, img, {64, 64}, {});
    EXPECT_EQ(tiled.table, untiled.table);
    EXPECT_EQ(tiled.launches.size(), untiled.launches.size());
}

TEST(Tiled, MinimumTileAndNonSquareGrids)
{
    expect_tiled_matches<std::int32_t, std::int32_t>(130, 97, {32, 32});
    expect_tiled_matches<std::int32_t, std::int32_t>(130, 97, {64, 32});
    expect_tiled_matches<std::int32_t, std::int32_t>(130, 97, {32, 64});
}

TEST(Tiled, GridGeometryAndParsing)
{
    const sat::TileGrid grid(97, 130, {32, 32});
    EXPECT_EQ(grid.rows(), 4);
    EXPECT_EQ(grid.cols(), 5);
    EXPECT_EQ(grid.count(), 20);
    const auto corner = grid.rect(3, 4);
    EXPECT_EQ(corner.y0, 96);
    EXPECT_EQ(corner.h, 1);
    EXPECT_EQ(corner.x0, 128);
    EXPECT_EQ(corner.w, 2);

    const auto g = sat::parse_tile_geometry("64x128");
    ASSERT_TRUE(g.has_value());
    EXPECT_EQ(g->tile_h, 64);
    EXPECT_EQ(g->tile_w, 128);
    EXPECT_FALSE(sat::parse_tile_geometry("64").has_value());
    EXPECT_FALSE(sat::parse_tile_geometry("0x32").has_value());
    EXPECT_FALSE(sat::parse_tile_geometry("axb").has_value());
}

// -------------------------------------------------------- dtype sweep ------

TEST(Tiled, AllPaperDtypePairs)
{
    // Inputs are integer-valued (fill_random), so even the float pairs must
    // agree bit for bit with the serial oracle.
    sat::Runtime rt({.record_history = false});
    for (const satgpu::DtypePair pair : satgpu::kPaperDtypePairs) {
        const auto plan = rt.plan({.height = 97,
                                   .width = 130,
                                   .dtypes = pair,
                                   .algorithm = sat::Algorithm::kBrltScanRow,
                                   .tile = {64, 64}});
        const auto image =
            sat::AnyMatrix::random(pair.in, 97, 130, /*seed=*/5);
        const auto res = plan.execute(image);
        EXPECT_TRUE(res.table == rt.reference(image, pair.out))
            << satgpu::pair_name(pair);
    }
}

// ------------------------------------------------------ thread counts ------

TEST(Tiled, BitIdenticalAcrossSchedulerThreads)
{
    const auto run = [](int threads) {
        sat::Runtime rt({.record_history = false, .num_threads = threads});
        const auto plan =
            rt.plan({.height = 130,
                     .width = 97,
                     .dtypes = {satgpu::Dtype::u8_, satgpu::Dtype::f32_},
                     .algorithm = sat::Algorithm::kScanRowBrlt,
                     .tile = {32, 32}});
        const auto image = sat::AnyMatrix::random(satgpu::Dtype::u8_, 130,
                                                  97, /*seed=*/5);
        return any_checksum(plan.execute(image).table);
    };
    const std::uint64_t one = run(1);
    EXPECT_EQ(run(2), one);
    EXPECT_EQ(run(7), one);
}

// ------------------------------------------------------ native backend -----

// A native tiled run is bit-exact with the simulator on ragged tiles at
// every engine thread count, and its carry pass runs natively too: the
// tile_carry_combine launches count no events, only their geometry.
TEST(Tiled, NativeCarryMatchesSimulatorAndCountsNoEvents)
{
    constexpr std::int64_t h = 300, w = 517;
    Matrix<std::uint8_t> img(h, w);
    satgpu::fill_random(img, /*seed=*/7);
    // 4 x 4 tiles, the last row and column ragged (300 = 3*96 + 12,
    // 517 = 3*160 + 37).
    const sat::TileGeometry geo{96, 160};
    for (const sat::Algorithm algo :
         {sat::Algorithm::kBrltScanRow, sat::Algorithm::kScanRowBrlt,
          sat::Algorithm::kScanRowColumn}) {
        sat::Options opt{algo};
        simt::Engine sim_eng;
        const auto sim =
            sat::compute_sat_tiled<std::uint32_t>(sim_eng, img, geo, opt);
        ASSERT_EQ(sim.table, sat::sat_serial<std::uint32_t>(img));

        opt.backend = sat::Backend::kNative;
        for (const int threads : {1, 2, 7}) {
            simt::Engine eng({.record_history = false,
                              .num_threads = threads});
            const auto nat =
                sat::compute_sat_tiled<std::uint32_t>(eng, img, geo, opt);
            EXPECT_EQ(nat.table, sim.table)
                << sat::to_string(algo) << ", " << threads << " threads";
            int carries = 0;
            for (const auto& l : nat.launches) {
                if (l.info.name != "tile_carry_combine")
                    continue;
                ++carries;
                simt::PerfCounters geometry_only{};
                geometry_only.blocks = l.counters.blocks;
                geometry_only.warps = l.counters.warps;
                EXPECT_EQ(l.counters, geometry_only)
                    << sat::to_string(algo) << ", " << threads << " threads";
                EXPECT_GT(l.counters.blocks, 0u);
            }
            EXPECT_GT(carries, 0);
        }
    }
}

// ---------------------------------------------------- golden checksums -----

TEST(Tiled, GoldenChecksumsLargeTables)
{
    // Pinned FNV-1a checksums of two large tiled SATs; any change to the
    // carry math, tile traversal or fill sequence shows up here.
    Matrix<std::uint8_t> a(1024, 777);
    satgpu::fill_random(a, 42);
    simt::Engine eng;
    const auto sat_a = sat::compute_sat_tiled<std::uint32_t>(
        eng, a, {128, 64}, {sat::Algorithm::kBrltScanRow});
    EXPECT_EQ(table_checksum(sat_a.table), 1964943892424980185ull);

    Matrix<float> b(513, 1024);
    satgpu::fill_random(b, 9);
    const auto sat_b = sat::compute_sat_tiled<float>(
        eng, b, {64, 128}, {sat::Algorithm::kScanRowColumn});
    EXPECT_EQ(table_checksum(sat_b.table), 7357748681717909183ull);
}

// ------------------------------------------------------- plan surface ------

TEST(Tiled, PlanWorkspaceIsTileSizedAndAutoScoresTiled)
{
    sat::Runtime rt({.record_history = false});
    const auto untiled = rt.plan({.height = 4096,
                                  .width = 4096,
                                  .dtypes = {satgpu::Dtype::u8_,
                                             satgpu::Dtype::u32_},
                                  .algorithm = sat::Algorithm::kBrltScanRow});
    const auto tiled = rt.plan({.height = 4096,
                                .width = 4096,
                                .dtypes = {satgpu::Dtype::u8_,
                                           satgpu::Dtype::u32_},
                                .algorithm = sat::Algorithm::kBrltScanRow,
                                .tile = {512, 512}});
    EXPECT_LT(tiled.workspace_bytes(), untiled.workspace_bytes() / 8);

    const auto chosen = rt.plan({.height = 1024,
                                 .width = 1024,
                                 .dtypes = {satgpu::Dtype::u8_,
                                            satgpu::Dtype::u32_},
                                 .algorithm = sat::Algorithm::kAuto,
                                 .tile = {256, 256}});
    ASSERT_EQ(chosen.scores().size(), std::size(sat::kAllAlgorithms));
    EXPECT_EQ(chosen.algorithm(), chosen.scores().front().algo);
    for (const auto& s : chosen.scores())
        EXPECT_GT(s.predicted_us, 0.0);
}

// -------------------------------------------- 8192 x 8192 out-of-core ------

TEST(Tiled, EightKAcceptanceOutOfCore)
{
    // The tentpole acceptance case: an image whose untiled workspace would
    // be ~600 MB executes out of core with a pooled high-water mark bounded
    // by the plan's O(tile area) estimate, and two different geometries on
    // two different thread counts produce identical bits.
    const auto image =
        sat::AnyMatrix::random(satgpu::Dtype::u8_, 8192, 8192, /*seed=*/5);
    const std::uint64_t want = table_checksum(
        sat::sat_serial<std::uint32_t>(image.as<std::uint8_t>()));

    std::uint64_t first = 0;
    {
        sat::Runtime rt({.record_history = false, .num_threads = 2});
        const auto plan = rt.plan({.height = 8192,
                                   .width = 8192,
                                   .dtypes = {satgpu::Dtype::u8_,
                                              satgpu::Dtype::u32_},
                                   .algorithm = sat::Algorithm::kBrltScanRow,
                                   .tile = {512, 512}});
        // O(tile area), not O(image area): orders of magnitude below the
        // untiled footprint of ~600 MB.
        EXPECT_LT(plan.workspace_bytes(), std::int64_t{64} << 20);
        first = any_checksum(plan.execute(image).table);
        EXPECT_LE(rt.pool_stats().bytes_allocated, plan.workspace_bytes());
    }
    EXPECT_EQ(first, want);

    sat::Runtime rt({.record_history = false, .num_threads = 7});
    const auto plan = rt.plan({.height = 8192,
                               .width = 8192,
                               .dtypes = {satgpu::Dtype::u8_,
                                          satgpu::Dtype::u32_},
                               .algorithm = sat::Algorithm::kBrltScanRow,
                               .tile = {1024, 512}});
    EXPECT_EQ(any_checksum(plan.execute(image).table), want);
    EXPECT_LE(rt.pool_stats().bytes_allocated, plan.workspace_bytes());
}
