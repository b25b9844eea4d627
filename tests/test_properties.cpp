// Property-based tests: algebraic invariants of the SAT that must hold for
// every algorithm on randomized shapes and inputs.  These catch whole
// classes of indexing/carry bugs that example-based tests miss.
#include "core/random_fill.hpp"
#include "sat/cpu_reference.hpp"
#include "sat/integral_histogram.hpp"
#include "sat/sat.hpp"

#include <gtest/gtest.h>

#include <random>

namespace sat = satgpu::sat;
namespace simt = satgpu::simt;
using satgpu::Matrix;

namespace {

/// Deterministic random shape in [1, 400] x [1, 400] biased toward warp
/// boundaries (multiples and off-by-ones of 32).
std::pair<std::int64_t, std::int64_t> random_shape(std::mt19937_64& rng)
{
    auto dim = [&]() -> std::int64_t {
        switch (rng() % 4) {
        case 0: return static_cast<std::int64_t>(1 + rng() % 400);
        case 1: return static_cast<std::int64_t>(32 * (1 + rng() % 12));
        case 2: return static_cast<std::int64_t>(32 * (1 + rng() % 12) + 1);
        default: return static_cast<std::int64_t>(32 * (1 + rng() % 12) - 1);
        }
    };
    return {dim(), dim()};
}

template <typename Tout, typename Tin>
Matrix<Tout> gpu_sat(const Matrix<Tin>& img, sat::Algorithm algo)
{
    simt::Engine eng({.record_history = false});
    return sat::compute_sat<Tout>(eng, img, {algo}).table;
}

class SatProperties : public ::testing::TestWithParam<std::uint64_t> {};

} // namespace

TEST_P(SatProperties, AllAlgorithmsAgreeOnRandomShapes)
{
    std::mt19937_64 rng(GetParam());
    const auto [h, w] = random_shape(rng);
    Matrix<satgpu::u8> img(h, w);
    satgpu::fill_random(img, rng());

    const auto reference = gpu_sat<satgpu::u32>(img, sat::Algorithm::kBrltScanRow);
    EXPECT_EQ(reference, sat::sat_serial<satgpu::u32>(img)) << h << "x" << w;
    for (const auto algo : sat::kAllAlgorithms)
        EXPECT_EQ(gpu_sat<satgpu::u32>(img, algo), reference)
            << sat::to_string(algo) << " " << h << "x" << w;
}

TEST_P(SatProperties, TransposeCommutes)
{
    // SAT(I^T) == SAT(I)^T.
    std::mt19937_64 rng(GetParam() ^ 0x1111);
    const auto [h, w] = random_shape(rng);
    Matrix<satgpu::i32> img(h, w);
    satgpu::fill_random(img, rng());

    const auto a = gpu_sat<satgpu::i32>(satgpu::transpose(img),
                                        sat::Algorithm::kBrltScanRow);
    const auto b = satgpu::transpose(
        gpu_sat<satgpu::i32>(img, sat::Algorithm::kBrltScanRow));
    EXPECT_EQ(a, b) << h << "x" << w;
}

TEST_P(SatProperties, Linearity)
{
    // SAT(aX + Y) == a*SAT(X) + SAT(Y) (integer arithmetic, small values).
    std::mt19937_64 rng(GetParam() ^ 0x2222);
    const auto [h, w] = random_shape(rng);
    Matrix<satgpu::i32> x(h, w), y(h, w), combo(h, w);
    satgpu::fill_random(x, rng());
    satgpu::fill_random(y, rng());
    const satgpu::i32 a = 3;
    for (std::int64_t i = 0; i < x.size(); ++i)
        combo.flat()[static_cast<std::size_t>(i)] =
            a * x.flat()[static_cast<std::size_t>(i)] +
            y.flat()[static_cast<std::size_t>(i)];

    const auto sx = gpu_sat<satgpu::i32>(x, sat::Algorithm::kScanRowColumn);
    const auto sy = gpu_sat<satgpu::i32>(y, sat::Algorithm::kScanRowColumn);
    const auto sc =
        gpu_sat<satgpu::i32>(combo, sat::Algorithm::kScanRowColumn);
    for (std::int64_t i = 0; i < sc.size(); ++i)
        ASSERT_EQ(sc.flat()[static_cast<std::size_t>(i)],
                  a * sx.flat()[static_cast<std::size_t>(i)] +
                      sy.flat()[static_cast<std::size_t>(i)]);
}

TEST_P(SatProperties, MonotoneAlongRowsAndColumns)
{
    // For non-negative input, J is non-decreasing in x and y.
    std::mt19937_64 rng(GetParam() ^ 0x3333);
    const auto [h, w] = random_shape(rng);
    Matrix<satgpu::u8> img(h, w);
    satgpu::fill_random(img, rng());
    const auto s = gpu_sat<satgpu::u32>(img, sat::Algorithm::kScanRowBrlt);
    for (std::int64_t y = 0; y < h; ++y)
        for (std::int64_t x = 1; x < w; ++x)
            ASSERT_GE(s(y, x), s(y, x - 1));
    for (std::int64_t y = 1; y < h; ++y)
        for (std::int64_t x = 0; x < w; ++x)
            ASSERT_GE(s(y, x), s(y - 1, x));
}

TEST_P(SatProperties, RectSumsTileAdditively)
{
    // Splitting a rectangle along any interior row/column, the parts' sums
    // add to the whole.
    std::mt19937_64 rng(GetParam() ^ 0x4444);
    const auto [h, w] = random_shape(rng);
    if (h < 4 || w < 4)
        GTEST_SKIP() << "degenerate shape";
    Matrix<satgpu::u8> img(h, w);
    satgpu::fill_random(img, rng());
    const auto s = gpu_sat<satgpu::u32>(img, sat::Algorithm::kBrltScanRow);

    for (int trial = 0; trial < 16; ++trial) {
        const std::int64_t y0 = static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(h - 2));
        const std::int64_t y1 =
            y0 + 1 + static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(h - y0 - 1));
        const std::int64_t x0 = static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(w - 2));
        const std::int64_t x1 =
            x0 + 1 + static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(w - x0 - 1));
        const std::int64_t ys = y0 + static_cast<std::int64_t>(
                                         rng() % static_cast<std::uint64_t>(y1 - y0));
        ASSERT_EQ(sat::rect_sum(s, y0, x0, y1, x1),
                  sat::rect_sum(s, y0, x0, ys, x1) +
                      sat::rect_sum(s, ys + 1, x0, y1, x1))
            << "split at " << ys;
    }
}

TEST_P(SatProperties, LastEntryIsTotalSum)
{
    std::mt19937_64 rng(GetParam() ^ 0x5555);
    const auto [h, w] = random_shape(rng);
    Matrix<satgpu::u8> img(h, w);
    satgpu::fill_random(img, rng());
    std::uint64_t total = 0;
    for (const auto v : img.flat())
        total += v;
    const auto s = gpu_sat<satgpu::u32>(img, sat::Algorithm::kNppLike);
    EXPECT_EQ(s(h - 1, w - 1), total);
}

TEST_P(SatProperties, DifferencingRecoversTheImage)
{
    // I(y,x) = J(y,x) - J(y-1,x) - J(y,x-1) + J(y-1,x-1).
    std::mt19937_64 rng(GetParam() ^ 0x6666);
    const auto [h, w] = random_shape(rng);
    Matrix<satgpu::u8> img(h, w);
    satgpu::fill_random(img, rng());
    const auto s = gpu_sat<satgpu::u32>(img, sat::Algorithm::kOpencvLike);
    for (std::int64_t y = 0; y < h; ++y)
        for (std::int64_t x = 0; x < w; ++x) {
            const auto up = y > 0 ? s(y - 1, x) : 0u;
            const auto left = x > 0 ? s(y, x - 1) : 0u;
            const auto diag = (y > 0 && x > 0) ? s(y - 1, x - 1) : 0u;
            ASSERT_EQ(s(y, x) - up - left + diag, img(y, x))
                << y << "," << x;
        }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatProperties,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// ------------------------------------------------ degenerate shapes --------

TEST(SatEdgeShapes, DegenerateShapesAgreeForEveryAlgorithm)
{
    // 1xN, Nx1 and 1x1 collapse one scan dimension entirely; every
    // algorithm must still produce the serial result (these shapes have
    // historically broken tile predication and carry chains).
    const std::pair<std::int64_t, std::int64_t> shapes[] = {
        {1, 1},   {1, 7},   {7, 1},    {1, 32},  {32, 1},
        {1, 257}, {257, 1}, {1, 1333}, {1333, 1}};
    for (const auto& [h, w] : shapes) {
        Matrix<satgpu::u8> img(h, w);
        satgpu::fill_random(img, static_cast<std::uint64_t>(h * 10000 + w));
        const auto want = sat::sat_serial<satgpu::u32>(img);
        for (const auto algo : sat::kAllAlgorithms)
            EXPECT_EQ(gpu_sat<satgpu::u32>(img, algo), want)
                << sat::to_string(algo) << " " << h << "x" << w;
    }
}

// ------------------------------------------ overflow / carry edges ---------

TEST(SatOverflowEdge, All255CarriesExactlyAcrossChunkBoundaries)
{
    // u8 -> u32 worst case: every pixel 255.  96x2048 spans two of the
    // ScanRow 1024-element chunks and many 32-wide tiles, so every carry
    // path (intra-warp, block carry, chunk carry) must propagate the
    // maximal per-pixel value exactly.  The closed form (x+1)(y+1)*255
    // doubles as an independent oracle.
    const std::int64_t h = 96, w = 2048;
    Matrix<satgpu::u8> img(h, w);
    for (auto& v : img.flat())
        v = 255;
    for (const auto algo : sat::kAllAlgorithms) {
        const auto s = gpu_sat<satgpu::u32>(img, algo);
        for (std::int64_t y = 0; y < h; ++y)
            for (std::int64_t x = 0; x < w; ++x)
                ASSERT_EQ(s(y, x), static_cast<satgpu::u32>(
                                       (x + 1) * (y + 1) * 255))
                    << sat::to_string(algo) << " at " << y << "," << x;
    }
}

TEST(SatOverflowEdge, WideningU32ToU64AccumulatesPastU32Range)
{
    // u32 inputs at the type's maximum: partial sums exceed 2^32 after a
    // handful of pixels, so any intermediate truncation to 32 bits would be
    // caught immediately.
    const std::int64_t h = 64, w = 96;
    const satgpu::u32 vmax = 0xFFFFFFFFu;
    Matrix<satgpu::u32> img(h, w);
    for (auto& v : img.flat())
        v = vmax;
    const auto s = gpu_sat<std::uint64_t>(img, sat::Algorithm::kBrltScanRow);
    const auto s2 =
        gpu_sat<std::uint64_t>(img, sat::Algorithm::kScanRowColumn);
    EXPECT_EQ(s, s2);
    for (std::int64_t y = 0; y < h; ++y)
        for (std::int64_t x = 0; x < w; ++x)
            ASSERT_EQ(s(y, x), static_cast<std::uint64_t>(x + 1) *
                                   static_cast<std::uint64_t>(y + 1) * vmax)
                << y << "," << x;
    EXPECT_GT(s(h - 1, w - 1), std::uint64_t{1} << 32);
}

// ------------------------------------- integral-histogram properties -------
//
// Multi-bin scaling invariants of the integral histogram (16-64 bins
// through the bin-major batched plan, docs/streaming.md's tracking
// consumer): masks must partition the image for EVERY bin count -- in
// particular ragged ones where bin_width does not divide 256 -- region
// queries must equal a direct count of the pixels, and the batched
// build's pooled footprint must stay within its declared workspace_bytes.

TEST(IntegralHistogramProperties, MasksPartitionImageForRaggedBinCounts)
{
    // The seed implementation required bins | 256 and silently dropped
    // pixels whose v / bin_width reached `bins`.  Now the top bin clamps:
    // per-pixel bin = min(v / bin_width, bins - 1), so summing every bin's
    // count over the full frame must equal the pixel count for ANY bins.
    sat::Runtime rt;
    const std::int64_t h = 48, w = 75;
    Matrix<satgpu::u8> img(h, w);
    // Full value range, including the ragged tail [235, 255] that 48 bins
    // would have dropped under the old precondition.
    satgpu::fill_random(img, 99, satgpu::u8{0}, satgpu::u8{255});
    for (const int bins : {1, 3, 16, 33, 48, 64}) {
        const auto ih = sat::integral_histogram_batched(rt, img, bins);
        const auto counts = ih.region(0, 0, h - 1, w - 1);
        std::uint64_t total = 0;
        for (const auto c : counts)
            total += c;
        EXPECT_EQ(total, static_cast<std::uint64_t>(h * w)) << bins;
    }
}

TEST(IntegralHistogramProperties, RaggedLastBinClampsInsteadOfDropping)
{
    // 48 bins -> bin_width 5: values 235..255 all land in bin 47 (the old
    // code dropped 240..255 entirely).  Pin the exact per-bin counts for a
    // crafted image covering the boundary values.
    sat::Runtime rt;
    Matrix<satgpu::u8> img(1, 6);
    img(0, 0) = 234; // 234 / 5 = 46
    img(0, 1) = 235; // 235 / 5 = 47, the first value in the last bin
    img(0, 2) = 239; // 239 / 5 = 47, the last in-range quotient
    img(0, 3) = 240; // 48 -> clamped to 47 (dropped by the seed code)
    img(0, 4) = 250; // 50 -> clamped to 47
    img(0, 5) = 255; // 51 -> clamped to 47
    const auto ih = sat::integral_histogram_batched(rt, img, 48);
    EXPECT_EQ(ih.bin_width, 5);
    const auto counts = ih.region(0, 0, 0, 5);
    EXPECT_EQ(counts[46], 1u);
    EXPECT_EQ(counts[47], 5u);
    std::uint64_t total = 0;
    for (const auto c : counts)
        total += c;
    EXPECT_EQ(total, 6u);
}

TEST(IntegralHistogramProperties, BatchedPlanMatchesDirectCountAcrossBinSweep)
{
    // The bin-major batched build (one bin-mask launch for all bins +
    // one execute_wave) must hold, per bin, the serial SAT of a host-built
    // bin mask, and count exactly the pixels a direct loop counts on a few
    // rectangles including clamped/full ones -- for dividing and ragged
    // bin counts alike.
    sat::Runtime rt;
    const std::int64_t h = 37, w = 61;
    Matrix<satgpu::u8> img(h, w);
    satgpu::fill_random(img, 2027, satgpu::u8{0}, satgpu::u8{255});
    struct Rect {
        std::int64_t y0, x0, y1, x1;
    };
    const Rect rects[] = {
        {0, 0, h - 1, w - 1}, {5, 7, 20, 40}, {-3, -9, h + 5, w + 5}};
    for (const int bins : {1, 16, 33, 64}) {
        const auto ih = sat::integral_histogram_batched(rt, img, bins);
        ASSERT_EQ(ih.bins(), static_cast<std::size_t>(bins));
        EXPECT_EQ(ih.bin_width, 256 / bins) << bins;
        const auto bin_of = [&](satgpu::u8 v) {
            return std::min<std::int64_t>(v / ih.bin_width, bins - 1);
        };
        for (int b = 0; b < bins; ++b) {
            Matrix<satgpu::u8> mask(h, w);
            for (std::int64_t y = 0; y < h; ++y)
                for (std::int64_t x = 0; x < w; ++x)
                    mask(y, x) = bin_of(img(y, x)) == b ? satgpu::u8{1}
                                                        : satgpu::u8{0};
            ASSERT_EQ(ih.tables[static_cast<std::size_t>(b)],
                      sat::sat_serial<satgpu::u32>(mask))
                << bins << " bins, bin " << b;
        }
        for (const Rect& r : rects) {
            std::vector<std::uint32_t> direct(ih.bins(), 0);
            for (std::int64_t y = std::max<std::int64_t>(r.y0, 0);
                 y <= std::min(r.y1, h - 1); ++y)
                for (std::int64_t x = std::max<std::int64_t>(r.x0, 0);
                     x <= std::min(r.x1, w - 1); ++x)
                    ++direct[static_cast<std::size_t>(bin_of(img(y, x)))];
            EXPECT_EQ(ih.region(r.y0, r.x0, r.y1, r.x1), direct)
                << bins << " bins, rect " << r.y0 << "," << r.x0 << ".."
                << r.y1 << "," << r.x1;
        }
    }
}

TEST(IntegralHistogramProperties, BatchedPoolHighWaterWithinWorkspaceBytes)
{
    // All leases (image staging, bin masks, the wave's workspaces) come
    // from one partition; the partition's measured high-water must stay
    // within the build's declared workspace_bytes bound.
    sat::Runtime rt;
    const std::int64_t h = 40, w = 50;
    Matrix<satgpu::u8> img(h, w);
    satgpu::fill_random(img, 7, satgpu::u8{0}, satgpu::u8{255});
    for (const int bins : {16, 64}) {
        const int partition = 100 + bins;
        const auto ih =
            sat::integral_histogram_batched(rt, img, bins, partition);
        EXPECT_GT(ih.workspace_bytes, 0u) << bins;
        EXPECT_LE(rt.pool().high_water_bytes(partition), ih.workspace_bytes)
            << bins;
    }
}
