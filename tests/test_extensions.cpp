// Tests for the library extensions built on the same substrate: warp
// votes, global atomics, vectorized accesses, block/device-wide scans, the
// scratchpad-tile ablation kernel, the BRLT Haar wavelet (the paper's
// future-work claim) and integral histograms.
#include "baselines/smem_tile.hpp"
#include "core/random_fill.hpp"
#include "sat/integral_histogram.hpp"
#include "scan/device_scan.hpp"
#include "simt/vote.hpp"
#include "transforms/haar_dwt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

namespace sat = satgpu::sat;
namespace scan = satgpu::scan;
namespace simt = satgpu::simt;
using satgpu::Matrix;

// ------------------------------------------------------------------ votes --

TEST(Vote, BallotAnyAllFirstLane)
{
    const simt::LaneMask pred = 0x0000ff00u;
    EXPECT_EQ(simt::ballot(pred), pred);
    EXPECT_EQ(simt::ballot(pred, 0x000000ffu), 0u);
    EXPECT_TRUE(simt::any(pred));
    EXPECT_FALSE(simt::any(pred, 0xffu));
    EXPECT_TRUE(simt::all(pred, 0x0000ff00u));
    EXPECT_FALSE(simt::all(pred));
    EXPECT_EQ(simt::first_lane(pred), 8);
    EXPECT_EQ(simt::first_lane(0), -1);
}

TEST(Vote, MaskOfNonzero)
{
    simt::LaneVec<int> v{};
    v.set(3, 1);
    v.set(31, -2);
    EXPECT_EQ(simt::mask_of_nonzero(v), (1u << 3) | (1u << 31));
}

// ---------------------------------------------------------------- atomics --

TEST(Atomics, CollidingLanesAllContribute)
{
    simt::PerfCounters c;
    simt::CounterScope scope(c);
    simt::DeviceBuffer<int> buf(4, 0);
    // All 32 lanes add 1 to element (lane % 4).
    simt::LaneVec<std::int64_t> idx;
    for (int l = 0; l < simt::kWarpSize; ++l)
        idx.set(l, l % 4);
    const auto old = buf.atomic_add(idx, simt::LaneVec<int>::broadcast(1));
    for (int e = 0; e < 4; ++e)
        EXPECT_EQ(buf.host()[static_cast<std::size_t>(e)], 8);
    // Serialization order is ascending lane: lane 4 saw the value lane 0
    // wrote.
    EXPECT_EQ(old.get(0), 0);
    EXPECT_EQ(old.get(4), 1);
    EXPECT_EQ(old.get(28), 7);
    EXPECT_EQ(c.gmem_atomics, 32u);
}

TEST(Atomics, InactiveLanesDoNotTouch)
{
    simt::DeviceBuffer<float> buf(2, 10.0f);
    buf.atomic_add(simt::LaneVec<std::int64_t>::broadcast(1),
                   simt::LaneVec<float>::broadcast(0.5f), 0x3u);
    EXPECT_FLOAT_EQ(buf.host()[0], 10.0f);
    EXPECT_FLOAT_EQ(buf.host()[1], 11.0f);
}

// --------------------------------------------------------- vector access ---

TEST(VectorAccess, LoadVecReadsConsecutiveElements)
{
    simt::DeviceBuffer<std::uint8_t> buf(512);
    for (int i = 0; i < 512; ++i)
        buf.host()[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(i % 251);
    simt::PerfCounters c;
    simt::CounterScope scope(c);
    const auto base =
        simt::LaneVec<std::int64_t>::lane_index() * std::int64_t{16};
    const auto v = buf.load_vec<16>(base);
    for (int l = 0; l < simt::kWarpSize; ++l)
        for (int k = 0; k < 16; ++k)
            EXPECT_EQ(v[static_cast<std::size_t>(k)].get(l),
                      (l * 16 + k) % 251);
    // 512 contiguous bytes = 16 sectors, one request.
    EXPECT_EQ(c.gmem_ld_req, 1u);
    EXPECT_EQ(c.gmem_ld_sectors, 16u);
    EXPECT_EQ(c.gmem_bytes_ld, 512u);
}

TEST(VectorAccess, StoreVecRoundTrips)
{
    simt::DeviceBuffer<std::uint32_t> buf(128, 0);
    std::array<simt::LaneVec<std::uint32_t>, 4> vals;
    for (int k = 0; k < 4; ++k)
        for (int l = 0; l < simt::kWarpSize; ++l)
            vals[static_cast<std::size_t>(k)].set(
                l, static_cast<std::uint32_t>(100 * l + k));
    const auto base =
        simt::LaneVec<std::int64_t>::lane_index() * std::int64_t{4};
    buf.store_vec<4>(base, vals);
    for (int l = 0; l < simt::kWarpSize; ++l)
        for (int k = 0; k < 4; ++k)
            EXPECT_EQ(buf.host()[static_cast<std::size_t>(l * 4 + k)],
                      static_cast<std::uint32_t>(100 * l + k));
}

// -------------------------------------------------------------- block scan --

// block_scan_steps at 1, 3 and 8 warps on both backends, against a serial
// prefix of random values: every prefix and the block total in every lane.
TEST(BlockScan, ScansAcrossWarpsOfOneBlock)
{
    simt::Engine eng;
    for (const int warps : {1, 3, 8})
        for (const bool native : {false, true}) {
            const std::int64_t n = std::int64_t{warps} * simt::kWarpSize;
            std::mt19937 rng(static_cast<unsigned>(warps));
            std::vector<int> vals(static_cast<std::size_t>(n));
            for (auto& v : vals)
                v = static_cast<int>(rng() % 1000) - 500;
            std::vector<int> want(vals.size());
            std::partial_sum(vals.begin(), vals.end(), want.begin());

            simt::DeviceBuffer<int> in(n), out(n), totals(n);
            std::copy(vals.begin(), vals.end(), in.host().begin());
            using State = scan::BlockScanState<int>;
            (void)simt::launch_phases(
                eng, {"blockscan", 24, 4 * warps}, {{1, 1, 1}, {n, 1, 1}},
                native,
                simt::phase_list<State>(
                    [](simt::Dim3) { return std::int64_t{1}; },
                    [&](auto& w, State& st, std::int64_t) {
                        st.v = in.load_row(
                            std::int64_t{w.warp_id()} * simt::kWarpSize);
                    },
                    scan::block_scan_steps<int>(),
                    [&](auto& w, State& st, std::int64_t) {
                        const std::int64_t base =
                            std::int64_t{w.warp_id()} * simt::kWarpSize;
                        out.store_row(base, st.v);
                        totals.store_row(base, st.total);
                    }));
            for (std::int64_t t = 0; t < n; ++t) {
                const auto i = static_cast<std::size_t>(t);
                EXPECT_EQ(out.host()[i], want[i])
                    << warps << " warps, native " << native << ", t " << t;
                EXPECT_EQ(totals.host()[i], want.back())
                    << warps << " warps, native " << native << ", t " << t;
            }
        }
}

// ------------------------------------------------------------- device scan --

class DeviceScanSizes : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(DeviceScanSizes, MatchesSerialOracle)
{
    const std::int64_t n = GetParam();
    std::mt19937_64 rng(static_cast<std::uint64_t>(n));
    simt::DeviceBuffer<long long> in(n), out(n);
    for (std::int64_t i = 0; i < n; ++i)
        in.host()[static_cast<std::size_t>(i)] =
            static_cast<long long>(rng() % 100);

    simt::Engine eng;
    const auto launches = scan::device_inclusive_scan(eng, in, out);
    EXPECT_EQ(launches.size(), n <= 256 ? 1u : 3u);

    long long acc = 0;
    for (std::int64_t i = 0; i < n; ++i) {
        acc += in.host()[static_cast<std::size_t>(i)];
        ASSERT_EQ(out.host()[static_cast<std::size_t>(i)], acc)
            << "i=" << i << " n=" << n;
    }
}

INSTANTIATE_TEST_SUITE_P(ManySizes, DeviceScanSizes,
                         ::testing::Values(1, 31, 32, 33, 256, 257, 1000,
                                           4096, 100000));

TEST(DeviceScan, LadnerFischerVariantAgrees)
{
    simt::DeviceBuffer<int> in(5000), out_ks(5000), out_lf(5000);
    for (std::int64_t i = 0; i < 5000; ++i)
        in.host()[static_cast<std::size_t>(i)] = static_cast<int>(i % 7);
    simt::Engine eng;
    scan::device_inclusive_scan(eng, in, out_ks,
                                scan::WarpScanKind::kKoggeStone);
    scan::device_inclusive_scan(eng, in, out_lf,
                                scan::WarpScanKind::kLadnerFischer);
    for (std::int64_t i = 0; i < 5000; ++i)
        ASSERT_EQ(out_ks.host()[static_cast<std::size_t>(i)],
                  out_lf.host()[static_cast<std::size_t>(i)]);
}

// -------------------------------------------------- scratchpad-tile kernel --

TEST(SmemTile, MatchesSerialOracle)
{
    Matrix<float> img(96, 1300); // ragged width, multi-chunk
    satgpu::fill_random(img, 61);
    const auto want = sat::sat_serial<float>(img);
    simt::Engine eng;
    const auto got = satgpu::baselines::compute_sat_smem_tile<float>(eng, img);
    EXPECT_EQ(got.table, want);
}

TEST(SmemTile, UsesMoreSharedMemoryTrafficThanBrlt)
{
    // Full 1024-wide chunks: at narrower widths BRLT's 32-warp blocks run
    // mostly empty and the comparison is meaningless (the paper evaluates
    // 1k x 1k and up).
    Matrix<float> img(1024, 1024);
    satgpu::fill_random(img, 62);
    simt::Engine e1, e2;
    const auto smem = satgpu::baselines::compute_sat_smem_tile<float>(e1, img);
    const auto brlt = sat::compute_sat<float>(
        e2, img, {sat::Algorithm::kBrltScanRow});
    std::uint64_t t_smem = 0, t_brlt = 0;
    for (const auto& l : smem.launches)
        t_smem += l.counters.smem_trans();
    for (const auto& l : brlt.launches)
        t_brlt += l.counters.smem_trans();
    EXPECT_GT(t_smem, t_brlt * 3 / 2);
}

// ------------------------------------------------------------ Haar via BRLT --

TEST(HaarDwt, MatchesReference)
{
    Matrix<int> img(64, 128);
    satgpu::fill_random(img, 71);
    simt::Engine eng;
    const auto got = satgpu::transforms::haar_dwt_2d(eng, img);
    const auto want = satgpu::transforms::haar_dwt_2d_reference(img);
    EXPECT_EQ(got.coeffs, want);
    EXPECT_EQ(got.launches.size(), 2u);
}

TEST(HaarDwt, MultiChunkWidth)
{
    Matrix<int> img(64, 2048); // two 1024-column chunks
    satgpu::fill_random(img, 72);
    simt::Engine eng;
    const auto got = satgpu::transforms::haar_dwt_2d(eng, img);
    EXPECT_EQ(got.coeffs, satgpu::transforms::haar_dwt_2d_reference(img));
}

TEST(HaarDwt, RoundTripsThroughInverse)
{
    Matrix<int> img(64, 64);
    satgpu::fill_random(img, 73);
    simt::Engine eng;
    const auto coeffs = satgpu::transforms::haar_dwt_2d(eng, img).coeffs;
    EXPECT_EQ(satgpu::transforms::haar_idwt_2d_reference(coeffs), img);
}

TEST(HaarDwt, LowPassQuadrantIsBlockSums)
{
    // LL(y, x) must equal the sum of the 2x2 input block (2y..2y+1, 2x..).
    Matrix<int> img(64, 64);
    satgpu::fill_random(img, 74);
    simt::Engine eng;
    const auto coeffs = satgpu::transforms::haar_dwt_2d(eng, img).coeffs;
    for (std::int64_t y = 0; y < 32; ++y)
        for (std::int64_t x = 0; x < 32; ++x)
            ASSERT_EQ(coeffs(y, x),
                      img(2 * y, 2 * x) + img(2 * y, 2 * x + 1) +
                          img(2 * y + 1, 2 * x) + img(2 * y + 1, 2 * x + 1))
                << y << "," << x;
}

TEST(HaarDwt, UsesZeroShufflesForTheButterflies)
{
    Matrix<int> img(64, 64);
    satgpu::fill_random(img, 75);
    simt::Engine eng;
    const auto res = satgpu::transforms::haar_dwt_2d(eng, img);
    // Only BRLT touches shared memory; the butterflies themselves are
    // intra-thread (the future-work claim): no shuffles anywhere.
    for (const auto& l : res.launches)
        EXPECT_EQ(l.counters.warp_shfl, 0u);
}

// ------------------------------------------------------ integral histogram --

TEST(IntegralHistogram, RegionMatchesDirectCount)
{
    Matrix<satgpu::u8> img(96, 128);
    satgpu::fill_random(img, 81, satgpu::u8{0}, satgpu::u8{255});
    sat::Runtime rt;
    const auto ih = sat::integral_histogram_batched(rt, img, 8);
    ASSERT_EQ(ih.bins(), 8u);

    const auto region = ih.region(10, 20, 60, 100);
    std::vector<std::uint32_t> direct(8, 0);
    for (std::int64_t y = 10; y <= 60; ++y)
        for (std::int64_t x = 20; x <= 100; ++x)
            ++direct[static_cast<std::size_t>(img(y, x) / 32)];
    for (int b = 0; b < 8; ++b)
        EXPECT_EQ(region[static_cast<std::size_t>(b)], direct[static_cast<std::size_t>(b)]) << "bin " << b;

    // Bin masses over the full image must sum to the pixel count.
    const auto full = ih.region(0, 0, 95, 127);
    EXPECT_EQ(std::accumulate(full.begin(), full.end(), 0u), 96u * 128u);
}

TEST(IntegralHistogram, DegenerateAndClampedRegions)
{
    Matrix<satgpu::u8> img(40, 56);
    satgpu::fill_random(img, 83, satgpu::u8{0}, satgpu::u8{255});
    sat::Runtime rt;
    const auto ih = sat::integral_histogram_batched(rt, img, 8);
    const std::vector<std::uint32_t> zeros(8, 0);

    // Reversed and empty rectangles are defined zero-count queries, not
    // aborts (rect_sum's preconditions) or wrapped garbage.
    EXPECT_EQ(ih.region(20, 10, 5, 30), zeros);   // y0 > y1
    EXPECT_EQ(ih.region(5, 30, 20, 10), zeros);   // x0 > x1
    EXPECT_EQ(ih.region(39, 55, 10, 10), zeros);  // both reversed
    EXPECT_EQ(ih.region(100, 0, 200, 55), zeros); // fully below the image
    EXPECT_EQ(ih.region(0, 90, 39, 120), zeros);  // fully right of it

    // A partially overlapping query counts exactly the intersection.
    const auto clamped = ih.region(-7, -9, 12, 300);
    std::vector<std::uint32_t> direct(8, 0);
    for (std::int64_t y = 0; y <= 12; ++y)
        for (std::int64_t x = 0; x < 56; ++x)
            ++direct[static_cast<std::size_t>(img(y, x) / 32)];
    EXPECT_EQ(clamped, direct);

    // Single-pixel rectangle: one count in that pixel's bin.
    const auto one = ih.region(7, 7, 7, 7);
    EXPECT_EQ(std::accumulate(one.begin(), one.end(), 0u), 1u);
    EXPECT_EQ(one[static_cast<std::size_t>(img(7, 7) / 32)], 1u);
}

// ---------------------------------------------------------- segmented scan --

#include "scan/segmented_scan.hpp"

TEST(SegmentedScan, RestartsAtHeads)
{
    simt::LaneVec<int> v = simt::LaneVec<int>::broadcast(1);
    // Segments: [0..9], [10..19], [20..31].
    const simt::LaneMask heads = (1u << 10) | (1u << 20);
    const auto s = scan::segmented_warp_scan(v, heads);
    for (int l = 0; l < simt::kWarpSize; ++l) {
        const int seg_start = l >= 20 ? 20 : (l >= 10 ? 10 : 0);
        EXPECT_EQ(s.get(l), l - seg_start + 1) << "lane " << l;
    }
}

TEST(SegmentedScan, NoHeadsEqualsPlainScan)
{
    std::mt19937_64 rng(123);
    simt::LaneVec<long long> v;
    for (int l = 0; l < simt::kWarpSize; ++l)
        v.set(l, static_cast<long long>(rng() % 50));
    const auto seg = scan::segmented_warp_scan(v, 0u);
    long long acc = 0;
    for (int l = 0; l < simt::kWarpSize; ++l) {
        acc += v.get(l);
        EXPECT_EQ(seg.get(l), acc);
    }
}

TEST(SegmentedScan, EveryLaneAHeadIsIdentity)
{
    simt::LaneVec<int> v;
    for (int l = 0; l < simt::kWarpSize; ++l)
        v.set(l, l * 3 + 1);
    const auto s = scan::segmented_warp_scan(v, simt::kFullMask);
    for (int l = 0; l < simt::kWarpSize; ++l)
        EXPECT_EQ(s.get(l), l * 3 + 1);
}

TEST(SegmentedScan, RandomSegmentsMatchSerial)
{
    std::mt19937_64 rng(7);
    for (int trial = 0; trial < 20; ++trial) {
        simt::LaneVec<int> v;
        simt::LaneMask heads = 0;
        for (int l = 0; l < simt::kWarpSize; ++l) {
            v.set(l, static_cast<int>(rng() % 9));
            if (rng() % 4 == 0)
                heads |= (1u << l);
        }
        const auto s = scan::segmented_warp_scan(v, heads);
        int acc = 0;
        for (int l = 0; l < simt::kWarpSize; ++l) {
            if (l == 0 || simt::lane_active(heads, l))
                acc = 0;
            acc += v.get(l);
            ASSERT_EQ(s.get(l), acc) << "trial " << trial << " lane " << l;
        }
    }
}

// -------------------------------------------------------------------- PGM --

#include "core/pgm.hpp"

#include <cstdio>

TEST(Pgm, RoundTripsEightBitImages)
{
    Matrix<std::uint8_t> img(13, 29);
    satgpu::fill_random(img, 5, std::uint8_t{0}, std::uint8_t{255});
    const std::string path = ::testing::TempDir() + "satgpu_test.pgm";
    ASSERT_TRUE(satgpu::write_pgm(path, img));
    const auto back = satgpu::read_pgm(path);
    EXPECT_EQ(back, img);
    std::remove(path.c_str());
}

TEST(Pgm, NormalizedWriteCoversFullRange)
{
    Matrix<int> m(2, 2);
    m(0, 0) = -50;
    m(1, 1) = 150;
    const std::string path = ::testing::TempDir() + "satgpu_norm.pgm";
    ASSERT_TRUE(satgpu::write_pgm_normalized(path, m));
    const auto back = satgpu::read_pgm(path);
    ASSERT_EQ(back.height(), 2);
    EXPECT_EQ(back(0, 0), 0);
    EXPECT_EQ(back(1, 1), 255);
    std::remove(path.c_str());
}

TEST(Pgm, ReadRejectsGarbage)
{
    const std::string path = ::testing::TempDir() + "satgpu_bad.pgm";
    {
        std::ofstream f(path);
        f << "P6 not a pgm";
    }
    EXPECT_TRUE(satgpu::read_pgm(path).empty());
    EXPECT_TRUE(satgpu::read_pgm("/definitely/not/here.pgm").empty());
    std::remove(path.c_str());
}
