// Correctness tests for every SAT algorithm: all simulated GPU kernels and
// CPU references are checked against the paper's Alg. 1 oracle across data
// types, shapes (including ragged, non-multiple-of-32 sizes) and inputs.
#include "core/random_fill.hpp"
#include "sat/sat.hpp"

#include <gtest/gtest.h>

#include <cstring>

namespace sat = satgpu::sat;
namespace simt = satgpu::simt;
using satgpu::Matrix;

namespace {

template <typename Tout, typename Tin>
void expect_sat_matches(sat::Algorithm algo, std::int64_t h, std::int64_t w,
                        std::uint64_t seed,
                        sat::Options extra = {})
{
    Matrix<Tin> img(h, w);
    satgpu::fill_random(img, seed);
    const auto want = sat::sat_serial<Tout>(img);

    simt::Engine eng;
    extra.algorithm = algo;
    const auto got = sat::compute_sat<Tout>(eng, img, extra);

    ASSERT_EQ(got.table.height(), h);
    ASSERT_EQ(got.table.width(), w);
    if constexpr (std::is_floating_point_v<Tout>) {
        EXPECT_LE(satgpu::max_abs_diff(got.table, want), 1e-3)
            << sat::to_string(algo) << " " << h << "x" << w;
    } else {
        EXPECT_EQ(got.table, want)
            << sat::to_string(algo) << " " << h << "x" << w;
    }
    // Every algorithm is two kernels, except scan-transpose-scan's four.
    EXPECT_EQ(got.launches.size(),
              algo == sat::Algorithm::kScanTransposeScan ? 4u : 2u);
}

} // namespace

// ----------------------------------------------------- CPU references ------

TEST(CpuReference, SerialMatchesHandComputed)
{
    Matrix<int> img(2, 3);
    img(0, 0) = 1; img(0, 1) = 2; img(0, 2) = 3;
    img(1, 0) = 4; img(1, 1) = 5; img(1, 2) = 6;
    const auto s = sat::sat_serial<int>(img);
    EXPECT_EQ(s(0, 0), 1);
    EXPECT_EQ(s(0, 2), 6);
    EXPECT_EQ(s(1, 0), 5);
    EXPECT_EQ(s(1, 2), 21);
}

TEST(CpuReference, SatOfOnesIsRankProduct)
{
    Matrix<int> img(17, 23);
    satgpu::fill_ones(img);
    const auto s = sat::sat_serial<int>(img);
    for (std::int64_t y = 0; y < 17; ++y)
        for (std::int64_t x = 0; x < 23; ++x)
            EXPECT_EQ(s(y, x), (x + 1) * (y + 1));
}

TEST(CpuReference, TwoPassAndParallelAgreeWithSerial)
{
    Matrix<std::uint8_t> img(37, 53);
    satgpu::fill_random(img, 7);
    const auto a = sat::sat_serial<std::uint32_t>(img);
    EXPECT_EQ(sat::sat_two_pass<std::uint32_t>(img), a);
    EXPECT_EQ(sat::sat_parallel<std::uint32_t>(img, 3), a);
}

TEST(CpuReference, ExclusiveIsShiftedInclusive)
{
    Matrix<int> img(8, 9);
    satgpu::fill_pattern(img);
    const auto inc = sat::sat_serial<int>(img);
    const auto exc = sat::to_exclusive(inc);
    EXPECT_EQ(exc(0, 5), 0);
    EXPECT_EQ(exc(3, 0), 0);
    for (std::int64_t y = 1; y < 8; ++y)
        for (std::int64_t x = 1; x < 9; ++x)
            EXPECT_EQ(exc(y, x), inc(y - 1, x - 1));
}

TEST(CpuReference, RectSumMatchesDirectSummation)
{
    Matrix<int> img(20, 30);
    satgpu::fill_random(img, 11);
    const auto s = sat::sat_serial<long long>(img);
    const auto direct = [&](std::int64_t y0, std::int64_t x0, std::int64_t y1,
                            std::int64_t x1) {
        long long t = 0;
        for (std::int64_t y = y0; y <= y1; ++y)
            for (std::int64_t x = x0; x <= x1; ++x)
                t += img(y, x);
        return t;
    };
    EXPECT_EQ(sat::rect_sum(s, 0, 0, 19, 29), direct(0, 0, 19, 29));
    EXPECT_EQ(sat::rect_sum(s, 3, 4, 10, 12), direct(3, 4, 10, 12));
    EXPECT_EQ(sat::rect_sum(s, 5, 5, 5, 5), direct(5, 5, 5, 5));
    EXPECT_EQ(sat::rect_sum(s, 0, 7, 19, 7), direct(0, 7, 19, 7));
}

// ----------------------------------------- all GPU algorithms, all shapes --

class SatAlgorithms
    : public ::testing::TestWithParam<
          std::tuple<sat::Algorithm, std::pair<std::int64_t, std::int64_t>>> {
};

TEST_P(SatAlgorithms, MatchesSerialOracle32f)
{
    const auto [algo, shape] = GetParam();
    expect_sat_matches<float, float>(algo, shape.first, shape.second, 21);
}

TEST_P(SatAlgorithms, MatchesSerialOracle8u32u)
{
    const auto [algo, shape] = GetParam();
    expect_sat_matches<std::uint32_t, std::uint8_t>(algo, shape.first,
                                                    shape.second, 22);
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, SatAlgorithms,
    ::testing::Combine(
        ::testing::ValuesIn(sat::kAllAlgorithms),
        ::testing::Values(std::pair<std::int64_t, std::int64_t>{1, 1},
                          std::pair<std::int64_t, std::int64_t>{7, 5},
                          std::pair<std::int64_t, std::int64_t>{32, 32},
                          std::pair<std::int64_t, std::int64_t>{33, 31},
                          std::pair<std::int64_t, std::int64_t>{64, 128},
                          std::pair<std::int64_t, std::int64_t>{100, 100},
                          std::pair<std::int64_t, std::int64_t>{256, 160},
                          std::pair<std::int64_t, std::int64_t>{1, 2048},
                          std::pair<std::int64_t, std::int64_t>{2048, 1})),
    [](const auto& pinfo) {
        std::string n{sat::to_string(std::get<0>(pinfo.param))};
        for (char& ch : n)
            if (ch == '-')
                ch = '_';
        return n + "_" + std::to_string(std::get<1>(pinfo.param).first) +
               "x" + std::to_string(std::get<1>(pinfo.param).second);
    });

// Remaining data-type pairs on a ragged medium shape.
TEST(SatDtypes, Proposed8u32s) {
    expect_sat_matches<std::int32_t, std::uint8_t>(
        sat::Algorithm::kBrltScanRow, 97, 130, 31);
}
TEST(SatDtypes, Proposed8u32f) {
    expect_sat_matches<float, std::uint8_t>(sat::Algorithm::kBrltScanRow, 97,
                                            130, 32);
}
TEST(SatDtypes, Proposed32s32s) {
    expect_sat_matches<std::int32_t, std::int32_t>(
        sat::Algorithm::kScanRowBrlt, 97, 130, 33);
}
TEST(SatDtypes, Proposed32u32u) {
    expect_sat_matches<std::uint32_t, std::uint32_t>(
        sat::Algorithm::kScanRowColumn, 97, 130, 34);
}
TEST(SatDtypes, Proposed64f64f)
{
    // 64f exercises the S=4 BRLT grouping and the 512-thread blocks.
    expect_sat_matches<double, double>(sat::Algorithm::kBrltScanRow, 97, 130,
                                       35);
    expect_sat_matches<double, double>(sat::Algorithm::kScanRowBrlt, 97, 130,
                                       36);
    expect_sat_matches<double, double>(sat::Algorithm::kScanRowColumn, 97,
                                       130, 37);
}
TEST(SatDtypes, Opencv64f64f) {
    expect_sat_matches<double, double>(sat::Algorithm::kOpencvLike, 97, 130,
                                       38);
}
TEST(SatDtypes, Npp8u32s)
{
    // The only pairs NPP ships (Sec. VI-B1).
    expect_sat_matches<std::int32_t, std::uint8_t>(sat::Algorithm::kNppLike,
                                                   97, 130, 39);
}
TEST(SatDtypes, Npp8u32f) {
    expect_sat_matches<float, std::uint8_t>(sat::Algorithm::kNppLike, 97, 130,
                                            40);
}

// Larger-than-one-block shapes: multiple chunks along W (chunked carries)
// and many blocks along H.
TEST(SatLarge, BrltScanRowMultiChunk1536)
{
    expect_sat_matches<std::uint32_t, std::uint8_t>(
        sat::Algorithm::kBrltScanRow, 96, 1536, 41);
}
TEST(SatLarge, ScanRowBrltMultiChunk1536)
{
    expect_sat_matches<std::uint32_t, std::uint8_t>(
        sat::Algorithm::kScanRowBrlt, 96, 1536, 42);
}
TEST(SatLarge, ScanRowColumnTall)
{
    // Height > one ScanColumn strip (1024 rows) forces the step carry.
    expect_sat_matches<std::uint32_t, std::uint8_t>(
        sat::Algorithm::kScanRowColumn, 1100, 64, 43);
}
TEST(SatLarge, OpencvMultiChunkRow)
{
    // Width > 512 exercises the 8u uint4 path's chunk carry plus tail.
    expect_sat_matches<std::uint32_t, std::uint8_t>(
        sat::Algorithm::kOpencvLike, 40, 1333, 44);
}
TEST(SatLarge, NppTallColumn)
{
    expect_sat_matches<std::int32_t, std::uint8_t>(sat::Algorithm::kNppLike,
                                                   600, 48, 45);
}

// The unpadded-shared-memory ablation must stay CORRECT (only slower).
TEST(SatAblation, UnpaddedBrltStillCorrect)
{
    sat::Options opt;
    opt.padded_smem = false;
    expect_sat_matches<float, float>(sat::Algorithm::kBrltScanRow, 128, 96,
                                     51, opt);
}

// Ladner-Fischer variant end-to-end (Sec. VI-C1).
TEST(SatScanKind, LadnerFischerMatches)
{
    sat::Options opt;
    opt.warp_scan = satgpu::scan::WarpScanKind::kLadnerFischer;
    expect_sat_matches<float, float>(sat::Algorithm::kScanRowBrlt, 128, 96,
                                     52, opt);
    expect_sat_matches<float, float>(sat::Algorithm::kScanRowColumn, 128, 96,
                                     53, opt);
}

// --------------------------------------------- golden-value regression -----
//
// Bitwise FNV-1a checksums of whole SAT tables for fixed (seed, shape)
// inputs, captured from the current implementation.  Unlike the differential
// tests above (which would pass if the oracle and the kernels drifted
// TOGETHER), these pin the absolute numeric output: any silent change to
// random_fill, the serial oracle, or a kernel's arithmetic fails loudly.
// Float tables are checksummed over their bit patterns, so even a
// reassociation that stays within tolerance of the oracle is caught.

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

template <typename Tout, typename Tin>
std::uint64_t golden_run(sat::Algorithm algo, std::int64_t h, std::int64_t w,
                         std::uint64_t seed)
{
    Matrix<Tin> img(h, w);
    satgpu::fill_random(img, seed);
    simt::Engine eng({.record_history = false});
    return table_checksum(sat::compute_sat<Tout>(eng, img, {algo}).table);
}

} // namespace

TEST(SatGolden, U8ToU32AgreesWithRecordedChecksum)
{
    // Integer SATs are exact, so every algorithm must hit the same value.
    constexpr std::uint64_t kGolden = 0x63305bd51fdc49e3ull;
    for (const auto algo : sat::kAllAlgorithms)
        EXPECT_EQ((golden_run<std::uint32_t, std::uint8_t>(algo, 123, 457,
                                                           2024)),
                  kGolden)
            << sat::to_string(algo);
}

TEST(SatGolden, F32ToF32AgreesWithRecordedChecksum)
{
    // Float results could in principle differ between algorithms (different
    // summation orders); each algorithm therefore pins its own checksum.
    // For this input they happen to coincide -- fill_random's f32 values
    // keep every partial sum exactly representable -- which is itself worth
    // pinning: a kernel change that loses that exactness shows up here.
    struct Golden {
        sat::Algorithm algo;
        std::uint64_t checksum;
    };
    const Golden goldens[] = {
        {sat::Algorithm::kBrltScanRow, 0xfcd80a0ff1b2ebe3ull},
        {sat::Algorithm::kScanRowColumn, 0xfcd80a0ff1b2ebe3ull},
        {sat::Algorithm::kOpencvLike, 0xfcd80a0ff1b2ebe3ull},
    };
    for (const auto& g : goldens)
        EXPECT_EQ((golden_run<float, float>(g.algo, 200, 320, 2025)),
                  g.checksum)
            << sat::to_string(g.algo);
}

TEST(SatGolden, U32ToU64AgreesWithRecordedChecksum)
{
    constexpr std::uint64_t kGolden = 0x60699c4e8b3d7159ull;
    EXPECT_EQ((golden_run<std::uint64_t, std::uint32_t>(
                  sat::Algorithm::kBrltScanRow, 97, 211, 2026)),
              kGolden);
    EXPECT_EQ((golden_run<std::uint64_t, std::uint32_t>(
                  sat::Algorithm::kScanRowBrlt, 97, 211, 2026)),
              kGolden);
}

// ---------------------------------------------- block-level fragments ------
//
// BRLT (Alg. 5) and the Fig. 3c carry are phase-list fragments.  Each test
// runs its fragment in a one-block kernel on both backends: values on
// both, counters on the simulator (a native launch counts no events).

namespace {

constexpr bool kNative[] = {false, true};

struct TileState {
    sat::RegTile<int> data;
};

/// One warp, one 32x32 tile: load it, BRLT-transpose it, store it.
simt::LaunchStats brlt_only(simt::Engine& eng,
                            const simt::DeviceBuffer<int>& in,
                            simt::DeviceBuffer<int>& out, bool padded,
                            bool native)
{
    return simt::launch_phases(
        eng, {"brlt_only", 56, sat::brlt_smem_bytes<int>(padded)},
        {{1, 1, 1}, {simt::kWarpSize, 1, 1}}, native,
        simt::phase_list<TileState>(
            [](simt::Dim3) { return std::int64_t{1}; },
            [&](auto&, TileState& st, std::int64_t) {
                sat::load_tile_rows(in, 32, 32, 0, 0, st.data);
            },
            sat::brlt_transpose_rounds<int>(1, padded),
            [&](auto&, TileState& st, std::int64_t) {
                sat::store_tile_rows(out, 32, 32, 0, 0, st.data);
            }));
}

} // namespace

TEST(Brlt, TransposesASingleTile)
{
    Matrix<int> m(32, 32);
    satgpu::fill_pattern(m);
    auto in = simt::DeviceBuffer<int>::from_matrix(m);
    simt::Engine eng;
    for (const bool native : kNative) {
        simt::DeviceBuffer<int> out(32 * 32);
        (void)brlt_only(eng, in, out, /*padded=*/true, native);
        EXPECT_EQ(out.to_matrix(32, 32), satgpu::transpose(m)) << native;
    }
}

TEST(Brlt, PaddedStagingHasNoBankConflicts)
{
    Matrix<int> m(32, 32);
    satgpu::fill_pattern(m);
    auto in = simt::DeviceBuffer<int>::from_matrix(m);
    simt::Engine eng;
    for (const bool native : kNative) {
        simt::DeviceBuffer<int> out(32 * 32);
        const auto stats = brlt_only(eng, in, out, /*padded=*/true, native);
        EXPECT_EQ(out.to_matrix(32, 32), satgpu::transpose(m)) << native;
        if (native)
            continue;
        // 32 row stores + 32 column loads, every one a single transaction.
        EXPECT_EQ(stats.counters.smem_st_req, 32u);
        EXPECT_EQ(stats.counters.smem_ld_req, 32u);
        EXPECT_EQ(stats.counters.smem_st_trans, 32u);
        EXPECT_EQ(stats.counters.smem_ld_trans, 32u);
        EXPECT_EQ(stats.counters.smem_conflict_factor(), 1.0);
    }
}

TEST(Brlt, UnpaddedStagingSerializesColumnLoads)
{
    Matrix<int> m(32, 32);
    satgpu::fill_pattern(m);
    auto in = simt::DeviceBuffer<int>::from_matrix(m);
    simt::Engine eng;
    for (const bool native : kNative) {
        simt::DeviceBuffer<int> out(32 * 32);
        const auto stats = brlt_only(eng, in, out, /*padded=*/false, native);
        // Still correct.
        EXPECT_EQ(out.to_matrix(32, 32), satgpu::transpose(m)) << native;
        if (native)
            continue;
        EXPECT_EQ(stats.counters.smem_st_trans, 32u);       // rows: clean
        EXPECT_EQ(stats.counters.smem_ld_trans, 32u * 32u); // columns: 32-way
    }
}

TEST(BlockCarry, ComputesExclusivePrefixAndTotal)
{
    constexpr int wc = 8;
    simt::Engine eng;
    for (const bool native : kNative) {
        simt::DeviceBuffer<int> excl(wc, -1), total(wc, -1);
        (void)simt::launch_phases(
            eng, {"carry", 16, sat::block_carry_smem_bytes<int>(wc)},
            {{1, 1, 1}, {wc * simt::kWarpSize, 1, 1}}, native,
            simt::phase_list<sat::CarryState<int>>(
                [](simt::Dim3) { return std::int64_t{1}; },
                // Warp w contributes partial[l] = w+1 in every lane.
                [](auto& w, sat::CarryState<int>& st, std::int64_t) {
                    st.partial =
                        simt::LaneVec<int>::broadcast(w.warp_id() + 1);
                },
                sat::block_carry_steps<int>(),
                [&](auto& w, sat::CarryState<int>& st, std::int64_t) {
                    const auto out_idx =
                        simt::LaneVec<std::int64_t>::broadcast(w.warp_id());
                    excl.store(out_idx, st.exclusive, 0x1u);
                    total.store(out_idx, st.total, 0x1u);
                }));
        // partials are 1..8; exclusive prefix of warp w is w*(w+1)/2.
        for (int w = 0; w < wc; ++w) {
            EXPECT_EQ(excl.host()[static_cast<std::size_t>(w)],
                      w * (w + 1) / 2)
                << native;
            EXPECT_EQ(total.host()[static_cast<std::size_t>(w)], 36)
                << native;
        }
    }
}
