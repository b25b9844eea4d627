// Native-backend battery (docs/backends.md): the warp primitives' edge
// cases under the UNINSTRUMENTED lowering (no PerfCounters / HazardChecker
// in TLS -- the exact state every native block runs in), bit-identity
// between that lowering and the instrumented one (shared-memory row ops
// included), the block executor's contract, the Runtime's certification
// gate (including refusal of a deliberately broken fixture), and the
// Service's per-backend plan-cache separation.
//
// The primitive tests matter because the fast paths are separate code: a
// shuffle, scan or predicated add that diverges from the instrumented form
// by one bit would silently break the certification contract everywhere.
#include "core/random_fill.hpp"
#include "sat/broken_kernels.hpp"
#include "sat/runtime.hpp"
#include "sat/service.hpp"
#include "scan/warp_scan.hpp"
#include "simt/native_backend.hpp"
#include "simt/shuffle.hpp"
#include "simt/vote.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <source_location>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

namespace sat = satgpu::sat;
namespace scan = satgpu::scan;
namespace simt = satgpu::simt;
using satgpu::Dtype;
using satgpu::DtypePair;
using simt::kWarpSize;
using simt::LaneMask;
using simt::LaneVec;

namespace {

LaneVec<int> iota_vec(int start = 0)
{
    LaneVec<int> v;
    for (int l = 0; l < kWarpSize; ++l)
        v.set(l, start + l);
    return v;
}

LaneVec<float> random_f32_vec(std::uint64_t seed)
{
    // Awkward fractions so any reassociation of the float sums shows up.
    LaneVec<float> v;
    for (int l = 0; l < kWarpSize; ++l)
        v.set(l, static_cast<float>((seed * 31 + static_cast<std::uint64_t>(l) * 2654435761u) % 1000) /
                     7.0f);
    return v;
}

/// Runs `f` with PerfCounters AND a HazardChecker installed -- the fully
/// instrumented slow path -- and returns its result.
template <typename F>
auto instrumented(F&& f)
{
    simt::PerfCounters c;
    simt::CounterScope cs(c);
    simt::HazardChecker hc;
    simt::HazardCheckerScope hs(&hc);
    return f();
}

template <typename T>
void expect_lanes_eq(const LaneVec<T>& a, const LaneVec<T>& b,
                     const char* what)
{
    for (int l = 0; l < kWarpSize; ++l)
        EXPECT_EQ(a.get(l), b.get(l)) << what << " lane " << l;
}

} // namespace

// --------------------------------------------- uninstrumented primitives --

// This binary's test threads carry no TLS instrumentation, so every warp
// primitive below exercises its native-backend fast path.  Assert that
// premise first: if a future harness installs ambient counters, these
// tests would silently test the wrong lowering.
TEST(NativeLowering, TestThreadIsUninstrumented)
{
    EXPECT_EQ(simt::current_counters(), nullptr);
    EXPECT_EQ(simt::current_hazard_checker(), nullptr);
}

TEST(NativeLowering, ShuffleSegmentEdgesAtAllWidths)
{
    const auto v = iota_vec();
    for (const int width : {4, 8, 16, 32}) {
        const auto up = simt::shfl_up(v, 2, width);
        const auto down = simt::shfl_down(v, 2, width);
        const auto xo = simt::shfl_xor(v, width / 2, width);
        const auto bc = simt::shfl(v, width - 1, width);
        const auto wrapped = simt::shfl(v, width + 1, width); // srcLane mod
        for (int l = 0; l < kWarpSize; ++l) {
            EXPECT_EQ(up.get(l), l % width < 2 ? l : l - 2)
                << "up width " << width << " lane " << l;
            EXPECT_EQ(down.get(l), l % width >= width - 2 ? l : l + 2)
                << "down width " << width << " lane " << l;
            EXPECT_EQ(xo.get(l), l ^ (width / 2))
                << "xor width " << width << " lane " << l;
            EXPECT_EQ(bc.get(l), (l / width) * width + width - 1)
                << "shfl width " << width << " lane " << l;
            EXPECT_EQ(wrapped.get(l), (l / width) * width + 1)
                << "shfl-wrap width " << width << " lane " << l;
        }
    }
}

TEST(NativeLowering, ShuffleDeltaBeyondSegmentKeepsOwnValue)
{
    const auto v = iota_vec();
    for (const int width : {4, 8, 16, 32}) {
        const auto up = simt::shfl_up(v, width, width);
        const auto down = simt::shfl_down(v, width, width);
        for (int l = 0; l < kWarpSize; ++l) {
            EXPECT_EQ(up.get(l), l) << "width " << width;
            EXPECT_EQ(down.get(l), l) << "width " << width;
        }
    }
}

// An inactive-source read is deterministic in both lowerings (all 32
// register lanes stay live); the mask only drives hazard REPORTING, which
// is structurally absent here.  The returned values must not depend on it.
TEST(NativeLowering, ShuffleInactiveLaneMasksDoNotPerturbValues)
{
    const auto v = iota_vec(100);
    for (const LaneMask active :
         {LaneMask{0x0000ffffu}, LaneMask{0xaaaaaaaau}, LaneMask{0x1u}}) {
        expect_lanes_eq(simt::shfl_up(v, 1, kWarpSize, active),
                        simt::shfl_up(v, 1), "up/masked");
        expect_lanes_eq(simt::shfl_down(v, 3, kWarpSize, active),
                        simt::shfl_down(v, 3), "down/masked");
        expect_lanes_eq(simt::shfl(v, 5, kWarpSize, active),
                        simt::shfl(v, 5), "bcast/masked");
        expect_lanes_eq(simt::shfl_xor(v, 7, kWarpSize, active),
                        simt::shfl_xor(v, 7), "xor/masked");
    }
}

TEST(NativeLowering, ShufflesMatchInstrumentedLoweringBitExactly)
{
    const auto vi = iota_vec(-16);
    const auto vf = random_f32_vec(9);
    for (const int width : {4, 8, 16, 32}) {
        for (const int d : {0, 1, 2, width - 1, width, width + 1}) {
            const auto fast = simt::shfl_up(vi, d, width);
            const auto slow = instrumented(
                [&] { return simt::shfl_up(vi, d, width); });
            expect_lanes_eq(fast, slow, "up");

            const auto fast_d = simt::shfl_down(vf, d, width);
            const auto slow_d = instrumented(
                [&] { return simt::shfl_down(vf, d, width); });
            expect_lanes_eq(fast_d, slow_d, "down");

            const auto fast_b = simt::shfl(vf, d, width);
            const auto slow_b =
                instrumented([&] { return simt::shfl(vf, d, width); });
            expect_lanes_eq(fast_b, slow_b, "bcast");

            const auto fast_x = simt::shfl_xor(vi, d, width);
            const auto slow_x = instrumented(
                [&] { return simt::shfl_xor(vi, d, width); });
            expect_lanes_eq(fast_x, slow_x, "xor");
        }
    }
}

TEST(NativeLowering, VoteOpsIgnoreInactivePredicateBits)
{
    constexpr LaneMask active = 0x0000ffffu;
    constexpr LaneMask pred = 0xffff0f0fu; // bits outside `active` on purpose
    EXPECT_EQ(simt::ballot(pred, active), pred & active);
    EXPECT_TRUE(simt::any(pred, active));
    EXPECT_FALSE(simt::all(pred, active));
    EXPECT_TRUE(simt::all(0xffffffffu, active));
    EXPECT_FALSE(simt::any(0xffff0000u, active));
    EXPECT_EQ(simt::ballot(0u, active), 0u);
}

TEST(NativeLowering, VaddWhereMaskEdgeCases)
{
    const auto a = random_f32_vec(3);
    const auto b = random_f32_vec(4);
    for (const LaneMask m :
         {LaneMask{0u}, simt::kFullMask, LaneMask{0x55555555u},
          LaneMask{0x80000000u}, LaneMask{0x1u}}) {
        const auto fast = simt::vadd_where(m, a, b);
        const auto slow =
            instrumented([&] { return simt::vadd_where(m, a, b); });
        for (int l = 0; l < kWarpSize; ++l) {
            const float want = simt::lane_active(m, l)
                                   ? a.get(l) + b.get(l)
                                   : a.get(l);
            EXPECT_EQ(fast.get(l), want) << "mask " << m << " lane " << l;
            EXPECT_EQ(fast.get(l), slow.get(l))
                << "mask " << m << " lane " << l;
        }
    }
}

// The 31/32/33 segment edges: a warp covering elements [first, first+32)
// of a run whose length is one less than, exactly, and one more than the
// warp width.  lanes_in_range is the single source of truth every kernel
// mask delegates to.
TEST(NativeLowering, SegmentEdgeMasks31_32_33)
{
    EXPECT_EQ(simt::lanes_in_range(0, 31), 0x7fffffffu);
    EXPECT_EQ(simt::lanes_in_range(0, 32), simt::kFullMask);
    EXPECT_EQ(simt::lanes_in_range(0, 33), simt::kFullMask);
    EXPECT_EQ(simt::lanes_in_range(32, 33), 0x1u);
    EXPECT_EQ(simt::lanes_in_range(32, 31), 0u);
    EXPECT_EQ(simt::lanes_in_range(1, 33), simt::kFullMask);
}

TEST(NativeLowering, ContiguousRowIoHonorsSegmentEdgeMasks)
{
    for (const std::int64_t limit : {31, 32, 33}) {
        simt::DeviceBuffer<int> buf(64, /*fill=*/-1);
        const LaneMask m = simt::lanes_in_range(0, limit);

        simt::DeviceBuffer<int> src(64);
        for (std::int64_t i = 0; i < 64; ++i)
            src.host()[static_cast<std::size_t>(i)] =
                static_cast<int>(1000 + i);

        // Masked load: out-of-range lanes read zero.
        const auto r = src.load_row(0, m);
        for (int l = 0; l < kWarpSize; ++l)
            EXPECT_EQ(r.get(l), l < limit ? 1000 + l : 0)
                << "limit " << limit << " lane " << l;

        // Masked store: out-of-range elements stay untouched.
        buf.store_row(0, r, m);
        for (int l = 0; l < kWarpSize; ++l)
            EXPECT_EQ(buf.host()[static_cast<std::size_t>(l)],
                      l < limit ? 1000 + l : -1)
                << "limit " << limit << " lane " << l;

        // Contiguous row ops match the general gather/scatter lowering.
        const auto gather = src.load(
            LaneVec<std::int64_t>::lane_index() + std::int64_t{8}, m);
        expect_lanes_eq(src.load_row(8, m), gather, "row-vs-gather");
    }
}

// ------------------------------------------------ shared-memory row ops --

namespace {

constexpr int kTileElems = 32 * 33;

/// A 32x33 int tile whose element i holds 5000 + i.
simt::SmemView<int> filled_tile(simt::SharedMemory& smem)
{
    auto v = smem.alloc<int>("tile", kTileElems);
    for (std::int64_t r = 0; r < kTileElems; r += kWarpSize)
        v.store(LaneVec<std::int64_t>::lane_index() + r,
                iota_vec(5000 + static_cast<int>(r)),
                simt::lanes_in_range(r, kTileElems));
    return v;
}

/// The BRLT traffic pattern once through the row ops and once through the
/// per-lane ops they claim to equal, at one shared call site so hazard
/// records and profiler sites can be compared field for field.  Warp 1
/// reads a column before anything is written (uninit reads), warp 0
/// stores rows, warp 1 reads columns back (RAW) and overwrites a row
/// (WAW).  Returns everything the loads saw.
std::vector<int> brlt_traffic(simt::SmemView<int> v, std::int64_t stride,
                              bool row_ops, std::source_location site)
{
    const auto lane = LaneVec<std::int64_t>::lane_index();
    std::vector<int> seen;
    const auto keep = [&](const LaneVec<int>& r) {
        for (int l = 0; l < kWarpSize; ++l)
            seen.push_back(r.get(l));
    };
    simt::HazardChecker* const hc = simt::current_hazard_checker();
    const auto as_warp = [&](int w) {
        if (hc)
            hc->set_active_warp(w);
    };
    as_warp(1);
    keep(row_ops ? v.load_strided(3, stride, simt::kFullMask, site)
                 : v.load(lane * stride + std::int64_t{3}, simt::kFullMask,
                          site));
    as_warp(0);
    for (int j = 0; j < kWarpSize; ++j) {
        const std::int64_t first = j * stride;
        const auto val = iota_vec(100 * j);
        if (row_ops)
            v.store_row(first, val, simt::kFullMask, site);
        else
            v.store(lane + first, val, simt::kFullMask, site);
    }
    as_warp(1);
    for (int j = 0; j < kWarpSize; ++j) {
        keep(row_ops ? v.load_strided(j, stride, simt::kFullMask, site)
                     : v.load(lane * stride + std::int64_t{j},
                              simt::kFullMask, site));
        keep(row_ops ? v.load_row(j * stride, simt::kFullMask, site)
                     : v.load(lane + std::int64_t{j} * stride,
                              simt::kFullMask, site));
    }
    if (row_ops)
        v.store_row(stride, iota_vec(-7), simt::kFullMask, site);
    else
        v.store(lane + stride, iota_vec(-7), simt::kFullMask, site);
    as_warp(-1);
    return seen;
}

void expect_same_hazards(const simt::HazardReport& a,
                         const simt::HazardReport& b)
{
    ASSERT_EQ(a.hazards.size(), b.hazards.size());
    for (std::size_t i = 0; i < a.hazards.size(); ++i) {
        const simt::Hazard& x = a.hazards[i];
        const simt::Hazard& y = b.hazards[i];
        EXPECT_EQ(x.kind, y.kind);
        EXPECT_EQ(x.site, y.site);
        EXPECT_EQ(x.other_site, y.other_site);
        EXPECT_EQ(x.note, y.note);
        EXPECT_EQ(x.count, y.count);
        EXPECT_EQ(x.first_block, y.first_block);
        EXPECT_EQ(x.detail, y.detail);
        EXPECT_EQ(x.warp, y.warp);
        EXPECT_EQ(x.other_warp, y.other_warp);
    }
}

} // namespace

TEST(NativeLowering, SmemRowOpsMatchPerLaneOpsOnFastPath)
{
    simt::SharedMemory smem(8 * 1024);
    const auto v = filled_tile(smem);
    const auto lane = LaneVec<std::int64_t>::lane_index();
    for (const std::int64_t first : {0, 1, 33, 500, kTileElems - 32}) {
        expect_lanes_eq(v.load_row(first), v.load(lane + first),
                        "load_row");
    }
    for (const std::int64_t stride : {0, 1, 32, 33}) {
        for (const std::int64_t first : {0, 5, 32}) {
            expect_lanes_eq(v.load_strided(first, stride),
                            v.load(lane * stride + first), "load_strided");
        }
    }

    simt::SharedMemory a(8 * 1024), b(8 * 1024);
    auto va = filled_tile(a);
    auto vb = filled_tile(b);
    for (const std::int64_t first : {0, 7, 33, kTileElems - 32}) {
        va.store_row(first, iota_vec(-static_cast<int>(first)));
        vb.store(lane + first, iota_vec(-static_cast<int>(first)));
    }
    for (std::int64_t r = 0; r + kWarpSize <= kTileElems; r += kWarpSize)
        expect_lanes_eq(va.load_row(r), vb.load_row(r), "store_row");
}

TEST(NativeLowering, SmemRowOpsMatchPerLaneCountersAndHazards)
{
    // Stride 33 is BRLT's conflict-free padding, 32 its 32-way-conflicted
    // ablation: the delegated path must report both exactly.
    for (const std::int64_t stride : {33, 32}) {
        const auto site = std::source_location::current();
        const auto run = [&](bool row_ops) {
            simt::PerfCounters c;
            simt::HazardChecker hc;
            std::vector<int> seen;
            {
                simt::CounterScope cs(c);
                simt::HazardCheckerScope hs(&hc);
                hc.begin_block(0);
                simt::SharedMemory smem(8 * 1024);
                seen = brlt_traffic(smem.alloc<int>("tile", kTileElems),
                                    stride, row_ops, site);
                hc.end_block();
            }
            return std::tuple{c, hc.build_report(), seen};
        };
        const auto [c_row, h_row, seen_row] = run(true);
        const auto [c_lane, h_lane, seen_lane] = run(false);
        EXPECT_EQ(seen_row, seen_lane) << "stride " << stride;
        EXPECT_TRUE(c_row == c_lane) << "stride " << stride;
        EXPECT_GT(c_row.smem_ld_req, 0u);
        EXPECT_EQ(c_row.smem_ld_trans > c_row.smem_ld_req, stride == 32);
        EXPECT_FALSE(h_row.clean());
        expect_same_hazards(h_row, h_lane);

        // The fast path moves the same data.
        simt::SharedMemory smem(8 * 1024);
        EXPECT_EQ(brlt_traffic(smem.alloc<int>("tile", kTileElems), stride,
                               /*row_ops=*/true, site),
                  seen_lane);
    }
}

TEST(NativeLowering, SmemRowOpsWithPartialMaskTakePerLanePath)
{
    simt::SharedMemory smem(8 * 1024);
    const auto v = filled_tile(smem);
    const auto lane = LaneVec<std::int64_t>::lane_index();
    for (const int limit : {0, 1, 31}) {
        const LaneMask m = simt::lanes_in_range(0, limit);
        // An inactive lane may point past the tile: only active lanes are
        // bounds checked, exactly as in load()/store().
        const std::int64_t first = kTileElems - limit;
        const auto r = v.load_row(first, m);
        expect_lanes_eq(r, v.load(lane + first, m), "masked load_row");
        for (int l = limit; l < kWarpSize; ++l)
            EXPECT_EQ(r.get(l), 0);
        expect_lanes_eq(v.load_strided(first, 1, m),
                        v.load(lane + first, m), "masked load_strided");
    }

    // Masked counts are the per-lane ones (active lanes only).
    simt::PerfCounters c_row, c_lane;
    const LaneMask m = simt::lanes_in_range(0, 5);
    {
        simt::CounterScope cs(c_row);
        simt::SharedMemory s(8 * 1024);
        auto t = s.alloc<int>("tile", kTileElems);
        t.store_row(10, iota_vec(), m);
        (void)t.load_strided(10, 33, m);
    }
    {
        simt::CounterScope cs(c_lane);
        simt::SharedMemory s(8 * 1024);
        auto t = s.alloc<int>("tile", kTileElems);
        t.store(lane + std::int64_t{10}, iota_vec(), m);
        (void)t.load(lane * std::int64_t{33} + std::int64_t{10}, m);
    }
    EXPECT_TRUE(c_row == c_lane);
    EXPECT_EQ(c_row.smem_bytes_st, 5 * sizeof(int));
}

TEST(NativeLoweringDeathTest, SmemRowOpsStillBoundsCheckOnFastPath)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    simt::SharedMemory smem(8 * 1024);
    auto v = smem.alloc<int>("tile", kTileElems);
    EXPECT_DEATH(v.store_row(kTileElems - 31, iota_vec()),
                 "smem store out of bounds");
    EXPECT_DEATH(v.store_row(-1, iota_vec()), "smem store out of bounds");
    EXPECT_DEATH((void)v.load_row(kTileElems - 31),
                 "smem load out of bounds");
    EXPECT_DEATH((void)v.load_strided(2, 34), "smem load out of bounds");
    EXPECT_DEATH((void)v.load_strided(-1, 1), "smem load out of bounds");
}

TEST(NativeLoweringDeathTest, OnDemandArenaStillEnforcesCapacity)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    simt::SharedMemory smem(1024);
    EXPECT_EQ(smem.bytes_used(), 0);
    (void)smem.alloc<int>("small", 8); // grows the arena to 32 bytes
    EXPECT_DEATH((void)smem.alloc<double>("big", 127), "capacity");
    (void)smem.alloc<double>("fits", 124); // 32 + 992 = 1024 exactly
    EXPECT_EQ(smem.bytes_used(), 1024);
}

TEST(NativeLowering, ResetArenaReadsZeroAgain)
{
    simt::SharedMemory smem(8 * 1024);
    auto a = smem.alloc<int>("a", 100);
    for (std::int64_t i = 0; i + kWarpSize <= 100; i += kWarpSize)
        a.store_row(i, iota_vec(1));
    smem.reset();
    EXPECT_EQ(smem.bytes_used(), 0);
    // A different layout over the dirtied bytes: all zero, and a name the
    // previous block declared with another type is free again.
    (void)smem.alloc<char>("pad", 3);
    auto b = smem.alloc<double>("a", 64);
    for (std::int64_t i = 0; i < 64; i += kWarpSize)
        expect_lanes_eq(b.load_row(i), LaneVec<double>{}, "after reset");
}

// ----------------------------------------------------------- warp scans --

TEST(NativeLowering, AllWarpScansMatchInstrumentedBitExactly)
{
    using scan::WarpScanKind;
    for (const WarpScanKind kind :
         {WarpScanKind::kKoggeStone, WarpScanKind::kLadnerFischer,
          WarpScanKind::kBrentKung, WarpScanKind::kHanCarlson}) {
        const auto vf = random_f32_vec(17);
        const auto fast = scan::warp_inclusive_scan(kind, vf);
        const auto slow = instrumented(
            [&] { return scan::warp_inclusive_scan(kind, vf); });
        expect_lanes_eq(fast, slow, scan::to_string(kind).data());

        // And the scan is actually a scan.
        const auto vi = iota_vec(1);
        const auto s = scan::warp_inclusive_scan(kind, vi);
        int acc = 0;
        for (int l = 0; l < kWarpSize; ++l) {
            acc += l + 1;
            EXPECT_EQ(s.get(l), acc)
                << scan::to_string(kind) << " lane " << l;
        }
    }
}

// ------------------------------------------------------ block executor --

namespace {

/// True iff no instrumentation of any kind is installed on this thread.
bool thread_uninstrumented()
{
    return simt::current_counters() == nullptr &&
           simt::current_hazard_checker() == nullptr &&
           simt::current_profiler() == nullptr &&
           simt::current_block().linear < 0;
}

/// Native launch over `blocks` one-warp blocks; counts the blocks that ran
/// with any instrumentation visible.
int native_blocks_instrumented(simt::Engine& eng, std::int64_t blocks)
{
    std::atomic<int> bad{0};
    (void)simt::native_launch(
        eng, {"tls_probe", 8, 0}, {{blocks, 1, 1}, {kWarpSize, 1, 1}},
        [&](simt::NativeBlockCtx&) {
            if (!thread_uninstrumented())
                bad.fetch_add(1);
        });
    return bad.load();
}

} // namespace

TEST(NativeExecutor, BlocksSeeNoInstrumentationFromTheLaunchingThread)
{
    simt::PerfCounters c;
    simt::CounterScope cs(c);
    simt::HazardChecker hc;
    simt::HazardCheckerScope hs(&hc);
    simt::Profiler prof;
    simt::ProfilerScope ps(&prof);
    // One thread: every block runs on the caller; two: the caller shares
    // them with a worker thread.
    for (const int threads : {1, 2}) {
        simt::Engine eng({.num_threads = threads});
        EXPECT_EQ(native_blocks_instrumented(eng, 16), 0) << threads;
    }
    EXPECT_TRUE(c == simt::PerfCounters{}); // nothing reached the caller
    // The caller's sinks were hidden for the launch, not removed.
    EXPECT_EQ(simt::current_counters(), &c);
    EXPECT_EQ(simt::current_hazard_checker(), &hc);
    EXPECT_EQ(simt::current_profiler(), &prof);
}

TEST(NativeExecutor, BlocksSeeNoInstrumentationAfterCheckedProfiledSimLaunch)
{
    // The simulator's parallel branch installs counter, profiler and
    // checker scopes on the very workers the native launch reuses.
    simt::Engine eng({.num_threads = 3, .profile = true, .check = true});
    const auto stats = eng.launch(
        {"sim_first", 8, 128}, {{12, 1, 1}, {2 * kWarpSize, 1, 1}},
        [](simt::WarpCtx& w) -> simt::KernelTask {
            auto sm = w.smem_alloc<int>("t", 2 * kWarpSize);
            sm.store_row(std::int64_t{w.warp_id()} * kWarpSize, iota_vec());
            co_await w.sync();
            (void)sm.load_row(std::int64_t{1 - w.warp_id()} * kWarpSize);
        });
    ASSERT_NE(stats.profile, nullptr);
    ASSERT_NE(stats.hazards, nullptr);
    EXPECT_TRUE(stats.hazards->clean());
    EXPECT_GT(stats.counters.smem_st_req, 0u);
    EXPECT_EQ(native_blocks_instrumented(eng, 24), 0);
}

TEST(NativeExecutor, FaultRethrowsLowestBlockAndEngineRecovers)
{
    simt::Engine eng({.num_threads = 3});
    const simt::LaunchConfig cfg{{8, 4, 1}, {2 * kWarpSize, 1, 1}};
    const auto linear = [](simt::Dim3 b) { return b.y * 8 + b.x; };
    try {
        (void)simt::native_launch(
            eng, {"faulty", 8, 0}, cfg, [&](simt::NativeBlockCtx& blk) {
                auto sm = blk.warp(0).smem_alloc<int>("dirty", kWarpSize);
                sm.store_row(0, iota_vec(1));
                const std::int64_t lin = linear(blk.block_idx());
                if (lin == 29 || lin == 11 || lin == 17)
                    throw std::runtime_error("boom " + std::to_string(lin));
            });
        FAIL() << "expected BlockFault";
    } catch (const simt::BlockFault& f) {
        EXPECT_EQ(f.block_idx.x, 3);
        EXPECT_EQ(f.block_idx.y, 1);
        EXPECT_EQ(f.kernel_name, "faulty");
        EXPECT_NE(std::string(f.what()).find("boom 11"), std::string::npos);
    }

    // Every worker still serves, and every block starts from zeroed smem.
    std::atomic<int> ran{0}, dirty{0};
    const auto stats = simt::native_launch(
        eng, {"after", 8, 0}, cfg, [&](simt::NativeBlockCtx& blk) {
            auto sm = blk.warp(0).smem_alloc<int>("dirty", kWarpSize);
            if ((sm.load_row(0) == LaneVec<int>{}) != simt::kFullMask)
                dirty.fetch_add(1);
            ran.fetch_add(1);
        });
    EXPECT_EQ(ran.load(), 32);
    EXPECT_EQ(dirty.load(), 0);
    EXPECT_EQ(stats.counters.blocks, 32u);
    EXPECT_EQ(stats.smem_used_bytes, kWarpSize * 4);
}

TEST(NativeExecutor, ReusedWorkerArenaIsZeroedPerBlock)
{
    // One worker: every block reuses the previous block's context.  Each
    // block declares a different layout, checks it reads zero, then
    // dirties all of it.
    simt::Engine eng({.num_threads = 1});
    std::atomic<int> nonzero{0};
    std::int64_t peak = 0;
    for (int launch = 0; launch < 2; ++launch) {
        const auto stats = simt::native_launch(
            eng, {"dirty", 8, 0}, {{6, 1, 1}, {kWarpSize, 1, 1}},
            [&](simt::NativeBlockCtx& blk) {
                auto& w = blk.warp(0);
                const auto b = blk.block_idx().x;
                if (b % 2 == 1)
                    (void)w.smem_alloc<char>("skew", b);
                auto ints = w.smem_alloc<int>("ints", 32 * (b + 1));
                auto dbls = w.smem_alloc<double>("dbls", 32 * (6 - b));
                for (std::int64_t i = 0; i < ints.size(); i += kWarpSize) {
                    if ((ints.load_row(i) == LaneVec<int>{}) !=
                        simt::kFullMask)
                        nonzero.fetch_add(1);
                    ints.store_row(i, iota_vec(7));
                }
                for (std::int64_t i = 0; i < dbls.size(); i += kWarpSize) {
                    if ((dbls.load_row(i) == LaneVec<double>{}) !=
                        simt::kFullMask)
                        nonzero.fetch_add(1);
                    dbls.store_row(i, LaneVec<double>::broadcast(2.5));
                }
            });
        peak = std::max(peak, stats.smem_used_bytes);
    }
    EXPECT_EQ(nonzero.load(), 0);
    EXPECT_GT(peak, 0);
}

TEST(NativeExecutor, ConcurrentRuntimesStayBitExact)
{
    // The Service worker shape: each thread owns a Runtime (and so an
    // Engine and its executor) and launches native plans concurrently.
    const DtypePair pair{Dtype::u8_, Dtype::u32_};
    const sat::PlanRequest req{.height = 130,
                               .width = 97,
                               .dtypes = pair,
                               .algorithm = sat::Algorithm::kBrltScanRow,
                               .backend = sat::Backend::kNative};
    std::vector<sat::AnyMatrix> images;
    std::vector<sat::AnyMatrix> want;
    {
        sat::Runtime ref({.record_history = false, .num_threads = 1});
        auto sim_req = req;
        sim_req.backend = sat::Backend::kSim;
        const auto sim = ref.plan(sim_req);
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            images.push_back(sat::AnyMatrix::random(pair.in, 130, 97, seed));
            want.push_back(sim.execute(images.back()).table);
        }
    }
    std::atomic<int> mismatches{0}, not_native{0};
    const auto client = [&](int threads) {
        sat::Runtime rt({.record_history = false, .num_threads = threads});
        const auto plan = rt.plan(req);
        if (plan.backend() != sat::Backend::kNative)
            not_native.fetch_add(1);
        for (int round = 0; round < 6; ++round)
            for (std::size_t i = 0; i < images.size(); ++i)
                if (!(plan.execute(images[i]).table == want[i]))
                    mismatches.fetch_add(1);
    };
    std::thread a(client, 2);
    std::thread b(client, 3);
    a.join();
    b.join();
    EXPECT_EQ(not_native.load(), 0);
    EXPECT_EQ(mismatches.load(), 0);
}

// ------------------------------------------------- runtime certification --

namespace {

constexpr sat::Algorithm kNativeAlgos[] = {sat::Algorithm::kBrltScanRow,
                                           sat::Algorithm::kScanRowBrlt,
                                           sat::Algorithm::kScanRowColumn};

} // namespace

TEST(NativeBackend, BitExactWithSimulatorOnRaggedShapes)
{
    sat::Runtime rt({.record_history = false});
    const struct {
        std::int64_t h, w;
    } shapes[] = {{33, 17}, {64, 31}, {130, 97}};
    const DtypePair pairs[] = {{Dtype::u8_, Dtype::u32_},
                               {Dtype::f32_, Dtype::f32_}};
    for (const auto& pair : pairs)
        for (const auto algo : kNativeAlgos)
            for (const auto& s : shapes) {
                const auto image =
                    sat::AnyMatrix::random(pair.in, s.h, s.w, /*seed=*/7);
                const auto sim = rt.plan({.height = s.h,
                                          .width = s.w,
                                          .dtypes = pair,
                                          .algorithm = algo});
                const auto nat = rt.plan({.height = s.h,
                                          .width = s.w,
                                          .dtypes = pair,
                                          .algorithm = algo,
                                          .backend = sat::Backend::kNative});
                ASSERT_EQ(nat.backend(), sat::Backend::kNative)
                    << sat::to_string(algo);
                EXPECT_TRUE(nat.certified());
                EXPECT_EQ(sim.backend(), sat::Backend::kSim);
                EXPECT_FALSE(sim.certified()); // never probed for kSim
                const auto t_sim = sim.execute(image).table;
                const auto t_nat = nat.execute(image).table;
                EXPECT_TRUE(t_sim == t_nat)
                    << sat::to_string(algo) << " " << s.h << "x" << s.w;
            }
}

TEST(NativeBackend, InstrumentedRequestsForceSimulator)
{
    sat::Runtime rt({.record_history = false});
    const sat::PlanRequest base{.height = 64,
                                .width = 64,
                                .dtypes = {Dtype::f32_, Dtype::f32_},
                                .algorithm = sat::Algorithm::kScanRowColumn,
                                .backend = sat::Backend::kNative};

    auto checked = base;
    checked.check = true;
    EXPECT_EQ(rt.plan(checked).backend(), sat::Backend::kSim);

    auto profiled = base;
    profiled.profile = true;
    EXPECT_EQ(rt.plan(profiled).backend(), sat::Backend::kSim);

    EXPECT_EQ(rt.plan(base).backend(), sat::Backend::kNative);
}

TEST(NativeBackend, AlgorithmWithoutNativeLoweringFallsBack)
{
    sat::Runtime rt({.record_history = false});
    const auto plan = rt.plan({.height = 64,
                               .width = 64,
                               .dtypes = {Dtype::u8_, Dtype::u32_},
                               .algorithm =
                                   sat::Algorithm::kScanTransposeScan,
                               .backend = sat::Backend::kNative});
    EXPECT_EQ(plan.backend(), sat::Backend::kSim);
    EXPECT_FALSE(plan.certified());
}

TEST(NativeBackend, AutoScoresCarryBackendAndCertification)
{
    sat::Runtime rt({.record_history = false});
    const auto plan = rt.plan({.height = 256,
                               .width = 256,
                               .dtypes = {Dtype::f32_, Dtype::f32_},
                               .algorithm = sat::Algorithm::kAuto,
                               .backend = sat::Backend::kAuto});
    ASSERT_FALSE(plan.scores().empty());
    // The winner is the top score, and the plan runs under its backend.
    EXPECT_EQ(plan.algorithm(), plan.scores().front().algo);
    EXPECT_EQ(plan.backend(), plan.scores().front().backend);
    for (const auto& s : plan.scores()) {
        if (s.backend == sat::Backend::kNative)
            EXPECT_TRUE(s.certified) << sat::to_string(s.algo);
        EXPECT_GT(s.predicted_us, 0.0) << sat::to_string(s.algo);
    }
}

// The acceptance-bar fixture: a certification probe wired to a kernel with
// a REAL missing barrier must refuse the native backend, and the refusal
// must not poison the cache once the default probe is restored.
TEST(NativeBackend, BrokenFixtureIsRefusedNativeExecution)
{
    sat::Runtime rt({.record_history = false});
    const sat::PlanRequest req{.height = 64,
                               .width = 64,
                               .dtypes = {Dtype::u8_, Dtype::u32_},
                               .algorithm = sat::Algorithm::kBrltScanRow,
                               .backend = sat::Backend::kNative};

    int probe_calls = 0;
    rt.set_certification_probe([&](sat::Algorithm, const sat::PlanRequest&) {
        ++probe_calls;
        simt::Engine::Options opt;
        opt.record_history = false;
        opt.check = true;
        simt::Engine eng(opt);
        const auto run = sat::broken::run_brlt_missing_barrier(eng);
        // The fixture's whole point: golden output stays correct, the
        // hazard checker still convicts -- so certification must look at
        // the hazards, not the table.
        EXPECT_TRUE(run.output_correct);
        EXPECT_TRUE(run.stats.hazards != nullptr &&
                    !run.stats.hazards->clean());
        return run.stats.hazards != nullptr && run.stats.hazards->clean();
    });

    const auto refused = rt.plan(req);
    EXPECT_EQ(refused.backend(), sat::Backend::kSim);
    EXPECT_FALSE(refused.certified());
    EXPECT_EQ(probe_calls, 1);

    // Verdicts are cached per configuration: a second plan re-uses it.
    (void)rt.plan(req);
    EXPECT_EQ(probe_calls, 1);

    // Restoring the default probe clears the cache; the shipped kernel
    // certifies clean again.
    rt.set_certification_probe(nullptr);
    const auto ok = rt.plan(req);
    EXPECT_EQ(ok.backend(), sat::Backend::kNative);
    EXPECT_TRUE(ok.certified());
}

TEST(NativeBackend, UnsyncedCarryFixtureAlsoConvicts)
{
    // Belt and braces for the other broken fixtures: both produce hazard
    // findings a certification probe would refuse on.
    simt::Engine::Options opt;
    opt.record_history = false;
    opt.check = true;
    simt::Engine eng(opt);
    const auto carry = sat::broken::run_unsynced_smem_tile(eng);
    EXPECT_TRUE(carry.output_correct);
    ASSERT_NE(carry.stats.hazards, nullptr);
    EXPECT_FALSE(carry.stats.hazards->clean());

    const auto tiled = sat::broken::run_tiled_carry_prefix(eng);
    EXPECT_TRUE(tiled.output_correct);
    ASSERT_NE(tiled.stats.hazards, nullptr);
    EXPECT_FALSE(tiled.stats.hazards->clean());
}

// ------------------------------------------------------------- service ----

TEST(ServiceBackend, PlanCacheSeparatesBackendsAndReportsThem)
{
    sat::Service::Options opt;
    opt.workers = 2;
    sat::Service svc(opt);

    const auto image =
        sat::AnyMatrix::random(Dtype::f32_, 64, 48, /*seed=*/11);

    sat::Service::Request sim_req;
    sim_req.image = image;
    sim_req.out = Dtype::f32_;
    sim_req.algorithm = sat::Algorithm::kScanRowColumn;

    auto nat_req = sim_req;
    nat_req.backend = sat::Backend::kNative;

    auto f_sim = svc.submit(sim_req);
    auto f_nat = svc.submit(nat_req);
    const auto t_sim = f_sim.get();
    const auto t_nat = f_nat.get();
    EXPECT_TRUE(t_sim == t_nat);

    // Distinct plan keys: same shape/dtype/algorithm, different backend.
    EXPECT_EQ(svc.plan_cache_size(), 2u);

    const auto plans = svc.plan_info();
    ASSERT_EQ(plans.size(), 2u);
    bool saw_native = false, saw_sim = false;
    for (const auto& p : plans) {
        ASSERT_TRUE(p.resolved);
        EXPECT_EQ(p.algorithm, sat::Algorithm::kScanRowColumn);
        if (p.key.backend == sat::Backend::kNative) {
            saw_native = true;
            EXPECT_EQ(p.backend, sat::Backend::kNative);
            EXPECT_TRUE(p.certified);
            EXPECT_NE(p.label.find("backend=native"), std::string::npos)
                << p.label;
        } else {
            saw_sim = true;
            EXPECT_EQ(p.backend, sat::Backend::kSim);
            EXPECT_EQ(p.label.find("backend="), std::string::npos)
                << p.label;
        }
    }
    EXPECT_TRUE(saw_native);
    EXPECT_TRUE(saw_sim);
}
