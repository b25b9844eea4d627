// Unit tests for the SIMT simulator substrate: lane vectors, shuffle
// semantics (checked against the CUDA __shfl_*_sync definitions), bank
// conflict and coalescing analysis, the coroutine block scheduler, and the
// table storage behind Matrix and DeviceBuffer.
#include "core/dtype.hpp"
#include "core/random_fill.hpp"
#include "simt/access_analysis.hpp"
#include "simt/block_executor.hpp"
#include "simt/engine.hpp"
#include "simt/global_memory.hpp"
#include "simt/lane_vec.hpp"
#include "simt/shared_memory.hpp"
#include "simt/shuffle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>

namespace simt = satgpu::simt;
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

} // namespace

// ---------------------------------------------------------------- LaneVec --

TEST(LaneVec, BroadcastAndIndex)
{
    const auto b = LaneVec<int>::broadcast(7);
    const auto idx = LaneVec<int>::lane_index();
    for (int l = 0; l < kWarpSize; ++l) {
        EXPECT_EQ(b.get(l), 7);
        EXPECT_EQ(idx.get(l), l);
    }
}

TEST(LaneVec, UncountedOperatorsDoNotTouchCounters)
{
    simt::PerfCounters c;
    simt::CounterScope scope(c);
    const auto a = iota_vec();
    const auto r = a + a * 3 - LaneVec<int>::broadcast(1);
    EXPECT_EQ(r.get(5), 5 + 15 - 1);
    EXPECT_EQ(c.lane_add, 0u);
    EXPECT_EQ(c.lane_mul, 0u);
}

TEST(LaneVec, CountedAddCountsAllLanes)
{
    simt::PerfCounters c;
    simt::CounterScope scope(c);
    const auto r = simt::vadd(iota_vec(), iota_vec());
    EXPECT_EQ(r.get(4), 8);
    EXPECT_EQ(c.lane_add, static_cast<std::uint64_t>(kWarpSize));
}

TEST(LaneVec, PredicatedAddCountsActiveLanesOnly)
{
    simt::PerfCounters c;
    simt::CounterScope scope(c);
    const LaneMask m = 0x0000ffffu; // lanes 0..15
    const auto r = simt::vadd_where(m, iota_vec(), iota_vec());
    EXPECT_EQ(c.lane_add, 16u);
    EXPECT_EQ(r.get(3), 6);   // active: doubled
    EXPECT_EQ(r.get(20), 20); // inactive: unchanged
}

TEST(LaneVec, SelectPicksPerLane)
{
    const LaneMask m = 0xaaaaaaaau; // odd lanes
    const auto r = simt::vselect(m, LaneVec<int>::broadcast(1),
                                 LaneVec<int>::broadcast(2));
    EXPECT_EQ(r.get(0), 2);
    EXPECT_EQ(r.get(1), 1);
}

TEST(LaneVec, ComparisonsProduceMasks)
{
    const auto lane = LaneVec<int>::lane_index();
    const LaneMask m = lane < LaneVec<int>::broadcast(4);
    EXPECT_EQ(m, 0xfu);
    EXPECT_EQ(simt::active_lane_count(m), 4);
}

// The shared predication helper behind every ragged tile edge: the warp
// covers lanes [first, first + 32) of a row that ends at `limit`.
TEST(LaneVec, LanesInRangeSegmentEdges)
{
    // 31 / 32 / 33-wide rows seen from the first warp-segment.
    EXPECT_EQ(simt::lanes_in_range(0, 31), 0x7fffffffu);
    EXPECT_EQ(simt::lanes_in_range(0, 32), simt::kFullMask);
    EXPECT_EQ(simt::lanes_in_range(0, 33), simt::kFullMask);
    // The 33-wide row's second segment keeps exactly one lane alive; a
    // 31- or 32-wide row has no second segment at all.
    EXPECT_EQ(simt::lanes_in_range(32, 33), 0x1u);
    EXPECT_EQ(simt::lanes_in_range(32, 32), 0u);
    EXPECT_EQ(simt::lanes_in_range(32, 31), 0u);
    // Empty and inverted ranges are all-off, not UB.
    EXPECT_EQ(simt::lanes_in_range(5, 5), 0u);
    EXPECT_EQ(simt::lanes_in_range(10, 3), 0u);
    EXPECT_EQ(simt::lanes_in_range(64, 33), 0u);
}

TEST(LaneVec, LanesInRangePredicatedCopyAtRaggedWidths)
{
    simt::Engine eng;
    for (const std::int64_t width : {31, 32, 33}) {
        simt::DeviceBuffer<int> src(width), dst(width + 1, -1);
        for (std::int64_t i = 0; i < width; ++i)
            src.host()[static_cast<std::size_t>(i)] = static_cast<int>(i);
        const auto warps = (width + kWarpSize - 1) / kWarpSize;
        const simt::LaunchConfig cfg{{1, 1, 1}, {warps * kWarpSize, 1, 1}};
        eng.launch({"ragged_copy", 1, 0},
                   cfg, [&](simt::WarpCtx& w) -> simt::KernelTask {
                       const std::int64_t first = w.warp_id() * kWarpSize;
                       const LaneMask m = simt::lanes_in_range(first, width);
                       const auto idx =
                           LaneVec<std::int64_t>::lane_index() +
                           LaneVec<std::int64_t>::broadcast(first);
                       dst.store(idx, src.load(idx, m), m);
                       co_return;
                   });
        for (std::int64_t i = 0; i < width; ++i)
            EXPECT_EQ(dst.host()[static_cast<std::size_t>(i)], i)
                << "width " << width;
        // The guard element past the row must stay untouched.
        EXPECT_EQ(dst.host()[static_cast<std::size_t>(width)], -1)
            << "width " << width;
    }
}

// ---------------------------------------------------------------- Shuffle --

TEST(Shuffle, UpMatchesCudaSemantics)
{
    const auto v = iota_vec(100);
    const auto r = simt::shfl_up(v, 3);
    for (int l = 0; l < kWarpSize; ++l)
        EXPECT_EQ(r.get(l), l < 3 ? 100 + l : 100 + l - 3) << "lane " << l;
}

TEST(Shuffle, DownMatchesCudaSemantics)
{
    const auto v = iota_vec();
    const auto r = simt::shfl_down(v, 2);
    for (int l = 0; l < kWarpSize; ++l)
        EXPECT_EQ(r.get(l), l + 2 < kWarpSize ? l + 2 : l) << "lane " << l;
}

TEST(Shuffle, BroadcastLane)
{
    const auto v = iota_vec();
    const auto r = simt::shfl(v, 13);
    for (int l = 0; l < kWarpSize; ++l)
        EXPECT_EQ(r.get(l), 13);
}

TEST(Shuffle, SegmentedBroadcastWidth8)
{
    // width=8: each 8-lane segment broadcasts its own lane (seg*8 + 3).
    const auto v = iota_vec();
    const auto r = simt::shfl(v, 3, 8);
    for (int l = 0; l < kWarpSize; ++l)
        EXPECT_EQ(r.get(l), (l / 8) * 8 + 3) << "lane " << l;
}

TEST(Shuffle, SegmentedUpStopsAtSegmentBoundary)
{
    const auto v = iota_vec();
    const auto r = simt::shfl_up(v, 1, 4);
    for (int l = 0; l < kWarpSize; ++l)
        EXPECT_EQ(r.get(l), l % 4 == 0 ? l : l - 1) << "lane " << l;
}

TEST(Shuffle, XorExchangesButterflyPartners)
{
    const auto v = iota_vec();
    const auto r = simt::shfl_xor(v, 1);
    for (int l = 0; l < kWarpSize; ++l)
        EXPECT_EQ(r.get(l), l ^ 1);
}

TEST(Shuffle, EachCallCountsOneWarpInstruction)
{
    simt::PerfCounters c;
    simt::CounterScope scope(c);
    const auto v = iota_vec();
    (void)simt::shfl_up(v, 1);
    (void)simt::shfl(v, 0);
    (void)simt::shfl_down(v, 1);
    (void)simt::shfl_xor(v, 16);
    EXPECT_EQ(c.warp_shfl, 4u);
}

// Segment edges of all four shuffles at every paper-relevant width: lanes
// whose source would cross a segment boundary keep their own value (up /
// down / xor) or wrap mod width (shfl's CUDA-defined srcLane mod).
TEST(Shuffle, SegmentEdgesAtAllWidths)
{
    const auto v = iota_vec();
    for (const int width : {4, 8, 16, 32}) {
        // up: first `delta` lanes of each segment keep their value.
        const auto up = simt::shfl_up(v, 2, width);
        for (int l = 0; l < kWarpSize; ++l)
            EXPECT_EQ(up.get(l), l % width < 2 ? l : l - 2)
                << "up width " << width << " lane " << l;

        // down: last `delta` lanes of each segment keep their value.
        const auto down = simt::shfl_down(v, 2, width);
        for (int l = 0; l < kWarpSize; ++l)
            EXPECT_EQ(down.get(l), l % width >= width - 2 ? l : l + 2)
                << "down width " << width << " lane " << l;

        // xor with the segment's top bit: partners stay inside the segment.
        const auto xo = simt::shfl_xor(v, width / 2, width);
        for (int l = 0; l < kWarpSize; ++l)
            EXPECT_EQ(xo.get(l), l ^ (width / 2))
                << "xor width " << width << " lane " << l;

        // shfl: in-range src broadcasts per segment...
        const auto bc = simt::shfl(v, width - 1, width);
        for (int l = 0; l < kWarpSize; ++l)
            EXPECT_EQ(bc.get(l), (l / width) * width + width - 1)
                << "shfl width " << width << " lane " << l;
        // ...and an out-of-range src wraps mod width (CUDA/PTX masking).
        const auto wrapped = simt::shfl(v, width + 1, width);
        for (int l = 0; l < kWarpSize; ++l)
            EXPECT_EQ(wrapped.get(l), (l / width) * width + 1)
                << "shfl-wrap width " << width << " lane " << l;
    }
}

// A negative srcLane has no defined hardware meaning; the historical
// `src_lane & (width - 1)` happened to wrap it, now it aborts.
TEST(ShuffleDeathTest, NegativeSourceLaneAborts)
{
    const auto v = iota_vec();
    EXPECT_DEATH((void)simt::shfl(v, -1), "src_lane");
}

// ------------------------------------------------------- Access analysis --

namespace {

simt::ByteAddrs addrs_from_words(const std::array<int, kWarpSize>& words,
                                 int word_bytes = 4)
{
    simt::ByteAddrs a{};
    for (int l = 0; l < kWarpSize; ++l)
        a[static_cast<std::size_t>(l)] =
            static_cast<std::int64_t>(words[static_cast<std::size_t>(l)]) *
            word_bytes;
    return a;
}

} // namespace

TEST(BankConflicts, ContiguousRowAccessIsConflictFree)
{
    std::array<int, kWarpSize> w{};
    std::iota(w.begin(), w.end(), 0);
    EXPECT_EQ(simt::smem_conflict_passes(addrs_from_words(w), simt::kFullMask,
                                         4),
              1);
}

TEST(BankConflicts, Stride32ColumnAccessSerializes32Way)
{
    // Column access of an UNPADDED 32x32 word matrix: lane l touches word
    // l*32 -- every lane hits bank 0.
    std::array<int, kWarpSize> w{};
    for (int l = 0; l < kWarpSize; ++l)
        w[static_cast<std::size_t>(l)] = l * 32;
    EXPECT_EQ(simt::smem_conflict_passes(addrs_from_words(w), simt::kFullMask,
                                         4),
              32);
}

TEST(BankConflicts, PaddedStride33ColumnAccessIsConflictFree)
{
    // Alg. 5 line 2: the 32x33 padding staggers the column across banks.
    std::array<int, kWarpSize> w{};
    for (int l = 0; l < kWarpSize; ++l)
        w[static_cast<std::size_t>(l)] = l * 33;
    EXPECT_EQ(simt::smem_conflict_passes(addrs_from_words(w), simt::kFullMask,
                                         4),
              1);
}

TEST(BankConflicts, SameWordBroadcastsWithoutConflict)
{
    std::array<int, kWarpSize> w{};
    w.fill(17);
    EXPECT_EQ(simt::smem_conflict_passes(addrs_from_words(w), simt::kFullMask,
                                         4),
              1);
}

TEST(BankConflicts, SameBankDifferentWordsConflict)
{
    // Lanes alternate between word 0 and word 32 (both bank 0).
    std::array<int, kWarpSize> w{};
    for (int l = 0; l < kWarpSize; ++l)
        w[static_cast<std::size_t>(l)] = (l % 2) * 32;
    EXPECT_EQ(simt::smem_conflict_passes(addrs_from_words(w), simt::kFullMask,
                                         4),
              2);
}

TEST(BankConflicts, DoubleWidthAccessSplitsIntoTwoHalfWarpTransactions)
{
    // Contiguous 8-byte accesses: one conflict-free transaction per
    // half-warp (each half-warp's 32 words cover all 32 banks once).
    simt::ByteAddrs a{};
    for (int l = 0; l < kWarpSize; ++l)
        a[static_cast<std::size_t>(l)] = static_cast<std::int64_t>(l) * 8;
    EXPECT_EQ(simt::smem_conflict_passes(a, simt::kFullMask, 8), 2);
}

TEST(BankConflicts, PaddedDoubleColumnAccessIsConflictFree)
{
    // Column access of the padded 32x33 DOUBLE matrix (Alg. 5 with T=64f):
    // within each half-warp, lane l touches words l*66 and l*66+1, which
    // land on the 16 even and 16 odd banks exactly once -> 2 clean
    // transactions, same as the contiguous case.
    simt::ByteAddrs a{};
    for (int l = 0; l < kWarpSize; ++l)
        a[static_cast<std::size_t>(l)] = static_cast<std::int64_t>(l) * 33 * 8;
    EXPECT_EQ(simt::smem_conflict_passes(a, simt::kFullMask, 8), 2);
}

TEST(BankConflicts, UnpaddedDoubleColumnAccessSerializes)
{
    // Without padding (stride 32 doubles = 64 words), every lane of a
    // half-warp maps to bank 0/1: 16 distinct words per bank per
    // transaction -> 32 passes total.
    simt::ByteAddrs a{};
    for (int l = 0; l < kWarpSize; ++l)
        a[static_cast<std::size_t>(l)] = static_cast<std::int64_t>(l) * 32 * 8;
    EXPECT_EQ(simt::smem_conflict_passes(a, simt::kFullMask, 8), 32);
}

TEST(BankConflicts, QuadWordAccessSplitsIntoQuarterWarps)
{
    // 16-byte (uint4) contiguous accesses, as in OpenCV's 8u shuffle path:
    // four conflict-free quarter-warp transactions.
    simt::ByteAddrs a{};
    for (int l = 0; l < kWarpSize; ++l)
        a[static_cast<std::size_t>(l)] = static_cast<std::int64_t>(l) * 16;
    EXPECT_EQ(simt::smem_conflict_passes(a, simt::kFullMask, 16), 4);
}

TEST(BankConflicts, InactiveLanesDoNotParticipate)
{
    std::array<int, kWarpSize> w{};
    for (int l = 0; l < kWarpSize; ++l)
        w[static_cast<std::size_t>(l)] = l * 32; // all bank 0
    // Only lanes 0 and 1 active -> 2-way, not 32-way.
    EXPECT_EQ(simt::smem_conflict_passes(addrs_from_words(w), 0x3u, 4), 2);
}

TEST(Coalescing, ContiguousFloatAccessTouchesFourSectors)
{
    simt::ByteAddrs a{};
    for (int l = 0; l < kWarpSize; ++l)
        a[static_cast<std::size_t>(l)] = static_cast<std::int64_t>(l) * 4;
    EXPECT_EQ(simt::gmem_sectors_touched(a, simt::kFullMask, 4), 4);
    EXPECT_EQ(simt::gmem_segments_touched(a, simt::kFullMask, 4), 1);
}

TEST(Coalescing, StridedAccessTouchesThirtyTwoSectors)
{
    // Column walk of a 1024-wide float image: 4096-byte stride.
    simt::ByteAddrs a{};
    for (int l = 0; l < kWarpSize; ++l)
        a[static_cast<std::size_t>(l)] = static_cast<std::int64_t>(l) * 4096;
    EXPECT_EQ(simt::gmem_sectors_touched(a, simt::kFullMask, 4), 32);
}

TEST(Coalescing, ContiguousByteAccessTouchesOneSector)
{
    simt::ByteAddrs a{};
    for (int l = 0; l < kWarpSize; ++l)
        a[static_cast<std::size_t>(l)] = l;
    EXPECT_EQ(simt::gmem_sectors_touched(a, simt::kFullMask, 1), 1);
}

TEST(Coalescing, MisalignedAccessTouchesExtraSector)
{
    simt::ByteAddrs a{};
    for (int l = 0; l < kWarpSize; ++l)
        a[static_cast<std::size_t>(l)] = 16 + static_cast<std::int64_t>(l) * 4;
    EXPECT_EQ(simt::gmem_sectors_touched(a, simt::kFullMask, 4), 5);
}

// ------------------------------------------------------------ SharedMemory --

TEST(SharedMemory, NamedAllocationIsIdempotentAcrossWarps)
{
    simt::SharedMemory smem(4096);
    auto a = smem.alloc<float>("buf", 64);
    auto b = smem.alloc<float>("buf", 64);
    const auto idx = LaneVec<std::int64_t>::lane_index();
    LaneVec<float> val;
    for (int l = 0; l < kWarpSize; ++l)
        val.set(l, static_cast<float>(l) * 1.5f);
    a.store(idx, val);
    const auto back = b.load(idx);
    for (int l = 0; l < kWarpSize; ++l)
        EXPECT_FLOAT_EQ(back.get(l), static_cast<float>(l) * 1.5f);
}

TEST(SharedMemory, CapacityIsEnforced)
{
    simt::SharedMemory smem(128);
    EXPECT_DEATH((void)smem.alloc<double>("big", 1024), "capacity");
}

TEST(SharedMemory, OverAlignedAllocationsRespectAlignof)
{
    // A 1-byte allocation first, then an over-aligned element type: the
    // offset must honor alignof(T), not the historical fixed 8.
    simt::SharedMemory smem(4096);
    (void)smem.alloc<char>("pad", 1);
    auto big = smem.alloc<long double>("wide", 1);
    static_assert(alignof(long double) > 8);
    EXPECT_EQ(smem.bytes_used(),
              static_cast<std::int64_t>(alignof(long double) +
                                        sizeof(long double)));
    // base() asserts alignment internally; a store/load round trip proves
    // the view is usable.
    big.store(LaneVec<std::int64_t>::broadcast(0),
              LaneVec<long double>::broadcast(2.5L), 0x1u);
    EXPECT_EQ(big.load(LaneVec<std::int64_t>::broadcast(0), 0x1u).get(0),
              2.5L);
}

TEST(SharedMemory, Alignof8AndBelowKeepsHistoricalLayout)
{
    // The alignment fix must not move any allocation of an alignof<=8
    // type: offsets still round up to 8 (the bank-conflict goldens and
    // the benchmark JSON depend on this layout).
    simt::SharedMemory smem(4096);
    (void)smem.alloc<char>("a", 3);
    (void)smem.alloc<float>("b", 1);
    EXPECT_EQ(smem.bytes_used(), 8 + 4); // float lands at 8, not 4
    (void)smem.alloc<double>("c", 2);
    EXPECT_EQ(smem.bytes_used(), 16 + 16);
}

TEST(SharedMemory, ConflictCountersAccumulate)
{
    simt::PerfCounters c;
    simt::CounterScope scope(c);
    simt::SharedMemory smem(32 * 33 * 4 + 64);
    auto view = smem.alloc<int>("tile", 32 * 33);

    // Row store (conflict free), then unpadded-style column load (33-stride,
    // also conflict free thanks to padding).
    const auto lane = LaneVec<std::int64_t>::lane_index();
    view.store(lane, LaneVec<int>::broadcast(1));
    (void)view.load(lane * std::int64_t{33});
    EXPECT_EQ(c.smem_st_req, 1u);
    EXPECT_EQ(c.smem_st_trans, 1u);
    EXPECT_EQ(c.smem_ld_req, 1u);
    EXPECT_EQ(c.smem_ld_trans, 1u);

    // 32-stride column load serializes 32-way.
    (void)view.load(lane * std::int64_t{32});
    EXPECT_EQ(c.smem_ld_trans, 1u + 32u);
}

// ------------------------------------------------------------ DeviceBuffer --

TEST(DeviceBuffer, RoundTripsMatrices)
{
    satgpu::Matrix<int> m(3, 5);
    for (std::int64_t y = 0; y < 3; ++y)
        for (std::int64_t x = 0; x < 5; ++x)
            m(y, x) = static_cast<int>(10 * y + x);
    auto buf = simt::DeviceBuffer<int>::from_matrix(m);
    EXPECT_EQ(buf.to_matrix(3, 5), m);
}

TEST(DeviceBuffer, CoalescedLoadCountsSectors)
{
    simt::PerfCounters c;
    simt::CounterScope scope(c);
    simt::DeviceBuffer<float> buf(1024, 2.0f);
    const auto v = buf.load(LaneVec<std::int64_t>::lane_index());
    EXPECT_FLOAT_EQ(v.get(31), 2.0f);
    EXPECT_EQ(c.gmem_ld_req, 1u);
    EXPECT_EQ(c.gmem_ld_sectors, 4u);
    EXPECT_EQ(c.gmem_bytes_ld, 32u * 4u);
}

TEST(DeviceBuffer, InactiveLanesAreUntouched)
{
    simt::PerfCounters c;
    simt::CounterScope scope(c);
    simt::DeviceBuffer<int> buf(64, 0);
    buf.store(LaneVec<std::int64_t>::lane_index(), LaneVec<int>::broadcast(9),
              0x1u);
    EXPECT_EQ(buf.host()[0], 9);
    EXPECT_EQ(buf.host()[1], 0);
    EXPECT_EQ(c.gmem_st_sectors, 1u);
    EXPECT_EQ(c.gmem_bytes_st, 4u);
}

// ----------------------------------------------------------------- Engine --

namespace {

/// Two-phase producer/consumer across warps: each warp writes its id into
/// smem, syncs, then reads its neighbour's value.  Verifies barrier
/// scheduling and per-block smem isolation.
simt::KernelTask neighbour_kernel(simt::WarpCtx& w,
                                  simt::DeviceBuffer<int>& out)
{
    auto sm = w.smem_alloc<int>("ids", static_cast<std::int64_t>(
                                           w.warps_per_block()));
    const auto widx =
        LaneVec<std::int64_t>::broadcast(w.warp_id());
    sm.store(widx, LaneVec<int>::broadcast(w.warp_id()), 0x1u);

    co_await w.sync();

    const int next = (w.warp_id() + 1) % w.warps_per_block();
    const auto got = sm.load(LaneVec<std::int64_t>::broadcast(next), 0x1u);
    const auto out_idx = LaneVec<std::int64_t>::broadcast(
        w.block_idx().x * w.warps_per_block() + w.warp_id());
    out.store(out_idx, got, 0x1u);
    co_return;
}

} // namespace

TEST(Engine, BarrierExchangesDataBetweenWarps)
{
    simt::Engine eng;
    simt::DeviceBuffer<int> out(8 * 4, -1);
    const simt::LaunchConfig cfg{{4, 1, 1}, {8 * kWarpSize, 1, 1}};
    auto stats = eng.launch({"neighbour", 8, 0}, cfg, [&](simt::WarpCtx& w) {
        return neighbour_kernel(w, out);
    });
    for (std::int64_t b = 0; b < 4; ++b)
        for (int wid = 0; wid < 8; ++wid)
            EXPECT_EQ(out.host()[static_cast<std::size_t>(b * 8 + wid)],
                      (wid + 1) % 8)
                << "block " << b << " warp " << wid;
    EXPECT_EQ(stats.counters.blocks, 4u);
    EXPECT_EQ(stats.counters.warps, 32u);
    EXPECT_EQ(stats.counters.barriers, 4u); // one release per block
    EXPECT_EQ(stats.smem_used_bytes, 8 * 4);
}

TEST(Engine, ThreadCoordinatesFollowCudaLinearization)
{
    simt::Engine eng;
    simt::DeviceBuffer<std::int64_t> xs(64), ys(64);
    const simt::LaunchConfig cfg{{1, 1, 1}, {8, 8, 1}}; // 64 threads, 2 warps
    eng.launch({"coords", 8, 0}, cfg, [&](simt::WarpCtx& w) -> simt::KernelTask {
        const auto linear =
            w.lane() + std::int64_t{w.warp_id()} * kWarpSize;
        xs.store(linear, w.thread_x());
        ys.store(linear, w.thread_y());
        co_return;
    });
    for (int t = 0; t < 64; ++t) {
        EXPECT_EQ(xs.host()[static_cast<std::size_t>(t)], t % 8);
        EXPECT_EQ(ys.host()[static_cast<std::size_t>(t)], t / 8);
    }
}

TEST(Engine, KernelExceptionsPropagate)
{
    simt::Engine eng;
    const simt::LaunchConfig cfg{{1, 1, 1}, {kWarpSize, 1, 1}};
    EXPECT_THROW(
        eng.launch({"thrower", 8, 0}, cfg,
                   [&](simt::WarpCtx&) -> simt::KernelTask {
                       throw std::runtime_error("bad kernel");
                       co_return; // unreachable; makes this a coroutine
                   }),
        std::runtime_error);
}

TEST(Engine, HistoryRecordsLaunches)
{
    simt::Engine eng;
    const simt::LaunchConfig cfg{{2, 3, 1}, {64, 1, 1}};
    eng.launch({"k1", 10, 128}, cfg,
               [&](simt::WarpCtx&) -> simt::KernelTask { co_return; });
    ASSERT_EQ(eng.history().size(), 1u);
    EXPECT_EQ(eng.history()[0].info.name, "k1");
    EXPECT_EQ(eng.history()[0].config.total_blocks(), 6);
    EXPECT_EQ(eng.history()[0].config.warps_per_block(), 2);
}

// ----------------------------------------------------------- TableStorage --

namespace {

/// Element counts just below and just above the huge-page threshold.
template <typename T>
constexpr std::int64_t kBelow =
    static_cast<std::int64_t>(satgpu::kFreshMappingBytes / sizeof(T)) - 1;
template <typename T>
constexpr std::int64_t kAbove = kBelow<T> + 2;

template <typename T>
bool all_equal(std::span<const T> v, T want)
{
    return std::all_of(v.begin(), v.end(),
                       [&](T x) { return x == want; });
}

template <typename T>
bool huge_page_aligned(const T* p)
{
    return reinterpret_cast<std::uintptr_t>(p) % satgpu::kHugePageBytes == 0;
}

template <typename T>
void expect_zeroed_around_threshold()
{
    // One slot fills on the caller; three slots split the large buffer
    // into uneven huge-page slices.
    for (const int slots : {1, 3}) {
        simt::BlockExecutor ex(slots, 1024);
        for (const std::int64_t n : {kBelow<T>, kAbove<T>}) {
            const auto buf = simt::DeviceBuffer<T>::zeroed(ex, n);
            ASSERT_EQ(buf.size(), n);
            EXPECT_TRUE(all_equal<T>(buf.host(), T{}))
                << n << " elements, " << slots << " slots";
        }
    }
}

} // namespace

TEST(TableStorage, ZeroedIsValueInitializedAroundTheThreshold)
{
    expect_zeroed_around_threshold<satgpu::u32>();
    expect_zeroed_around_threshold<satgpu::f32>();
}

TEST(TableStorage, LargeBuffersAreHugePageAligned)
{
    simt::BlockExecutor ex(2, 1024);
    const auto zeroed =
        simt::DeviceBuffer<satgpu::u32>::zeroed(ex, kAbove<satgpu::u32>);
    EXPECT_TRUE(huge_page_aligned(zeroed.host().data()));
    const satgpu::Matrix<satgpu::f32> m(1, kAbove<satgpu::f32>);
    EXPECT_TRUE(huge_page_aligned(m.flat().data()));
}

TEST(TableStorage, MatrixConstructorFillsOnBothPaths)
{
    using satgpu::u32;
    for (const std::int64_t n : {kBelow<u32>, kAbove<u32>}) {
        const satgpu::Matrix<u32> m(1, n, 7u);
        EXPECT_TRUE(all_equal<u32>(m.flat(), 7u)) << n;
        const simt::DeviceBuffer<u32> b(n, 9u);
        EXPECT_TRUE(all_equal<u32>(b.host(), 9u)) << n;
    }
}

TEST(TableStorage, ReleaseAndAdoptHandOverTheSameStorage)
{
    using satgpu::u32;
    simt::BlockExecutor ex(2, 1024);
    auto buf = simt::DeviceBuffer<u32>::zeroed(ex, kAbove<u32>);
    const u32* const p = buf.host().data();
    auto m = std::move(buf).release_matrix(1, kAbove<u32>);
    EXPECT_EQ(m.flat().data(), p);
    EXPECT_EQ(buf.size(), 0);
    const auto back = simt::DeviceBuffer<u32>::adopt(std::move(m));
    EXPECT_EQ(back.host().data(), p);
    EXPECT_TRUE(m.empty());
}

TEST(TableStorage, LargeCopiesCompareEqual)
{
    using satgpu::u32;
    satgpu::Matrix<u32> m(2, kAbove<u32> / 2 + 1);
    satgpu::fill_random(m, /*seed=*/11);
    const satgpu::Matrix<u32> copy = m;
    EXPECT_NE(copy.flat().data(), m.flat().data());
    EXPECT_TRUE(copy == m);
    const auto buf = simt::DeviceBuffer<u32>::from_matrix(m);
    EXPECT_TRUE(buf.to_matrix(m.height(), m.width()) == m);
}
