// Shuffle-based parallel warp scans (paper Sec. III-C2).
//
// Four classic prefix networks over one LaneVec (32 lanes, one value each):
//   Kogge-Stone     (Alg. 3)  -- 5 stages, 129 adds/warp
//   Ladner-Fischer  (Alg. 4)  -- 5 stages,  80 adds + 160 ANDs/warp
//   Brent-Kung                -- 9 stages, work-efficient
//   Han-Carlson               -- 6 stages, hybrid
// All are inclusive.  Stage/op counts are asserted in tests against the
// paper's Sec. V-B formulas.  warp_inclusive_scan_tile runs one network
// over all 32 rows of a register matrix.
//
// Note: the paper's Alg. 3 line 4 reads "if laneId > i"; the correct
// (and intended, per the add counts in Sec. V-B2) predicate is
// "laneId >= i" -- with ">" the scan would drop v[i-1] from lane i.
#pragma once

#include "simt/lane_vec.hpp"
#include "simt/shuffle.hpp"

#include <string_view>

namespace satgpu::scan {

using simt::LaneVec;
using simt::kWarpSize;

/// Alg. 3: Kogge-Stone inclusive warp scan.
template <typename T>
[[nodiscard]] LaneVec<T> kogge_stone_scan(LaneVec<T> data)
{
    const auto lane = LaneVec<std::int64_t>::lane_index();
    for (int i = 1; i < kWarpSize; i *= 2) {
        const auto val = simt::shfl_up(data, i);
        const simt::LaneMask m =
            lane >= LaneVec<std::int64_t>::broadcast(i);
        data = simt::vadd_where(m, data, val);
    }
    return data;
}

/// Alg. 4: Ladner-Fischer inclusive warp scan.  Each stage broadcasts lane
/// i-1 of every 2i-wide segment to the segment's upper half.  The predicate
/// costs one warp-wide AND per stage (counted, per N_LF_and in Sec. V-B2).
template <typename T>
[[nodiscard]] LaneVec<T> ladner_fischer_scan(LaneVec<T> data)
{
    const auto lane = LaneVec<std::int64_t>::lane_index();
    for (int i = 1; i < kWarpSize; i *= 2) {
        const auto val = simt::shfl(data, i - 1, 2 * i);
        const auto group = simt::vband(
            lane, LaneVec<std::int64_t>::broadcast(2 * i - 1));
        const simt::LaneMask m =
            group >= LaneVec<std::int64_t>::broadcast(i);
        data = simt::vadd_where(m, data, val);
    }
    return data;
}

/// Brent-Kung inclusive warp scan: up-sweep then down-sweep.
template <typename T>
[[nodiscard]] LaneVec<T> brent_kung_scan(LaneVec<T> data)
{
    // Up-sweep: lane 2d*k + 2d-1 accumulates lane 2d*k + d-1.
    for (int d = 1; d < kWarpSize; d *= 2) {
        const auto val = simt::shfl_up(data, d);
        simt::LaneMask m = 0;
        for (int l = 0; l < kWarpSize; ++l)
            if ((l + 1) % (2 * d) == 0)
                m |= (1u << l);
        data = simt::vadd_where(m, data, val);
    }
    // Down-sweep: lane 2d*k + 3d-1 (k >= 0, lane >= 2d) accumulates
    // lane 2d*k + 2d-1.
    for (int d = kWarpSize / 4; d >= 1; d /= 2) {
        const auto val = simt::shfl_up(data, d);
        simt::LaneMask m = 0;
        for (int l = 0; l < kWarpSize; ++l)
            if ((l + 1) % (2 * d) == d && l >= 2 * d)
                m |= (1u << l);
        data = simt::vadd_where(m, data, val);
    }
    return data;
}

/// Han-Carlson inclusive warp scan: one odd-pair stage, Kogge-Stone over the
/// odd lanes, then a final even-lane fix-up.
template <typename T>
[[nodiscard]] LaneVec<T> han_carlson_scan(LaneVec<T> data)
{
    constexpr simt::LaneMask odd_lanes = 0xaaaaaaaau;
    constexpr simt::LaneMask even_lanes = ~odd_lanes & ~1u; // skip lane 0

    // Stage 1: odd lanes absorb their even neighbour.
    data = simt::vadd_where(odd_lanes, data, simt::shfl_up(data, 1));
    // Kogge-Stone over odd lanes with doubling strides.
    const auto lane = LaneVec<std::int64_t>::lane_index();
    for (int d = 2; d < kWarpSize; d *= 2) {
        const auto val = simt::shfl_up(data, d);
        const simt::LaneMask m =
            odd_lanes & (lane >= LaneVec<std::int64_t>::broadcast(d + 1));
        data = simt::vadd_where(m, data, val);
    }
    // Fix-up: even lanes (except 0) absorb the odd lane below.
    data = simt::vadd_where(even_lanes, data, simt::shfl_up(data, 1));
    return data;
}

enum class WarpScanKind { kKoggeStone, kLadnerFischer, kBrentKung, kHanCarlson };

[[nodiscard]] constexpr std::string_view to_string(WarpScanKind k) noexcept
{
    switch (k) {
    case WarpScanKind::kKoggeStone: return "kogge-stone";
    case WarpScanKind::kLadnerFischer: return "ladner-fischer";
    case WarpScanKind::kBrentKung: return "brent-kung";
    case WarpScanKind::kHanCarlson: return "han-carlson";
    }
    return "?";
}

template <typename T>
[[nodiscard]] LaneVec<T> warp_inclusive_scan(WarpScanKind kind,
                                             const LaneVec<T>& data)
{
    switch (kind) {
    case WarpScanKind::kKoggeStone: return kogge_stone_scan(data);
    case WarpScanKind::kLadnerFischer: return ladner_fischer_scan(data);
    case WarpScanKind::kBrentKung: return brent_kung_scan(data);
    case WarpScanKind::kHanCarlson: return han_carlson_scan(data);
    }
    SATGPU_CHECK(false, "unknown warp scan kind");
}

namespace detail {
/// One stage of a prefix network on a LANE-MAJOR tile (t[l] = lane l of
/// every row): each lane l in `m` absorbs lane src(l) < l, i.e.
/// t[l] = t[l] + t[src(l)] -- vadd_where(m, data, shuffled)'s add, operand
/// order included, for 32 rows at once.  Descending l reads every source
/// at its pre-stage value, as the shuffle does.
template <typename T, typename Src>
void lane_major_stage(simt::LaneTile<T>& t, simt::LaneMask m, Src src)
{
    for (int l = kWarpSize - 1; l > 0; --l)
        if (simt::lane_active(m, l))
            t[static_cast<std::size_t>(l)] =
                t[static_cast<std::size_t>(l)] +
                t[static_cast<std::size_t>(src(l))];
}

/// Lanes l >= first (lane 0 = LSB).
[[nodiscard]] constexpr simt::LaneMask lanes_from(int first) noexcept
{
    return first >= kWarpSize ? 0u : simt::kFullMask << first;
}

/// The four networks above, stage for stage, on a lane-major tile.  No
/// lane ever absorbs itself, so lane 0 is never a destination.
template <typename T>
void lane_major_scan(WarpScanKind kind, simt::LaneTile<T>& t)
{
    const auto up = [](int d) { return [d](int l) { return l - d; }; };
    switch (kind) {
    case WarpScanKind::kKoggeStone:
        for (int i = 1; i < kWarpSize; i *= 2)
            lane_major_stage(t, lanes_from(i), up(i));
        return;
    case WarpScanKind::kLadnerFischer:
        for (int i = 1; i < kWarpSize; i *= 2) {
            simt::LaneMask m = 0;
            for (int l = 0; l < kWarpSize; ++l)
                if ((l & (2 * i - 1)) >= i)
                    m |= 1u << l;
            lane_major_stage(t, m, [i](int l) {
                return (l & ~(2 * i - 1)) | (i - 1);
            });
        }
        return;
    case WarpScanKind::kBrentKung:
        for (int d = 1; d < kWarpSize; d *= 2) {
            simt::LaneMask m = 0;
            for (int l = 0; l < kWarpSize; ++l)
                if ((l + 1) % (2 * d) == 0)
                    m |= 1u << l;
            lane_major_stage(t, m, up(d));
        }
        for (int d = kWarpSize / 4; d >= 1; d /= 2) {
            simt::LaneMask m = 0;
            for (int l = 0; l < kWarpSize; ++l)
                if ((l + 1) % (2 * d) == d && l >= 2 * d)
                    m |= 1u << l;
            lane_major_stage(t, m, up(d));
        }
        return;
    case WarpScanKind::kHanCarlson: {
        constexpr simt::LaneMask odd_lanes = 0xaaaaaaaau;
        constexpr simt::LaneMask even_lanes = ~odd_lanes & ~1u;
        lane_major_stage(t, odd_lanes, up(1));
        for (int d = 2; d < kWarpSize; d *= 2)
            lane_major_stage(t, odd_lanes & lanes_from(d + 1), up(d));
        lane_major_stage(t, even_lanes, up(1));
        return;
    }
    }
    SATGPU_CHECK(false, "unknown warp scan kind");
}
} // namespace detail

/// Inclusive warp scan of each of the register rows tile[0, rows): the
/// result of warp_inclusive_scan(kind, tile[j]) for every j < rows.
/// Instrumented, it is exactly that loop (identical counters).  The
/// uninstrumented lowering transposes the tile so each lane's values of
/// all 32 rows sit in one register, runs the same network with one vector
/// add per participating lane and stage, and transposes back -- the same
/// adds in the same association, bit-exact for float lanes too.  It scans
/// all 32 rows, so rows at and past `rows` are unspecified afterwards.
template <typename T>
void warp_inclusive_scan_tile(WarpScanKind kind, simt::LaneTile<T>& tile,
                              int rows = kWarpSize)
{
    SATGPU_EXPECTS(rows >= 0 && rows <= kWarpSize);
    if (simt::current_counters() == nullptr &&
        simt::current_hazard_checker() == nullptr) {
        simt::transpose_lanes(tile);
        detail::lane_major_scan(kind, tile);
        simt::transpose_lanes(tile);
        return;
    }
    for (int j = 0; j < rows; ++j)
        tile[static_cast<std::size_t>(j)] =
            warp_inclusive_scan(kind, tile[static_cast<std::size_t>(j)]);
}

/// Exclusive variant: shift the inclusive result up one lane (lane 0 -> 0).
template <typename T>
[[nodiscard]] LaneVec<T> warp_exclusive_scan(WarpScanKind kind,
                                             const LaneVec<T>& data)
{
    auto inc = warp_inclusive_scan(kind, data);
    auto shifted = simt::shfl_up(inc, 1);
    shifted.set(0, T{});
    return shifted;
}

} // namespace satgpu::scan
