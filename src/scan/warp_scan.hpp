// Shuffle-based parallel warp scans (paper Sec. III-C2).
//
// Four classic prefix networks over one LaneVec (32 lanes, one value each):
//   Kogge-Stone     (Alg. 3)  -- 5 stages, 129 adds/warp
//   Ladner-Fischer  (Alg. 4)  -- 5 stages,  80 adds + 160 ANDs/warp
//   Brent-Kung                -- 9 stages, work-efficient
//   Han-Carlson               -- 6 stages, hybrid
// All are inclusive.  Stage/op counts are asserted in tests against the
// paper's Sec. V-B formulas.  warp_inclusive_scan_tile runs one network
// over the leading rows of a register matrix.
//
// Note: the paper's Alg. 3 line 4 reads "if laneId > i"; the correct
// (and intended, per the add counts in Sec. V-B2) predicate is
// "laneId >= i" -- with ">" the scan would drop v[i-1] from lane i.
#pragma once

#include "simt/lane_vec.hpp"
#include "simt/shuffle.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>

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
template <typename Tile, typename Src>
void lane_major_stage(Tile& t, simt::LaneMask m, Src src)
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

/// The four networks above, stage for stage, on a lane-major tile: calls
/// stage(m, src) for each stage in order, where each lane l in mask m
/// absorbs lane src(l) < l.  No lane ever absorbs itself, so lane 0 is
/// never a destination.
template <typename Stage>
constexpr void lane_major_stages(WarpScanKind kind, Stage stage)
{
    const auto up = [](int d) { return [d](int l) { return l - d; }; };
    switch (kind) {
    case WarpScanKind::kKoggeStone:
        for (int i = 1; i < kWarpSize; i *= 2)
            stage(lanes_from(i), up(i));
        return;
    case WarpScanKind::kLadnerFischer:
        for (int i = 1; i < kWarpSize; i *= 2) {
            simt::LaneMask m = 0;
            for (int l = 0; l < kWarpSize; ++l)
                if ((l & (2 * i - 1)) >= i)
                    m |= 1u << l;
            stage(m, [i](int l) { return (l & ~(2 * i - 1)) | (i - 1); });
        }
        return;
    case WarpScanKind::kBrentKung:
        for (int d = 1; d < kWarpSize; d *= 2) {
            simt::LaneMask m = 0;
            for (int l = 0; l < kWarpSize; ++l)
                if ((l + 1) % (2 * d) == 0)
                    m |= 1u << l;
            stage(m, up(d));
        }
        for (int d = kWarpSize / 4; d >= 1; d /= 2) {
            simt::LaneMask m = 0;
            for (int l = 0; l < kWarpSize; ++l)
                if ((l + 1) % (2 * d) == d && l >= 2 * d)
                    m |= 1u << l;
            stage(m, up(d));
        }
        return;
    case WarpScanKind::kHanCarlson: {
        constexpr simt::LaneMask odd_lanes = 0xaaaaaaaau;
        constexpr simt::LaneMask even_lanes = ~odd_lanes & ~1u;
        stage(odd_lanes, up(1));
        for (int d = 2; d < kWarpSize; d *= 2)
            stage(odd_lanes & lanes_from(d + 1), up(d));
        stage(even_lanes, up(1));
        return;
    }
    }
    SATGPU_CHECK(false, "unknown warp scan kind");
}

/// The networks on a lane-major tile of 32 rows (a transposed LaneTile).
template <typename Tile>
void lane_major_scan(WarpScanKind kind, Tile& t)
{
    lane_major_stages(kind, [&t](simt::LaneMask m, auto src) {
        lane_major_stage(t, m, src);
    });
}

/// One add of a lane-major network: lane `dst` absorbs lane `src`.
struct LaneAdd {
    std::uint8_t dst, src;
};

/// Network K's adds in lane_major_stage's order (stage by stage, lanes
/// descending), listed at compile time: the mask arithmetic is paid once
/// per build, not once per four rows.  Kogge-Stone's 129 adds are the
/// most any network makes.
template <WarpScanKind K>
inline constexpr auto kLaneAdds = [] {
    struct {
        std::array<LaneAdd, 5 * kWarpSize> list{};
        int size = 0;
    } adds;
    lane_major_stages(K, [&adds](simt::LaneMask m, auto src) {
        for (int l = kWarpSize - 1; l > 0; --l)
            if (simt::lane_active(m, l))
                adds.list[static_cast<std::size_t>(adds.size++)] = {
                    static_cast<std::uint8_t>(l),
                    static_cast<std::uint8_t>(src(l))};
    });
    return adds;
}();

/// Network K on the register rows tile[0, rows), four rows at a time
/// (simd::RowQuad): the same adds as lane_major_scan, in the same order,
/// at a cost that follows `rows`.  Rows at and past `rows` are not
/// written (the last quad reads up to three of them and drops their
/// sums).  Integer lanes add in the unsigned type, as LaneVec's
/// operator+ does.
template <WarpScanKind K, typename T>
void lane_major_scan_rows(simt::LaneTile<T>& tile, int rows)
{
    using A = simt::simd::Arith<T>;
    auto* const p = reinterpret_cast<std::byte*>(tile.data());
    simt::simd::RowQuad<A> q;
    for (int r0 = 0; r0 < rows; r0 += 4) {
        const int live = std::min(4, rows - r0);
        simt::simd::load_row_quad<A>(p, r0, q);
        // One statement per add, each with constant lanes.
        [&q]<std::size_t... I>(std::index_sequence<I...>) {
            constexpr auto& adds = kLaneAdds<K>.list;
            ((q[adds[I].dst] = q[adds[I].dst] + q[adds[I].src]), ...);
        }(std::make_index_sequence<kLaneAdds<K>.size>{});
        simt::simd::store_row_quad<A>(p, r0, live, q);
    }
}

template <typename T>
void lane_major_scan_rows(WarpScanKind kind, simt::LaneTile<T>& tile,
                          int rows)
{
    switch (kind) {
    case WarpScanKind::kKoggeStone:
        return lane_major_scan_rows<WarpScanKind::kKoggeStone>(tile, rows);
    case WarpScanKind::kLadnerFischer:
        return lane_major_scan_rows<WarpScanKind::kLadnerFischer>(tile,
                                                                  rows);
    case WarpScanKind::kBrentKung:
        return lane_major_scan_rows<WarpScanKind::kBrentKung>(tile, rows);
    case WarpScanKind::kHanCarlson:
        return lane_major_scan_rows<WarpScanKind::kHanCarlson>(tile, rows);
    }
    SATGPU_CHECK(false, "unknown warp scan kind");
}
} // namespace detail

/// Inclusive warp scan of each of the register rows tile[0, rows): the
/// result of warp_inclusive_scan(kind, tile[j]) for every j < rows; rows
/// at and past `rows` are left untouched.  Instrumented, it is exactly
/// that loop (identical counters).  The uninstrumented lowering moves the
/// rows lane-major so each lane's values of many rows sit in one
/// register, runs the same network with one vector add per participating
/// lane and stage, and moves them back -- the same adds in the same
/// association, bit-exact for float lanes too.  A full tile is transposed
/// whole; a partial one goes four rows at a time, so a short row costs
/// what its live groups do.
template <typename T>
void warp_inclusive_scan_tile(WarpScanKind kind, simt::LaneTile<T>& tile,
                              int rows = kWarpSize)
{
    SATGPU_EXPECTS(rows >= 0 && rows <= kWarpSize);
    if (simt::current_counters() == nullptr &&
        simt::current_hazard_checker() == nullptr) {
        if (rows < kWarpSize) {
            detail::lane_major_scan_rows(kind, tile, rows);
            return;
        }
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
