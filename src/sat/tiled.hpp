// Tiled (out-of-core) SAT execution: macro-tiles + carry combine.
//
// The paper's kernels (Sec. IV, Alg. 5) assume the whole image fits one
// launch; this layer removes that assumption.  The image is partitioned
// into macro-tiles (sides multiples of 32, ragged at the right/bottom
// edges), each tile's LOCAL SAT is computed with any shipped Algorithm
// using pooled per-tile buffers, and every local table is then made global
// by adding three carry terms -- the same aggregate-composition idea
// LightScan uses for 1-D decoupled lookback, applied per axis:
//
//     global(y, x) = local(ly, lx)                     within tile (ti, tj)
//                  + row_carry[ti][<tj](ly)     (1)  prefix over the strip
//                                                    to the LEFT: sum of the
//                                                    LAST COLUMN of every
//                                                    local SAT at (ti, tj'<tj)
//                  + col_carry[<ti][tj](lx)     (2)  prefix over the strip
//                                                    ABOVE: sum of the LAST
//                                                    ROW of every local SAT
//                                                    at (ti'<ti, tj)
//                  + corner(ti, tj)             (3)  sum of the TOTALS of all
//                                                    tiles strictly above AND
//                                                    left -- itself the SAT
//                                                    of the tile-totals
//                                                    matrix, shifted by one.
//
// Both phases are embarrassingly parallel (no wavefront): local SATs are
// independent by construction, and the carry terms are read-only once the
// host has reduced the per-tile edge aggregates, so the carry-combine
// launch batches several tiles and lets the parallel block scheduler walk
// them concurrently.  Pooled device memory is bounded by O(tile area)
// regardless of image size, and results are bit-identical to the untiled
// kernels for every tile geometry and thread count (integer dtypes wrap
// identically in any association; float inputs are integer-valued small
// numbers in every shipped fill, keeping the sums exactly representable).
#pragma once

#include "core/math.hpp"
#include "sat/sat.hpp"
#include "simt/profiler.hpp"
#include "simt/shuffle.hpp"

#include <optional>
#include <span>
#include <string_view>

namespace satgpu::sat {

/// Macro-tile geometry.  Disabled (both sides 0) means untiled execution;
/// enabled geometries must have both sides positive multiples of 32
/// (validated by TileGrid).  carry_fanout is an execution policy, not a
/// correctness knob: how many tiles share one carry-combine launch, which
/// bounds the carry phase's pooled footprint at carry_fanout tile buffers
/// while giving the block scheduler cross-tile work.
struct TileGeometry {
    std::int64_t tile_h = 0;
    std::int64_t tile_w = 0;
    int carry_fanout = 4;

    [[nodiscard]] constexpr bool enabled() const noexcept
    {
        return tile_h > 0 || tile_w > 0;
    }
    friend constexpr bool operator==(const TileGeometry&,
                                     const TileGeometry&) noexcept = default;
};

/// Parse "HxW" (e.g. "512x512") into an enabled TileGeometry; nullopt on
/// malformed input or non-positive sides.  Multiple-of-32 validation is
/// TileGrid's job so callers get the same abort message either way.
[[nodiscard]] std::optional<TileGeometry>
parse_tile_geometry(std::string_view s);

/// The validated macro-tile grid over an image: rows() x cols() tiles,
/// each tile_h x tile_w except at the ragged right/bottom edges.
class TileGrid {
public:
    TileGrid(std::int64_t height, std::int64_t width, const TileGeometry& g);

    struct Rect {
        std::int64_t y0, x0, h, w;
    };

    [[nodiscard]] std::int64_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::int64_t cols() const noexcept { return cols_; }
    [[nodiscard]] std::int64_t count() const noexcept { return rows_ * cols_; }
    [[nodiscard]] const TileGeometry& geometry() const noexcept { return geo_; }

    [[nodiscard]] std::int64_t index(std::int64_t ti,
                                     std::int64_t tj) const noexcept
    {
        return ti * cols_ + tj;
    }

    [[nodiscard]] Rect rect(std::int64_t ti, std::int64_t tj) const noexcept
    {
        const std::int64_t y0 = ti * geo_.tile_h;
        const std::int64_t x0 = tj * geo_.tile_w;
        return {y0, x0, std::min(geo_.tile_h, height_ - y0),
                std::min(geo_.tile_w, width_ - x0)};
    }

private:
    std::int64_t height_, width_;
    TileGeometry geo_;
    std::int64_t rows_, cols_;
};

/// One tile's carry-combine operands: the tile's local SAT (updated in
/// place), its two carry-prefix vectors and the scalar corner term.
template <typename T>
struct TileCarryArgs {
    simt::DeviceBuffer<T>* tile = nullptr;            ///< th * tw, in place
    const simt::DeviceBuffer<T>* row_carry = nullptr; ///< th entries
    const simt::DeviceBuffer<T>* col_carry = nullptr; ///< tw entries
    T corner{};
    std::int64_t th = 0;
    std::int64_t tw = 0;
};

/// Carry-combine warp body, the kernel source both lowerings share (W =
/// simt::WarpCtx or simt::NativeWarpCtx): one warp per block; block.x
/// selects a 32-row band of the tile, block.y selects the tile within the
/// launch group.  Each band loads its 32 row-carries once (coalesced,
/// pre-biased by the corner term) and broadcasts row j's scalar with a
/// shuffle, so the data path per element is exactly two adds.  Barrier
/// free, so simt::launch_warps runs it on either backend.
template <typename T, typename W>
void tile_carry_warp(W& w, const TileCarryArgs<T>& a)
{
    const std::int64_t row0 = w.block_idx().x * kWarpSize;
    if (row0 >= a.th)
        return; // band beyond this (shorter, ragged) tile's rows
    const simt::ProfileRange range{"carry-combine"};

    const auto lane = LaneVec<std::int64_t>::lane_index();
    const LaneMask rows = simt::lanes_in_range(row0, a.th);
    const int rows_n = simt::active_lane_count(rows);
    auto rc = a.row_carry->load(lane + row0, rows);
    rc = simt::vadd_where(rows, rc, LaneVec<T>::broadcast(a.corner));

    for (std::int64_t x0 = 0; x0 < a.tw; x0 += kWarpSize) {
        const LaneMask cols = cols_in_range(x0, a.tw);
        const auto cc = a.col_carry->load(lane + x0, cols);
        for (int j = 0; j < rows_n; ++j) {
            const auto rj = simt::shfl(rc, j);
            const auto idx = lane + ((row0 + j) * a.tw + x0);
            auto v = a.tile->load(idx, cols);
            v = simt::vadd_where(cols, v, cc);
            v = simt::vadd_where(cols, v, rj);
            a.tile->store(idx, v, cols);
        }
    }
}

/// Launch the carry combine for a group of tiles (grid.y = tile in group,
/// grid.x = 32-row bands of the tallest tile; shorter tiles' excess bands
/// exit immediately).  Blocks write disjoint rows of per-tile buffers, so
/// the launch respects the engine's disjoint-write discipline.  `native`
/// selects the vectorized host lowering.
template <typename T>
[[nodiscard]] simt::LaunchStats
launch_tile_carry_combine(simt::Engine& eng,
                          std::span<const TileCarryArgs<T>> tiles,
                          bool native)
{
    std::int64_t max_bands = 1;
    for (const auto& a : tiles)
        max_bands =
            std::max(max_bands, ceil_div(a.th, std::int64_t{kWarpSize}));
    const simt::KernelInfo info{"tile_carry_combine", 32, 0};
    const simt::LaunchConfig cfg{
        {max_bands, static_cast<std::int64_t>(tiles.size()), 1},
        {kWarpSize, 1, 1}};
    return simt::launch_warps(eng, info, cfg, native, [&](auto& w) {
        tile_carry_warp<T>(w,
                           tiles[static_cast<std::size_t>(w.block_idx().y)]);
    });
}

/// Synthetic LaunchStats for the whole carry pass of an h x w image under
/// geometry `g` (first-order counter model of tile_carry_warp: two adds,
/// one load and one store per affected element, plus per-band vector
/// traffic).  Feeds the cost model's tiled prediction; never executed.
[[nodiscard]] simt::LaunchStats
predict_tile_carry(std::int64_t height, std::int64_t width,
                   const TileGeometry& g, std::int64_t out_bytes);

/// Compute the inclusive SAT of an arbitrarily large image with macro-tile
/// execution.  `opt.algorithm` runs per tile (kAuto must already be
/// resolved, as for compute_sat); every device buffer is leased from
/// Options::pool, so the pooled high-water mark is O(carry_fanout * tile
/// area) regardless of image size.  The result is bit-identical to
/// compute_sat for every geometry and scheduler thread count.
template <typename Tout, typename Tin>
[[nodiscard]] SatResult<Tout> compute_sat_tiled(simt::Engine& eng,
                                                const Matrix<Tin>& image,
                                                const TileGeometry& geo,
                                                Options opt = {})
{
    const std::int64_t h = image.height();
    const std::int64_t w = image.width();
    SATGPU_EXPECTS(h > 0 && w > 0);
    const TileGrid grid(h, w, geo);
    if (grid.count() == 1) // one tile covers the image: no carries exist
        return compute_sat<Tout>(eng, image, opt);

    const simt::CheckScope check_scope(eng, opt.check);
    const simt::ProfileEnableScope profile_scope(eng, opt.profile);
    SatResult<Tout> res;
    res.table = simt::DeviceBuffer<Tout>::zeroed(eng.executor(), h * w)
                    .release_matrix(h, w);

    // Per-tile boundary aggregates of the local SATs, harvested in phase
    // 1: last column (the tile's row sums), last row (column sums), and
    // bottom-right total.
    const auto nt = static_cast<std::size_t>(grid.count());
    std::vector<std::vector<Tout>> last_col(nt), last_row(nt);
    Matrix<Tout> totals(grid.rows(), grid.cols());

    { // ---- Phase 1: independent local SATs, one pooled workspace each.
        const simt::PhaseScope phase(eng, "tile.compute");
        for (std::int64_t ti = 0; ti < grid.rows(); ++ti)
            for (std::int64_t tj = 0; tj < grid.cols(); ++tj) {
                const auto r = grid.rect(ti, tj);
                Matrix<Tin> sub(r.h, r.w);
                for (std::int64_t y = 0; y < r.h; ++y) {
                    const auto src = image.row(r.y0 + y);
                    std::copy_n(src.data() + r.x0, r.w, sub.row(y).data());
                }
                auto local = compute_sat<Tout>(eng, sub, opt);

                const auto id = static_cast<std::size_t>(grid.index(ti, tj));
                auto& lc = last_col[id];
                lc.resize(static_cast<std::size_t>(r.h));
                for (std::int64_t y = 0; y < r.h; ++y) {
                    const auto dst = res.table.row(r.y0 + y);
                    std::copy_n(local.table.row(y).data(), r.w,
                                dst.data() + r.x0);
                    lc[static_cast<std::size_t>(y)] =
                        local.table(y, r.w - 1);
                }
                const auto bottom = local.table.row(r.h - 1);
                last_row[id].assign(bottom.begin(), bottom.end());
                totals(ti, tj) = local.table(r.h - 1, r.w - 1);

                res.launches.insert(
                    res.launches.end(),
                    std::make_move_iterator(local.launches.begin()),
                    std::make_move_iterator(local.launches.end()));
            }
    }

    // ---- Phase 2 (host): reduce aggregates into per-tile carry terms.
    // Exclusive prefixes along each strip; the corner term is the SAT of
    // the tile-totals matrix shifted by one tile in both axes.
    const Matrix<Tout> corner_sat = sat_serial<Tout>(totals);
    std::vector<std::vector<Tout>> row_carry(nt), col_carry(nt);
    for (std::int64_t ti = 0; ti < grid.rows(); ++ti) {
        std::vector<Tout> acc(
            static_cast<std::size_t>(grid.rect(ti, 0).h), Tout{});
        for (std::int64_t tj = 0; tj < grid.cols(); ++tj) {
            const auto id = static_cast<std::size_t>(grid.index(ti, tj));
            row_carry[id] = acc;
            const auto& lc = last_col[id];
            for (std::size_t y = 0; y < acc.size(); ++y)
                acc[y] = static_cast<Tout>(acc[y] + lc[y]);
        }
    }
    for (std::int64_t tj = 0; tj < grid.cols(); ++tj) {
        std::vector<Tout> acc(
            static_cast<std::size_t>(grid.rect(0, tj).w), Tout{});
        for (std::int64_t ti = 0; ti < grid.rows(); ++ti) {
            const auto id = static_cast<std::size_t>(grid.index(ti, tj));
            col_carry[id] = acc;
            const auto& lr = last_row[id];
            for (std::size_t x = 0; x < acc.size(); ++x)
                acc[x] = static_cast<Tout>(acc[x] + lr[x]);
        }
    }

    { // ---- Phase 3: carry combine, carry_fanout tiles per launch.
        const simt::PhaseScope phase(eng, "tile.carry");
        const int fanout = std::max(1, geo.carry_fanout);

        struct Staged {
            simt::BufferPool::Lease<Tout> tile, rc, cc;
            TileGrid::Rect rect;
        };
        std::vector<Staged> group;
        std::vector<TileCarryArgs<Tout>> args;
        group.reserve(static_cast<std::size_t>(fanout));
        args.reserve(static_cast<std::size_t>(fanout));

        const auto flush = [&]() {
            if (args.empty())
                return;
            res.launches.push_back(launch_tile_carry_combine<Tout>(
                eng, args, opt.backend == Backend::kNative));
            for (const Staged& s : group) {
                const auto host = s.tile->host();
                for (std::int64_t y = 0; y < s.rect.h; ++y)
                    std::copy_n(host.data() + y * s.rect.w, s.rect.w,
                                res.table.row(s.rect.y0 + y).data() +
                                    s.rect.x0);
            }
            args.clear();
            group.clear(); // leases return to the pool here
        };

        for (std::int64_t ti = 0; ti < grid.rows(); ++ti)
            for (std::int64_t tj = 0; tj < grid.cols(); ++tj) {
                if (ti == 0 && tj == 0)
                    continue; // all three carry terms are zero
                const auto r = grid.rect(ti, tj);
                const auto id = static_cast<std::size_t>(grid.index(ti, tj));

                Staged s{simt::acquire_or_new<Tout>(opt.pool, r.h * r.w,
                                                    opt.pool_partition),
                         simt::acquire_or_new<Tout>(opt.pool, r.h,
                                                    opt.pool_partition),
                         simt::acquire_or_new<Tout>(opt.pool, r.w,
                                                    opt.pool_partition), r};
                {
                    const auto th = s.tile->host();
                    for (std::int64_t y = 0; y < r.h; ++y)
                        std::copy_n(res.table.row(r.y0 + y).data() + r.x0,
                                    r.w, th.data() + y * r.w);
                    std::ranges::copy(row_carry[id], s.rc->host().begin());
                    std::ranges::copy(col_carry[id], s.cc->host().begin());
                }
                args.push_back({&*s.tile, &*s.rc, &*s.cc,
                                ti > 0 && tj > 0 ? corner_sat(ti - 1, tj - 1)
                                                 : Tout{},
                                r.h, r.w});
                group.push_back(std::move(s));
                if (static_cast<int>(group.size()) == fanout)
                    flush();
            }
        flush();
    }
    return res;
}

} // namespace satgpu::sat
