// Fused SAT-consumer queries on the tiled pipeline (docs/fused_queries.md).
//
// A query plan never materializes the global H x W table.  Each macro-tile
// is extended by the query's halo (radius rows/cols of neighbor pixels, the
// software-systolic partial windows), its LOCAL SAT is built into a pooled
// buffer by a single-pass block kernel, and the consumer kernel runs
// against that buffer while it is resident.  Every window corner of every
// output pixel resolves inside the extended tile: for a corner at global
// (cy, cx) the local index is (cy - ey0, cx - ex0) >= -1, and -1 keeps the
// usual exclusive-corner meaning (zero row / zero column).  The PR 5 carry
// terms cancel in the a + d - b - c difference, so no carry propagation is
// needed at all -- the halo IS the neighbor-strip prefix information.
//
// Memory traffic (the reason this exists): the classic pipeline pays
// ~13 B/px to build a u8 -> u32 SAT (read input, write+read the transposed
// intermediate, write the table) plus 16 B/px of gather reads in the
// consumer.  The fused path pays ~5 B/px for the single-pass tile SAT
// (input read once, table written once, intermediates live in registers
// and shared memory) and ~5 B/px for the streaming consumer (each SAT row
// read once per 32-column band through a small ring cache) -- a >= 1.8x
// reduction asserted by bench_query via the LaunchStats byte counters.
#pragma once

#include "sat/block_carry.hpp"
#include "sat/launch_params.hpp"
#include "sat/query_spec.hpp"
#include "sat/tiled.hpp"

#include <span>
#include <vector>

namespace satgpu::sat {

/// Result of a query execution: the consumer's output matrix plus the
/// per-kernel stats of every launch that produced it.
template <typename Tout>
struct QueryResult {
    Matrix<Tout> out;
    std::vector<simt::LaunchStats> launches;
};

namespace detail {

// ---- Shared emit formulas -------------------------------------------------
//
// The fused kernel, the materialized gather kernel and the serial oracle
// all funnel through these two helpers, which is what makes the three
// paths bit-identical: integer window sums wrap mod 2^N identically in
// any association, and the float post-processing (means, thresholds) is
// done in double from the SAME wrapped sum everywhere.

/// a + d - b - c.  Integer types wrap (exact mod 2^N in any association);
/// float types are combined in double and rounded once.
template <typename T>
[[nodiscard]] constexpr T window_sum4(T a, T b, T c, T d) noexcept
{
    if constexpr (std::is_integral_v<T>) {
        using U = std::make_unsigned_t<T>;
        return static_cast<T>(static_cast<U>(
            static_cast<U>(static_cast<U>(a) + static_cast<U>(d)) -
            static_cast<U>(static_cast<U>(b) + static_cast<U>(c))));
    } else {
        return static_cast<T>(static_cast<double>(a) +
                              static_cast<double>(d) -
                              static_cast<double>(b) -
                              static_cast<double>(c));
    }
}

/// Output element type of a query spec at SAT dtype Tsat.
template <typename Tsat, typename Spec>
struct query_out;
template <typename Tsat>
struct query_out<Tsat, BoxFilterSpec> {
    using type = f32;
};
template <typename Tsat>
struct query_out<Tsat, AdaptiveThresholdSpec> {
    using type = u8;
};
template <typename Tsat>
struct query_out<Tsat, WindowSumSpec> {
    using type = Tsat;
};
template <typename Tsat>
struct query_out<Tsat, RegionHistogramSpec> {
    using type = u32;
};
template <typename Tsat, typename Spec>
using query_out_t = typename query_out<Tsat, Spec>::type;

/// Centred specs (box / thresh / hist) use the clamped (2r+1)^2 window;
/// WindowSum anchors at the pixel and zeroes where the window hangs off.
template <typename Spec>
inline constexpr bool is_centered_v = !std::is_same_v<Spec, WindowSumSpec>;

/// Post-process one pixel's window sum into the output value.  `dy` and
/// `dx` are the window's height and width (yb - ya and xb - xa of its
/// window_corners; only the mean-based specs read them), `pix` is the
/// pixel's own value (only AdaptiveThreshold reads it).  Callers handle
/// WindowSum's "window does not fit" case (store Tout{}) before calling;
/// here the window is known to resolve.
template <typename Spec, typename Tsat>
[[nodiscard]] query_out_t<Tsat, Spec>
query_emit(const Spec& spec, std::int64_t dy, std::int64_t dx, Tsat sum,
           double pix)
{
    if constexpr (std::is_same_v<Spec, BoxFilterSpec> ||
                  std::is_same_v<Spec, AdaptiveThresholdSpec>) {
        const double area =
            static_cast<double>(dy) * static_cast<double>(dx);
        const double mean = static_cast<double>(sum) / area;
        if constexpr (std::is_same_v<Spec, BoxFilterSpec>)
            return static_cast<f32>(mean);
        else
            return pix < mean * spec.frac ? u8{1} : u8{0};
    } else if constexpr (std::is_same_v<Spec, RegionHistogramSpec>) {
        return static_cast<u32>(sum);
    } else {
        static_assert(std::is_same_v<Spec, WindowSumSpec>);
        return sum;
    }
}

/// Clamped window corners of a centred radius-r window, global
/// coordinates, exclusive top/left (>= -1).
struct Corners {
    std::int64_t ya, xa, yb, xb;
};

template <typename Spec>
[[nodiscard]] constexpr Corners window_corners(const Spec& spec,
                                               std::int64_t y,
                                               std::int64_t x, std::int64_t h,
                                               std::int64_t w) noexcept
{
    if constexpr (is_centered_v<Spec>) {
        const std::int64_t r = std::max<std::int64_t>(0, spec.radius);
        return {std::max<std::int64_t>(0, y - r) - 1, // ya
                std::max<std::int64_t>(0, x - r) - 1, // xa
                std::min(h - 1, y + r),               // yb
                std::min(w - 1, x + r)};              // xb
    } else {
        // Anchored: caller guarantees the window fits (y + win_h <= h,
        // x + win_w <= w); no clamping happens.
        return {y - 1, x - 1, y + spec.win_h - 1, x + spec.win_w - 1};
    }
}

} // namespace detail

// ---- Serial oracle --------------------------------------------------------

/// Host reference for one spec: sat_serial + the shared emit formulas.
/// Bit-identical to both device paths for integer SAT dtypes.
template <typename Tsat, typename Spec, typename Tin>
[[nodiscard]] Matrix<detail::query_out_t<Tsat, Spec>>
query_serial(const Matrix<Tin>& image, const Spec& spec)
{
    using Tout = detail::query_out_t<Tsat, Spec>;
    const std::int64_t h = image.height(), w = image.width();
    const auto sat = sat_serial<Tsat>(image);
    const auto at = [&](std::int64_t y, std::int64_t x) {
        return y < 0 || x < 0 ? Tsat{} : sat(y, x);
    };
    Matrix<Tout> out(h, w);
    for (std::int64_t y = 0; y < h; ++y)
        for (std::int64_t x = 0; x < w; ++x) {
            if constexpr (!detail::is_centered_v<Spec>)
                if (y + spec.win_h > h || x + spec.win_w > w) {
                    out(y, x) = Tout{};
                    continue;
                }
            const auto c = detail::window_corners(spec, y, x, h, w);
            const Tsat sum =
                detail::window_sum4(at(c.ya, c.xa), at(c.ya, c.xb),
                                    at(c.yb, c.xa), at(c.yb, c.xb));
            out(y, x) = detail::query_emit(spec, c.yb - c.ya, c.xb - c.xa,
                                           sum,
                                           static_cast<double>(image(y, x)));
        }
    return out;
}

/// Host reference for RegionHistogram: `bins` stacked count planes.
/// (Specialized shape -- spelled separately so the generic overload keeps
/// a single output plane.)
template <typename Tin>
[[nodiscard]] Matrix<u32> query_serial_hist(const Matrix<Tin>& image,
                                            const RegionHistogramSpec& spec)
{
    static_assert(std::is_same_v<Tin, u8>,
                  "region histograms are defined on 8u images");
    const std::int64_t h = image.height(), w = image.width();
    Matrix<u32> out(static_cast<std::int64_t>(spec.bins) * h, w);
    Matrix<u8> mask(h, w);
    for (int b = 0; b < spec.bins; ++b) {
        for (std::int64_t y = 0; y < h; ++y)
            for (std::int64_t x = 0; x < w; ++x)
                mask(y, x) = bin_of(image(y, x), spec.bins) == b ? u8{1}
                                                                 : u8{0};
        auto plane = query_serial<u32>(mask, spec);
        for (std::int64_t y = 0; y < h; ++y)
            std::copy_n(plane.row(y).data(), w,
                        out.row(std::int64_t{b} * h + y).data());
    }
    return out;
}

namespace detail {

// ---- Single-pass tile SAT kernel ("query_tile_sat") -----------------------
//
// One block per extended tile; warp i owns the 32-column chunk starting at
// column 32*i.  A launch runs as many warps as its widest tile has chunks,
// at most warps_per_block<Tsat>(), so it covers tiles up to that many * 32
// columns wide (wider tiles take the multi-kernel fallback in the driver).
// The block walks 32-row slabs top to bottom; per slab: load the register
// tile, row-scan each register within the chunk, propagate row carries
// across chunks through the block_carry staging matrix, column-scan the
// slab, add the running column carry, store.  The input is read once and
// the local SAT written once -- all intermediates live in registers and
// shared memory, which is where the fused path's traffic win comes from.

template <typename Tsat, typename Tin>
struct TileSatJob {
    const simt::DeviceBuffer<Tin>* in = nullptr; ///< eh * ew extended input
    simt::DeviceBuffer<Tsat>* out = nullptr;     ///< eh * ew local SAT
    std::int64_t h = 0;                          ///< extended tile height
    std::int64_t w = 0;                          ///< extended tile width
};

/// Does the single-pass kernel cover a tile this wide?  (One warp per
/// 32-column chunk, launch_params' warps-per-block budget.)
template <typename Tsat>
[[nodiscard]] constexpr bool tile_sat_fits(std::int64_t width) noexcept
{
    return ceil_div(width, std::int64_t{kWarpSize}) <=
           std::int64_t{warps_per_block<Tsat>()};
}

/// Phase A of one slab, shared by both lowerings: load the register tile,
/// row-scan it within the chunk, and deposit the per-row chunk totals
/// (register lane 31) into this warp's row of the block_carry staging
/// matrix via masked single-lane stores.  Chunks beyond the tile width (a
/// narrower tile in a launch sized for a wider one) deposit zeros so the
/// barrier protocol holds for every warp.
template <typename Tsat, typename Tin, typename W>
void tile_sat_slab_load(W& w, const TileSatJob<Tsat, Tin>& job,
                        std::int64_t row0, scan::WarpScanKind kind,
                        RegTile<Tsat>& regs)
{
    const std::int64_t col0 = std::int64_t{w.warp_id()} * kWarpSize;
    const LaneMask cols = cols_in_range(col0, job.w);
    if (cols != 0) {
        load_tile_rows(*job.in, job.h, job.w, row0, col0, regs);
        scan::warp_inclusive_scan_tile(kind, regs);
    } else {
        regs = RegTile<Tsat>{};
    }
    const int wc = w.warps_per_block();
    auto sm = w.template smem_alloc<Tsat>(
        "carry.partials", static_cast<std::int64_t>(wc) * kWarpSize);
    constexpr LaneMask kLane31 = LaneMask{1} << (kWarpSize - 1);
    for (int r = 0; r < kWarpSize; ++r)
        sm.store(LaneVec<std::int64_t>::broadcast(
                     std::int64_t{w.warp_id()} * kWarpSize + r),
                 regs[static_cast<std::size_t>(r)], kLane31);
}

/// Phase B of one slab (after block_carry_scan has run and been
/// published): gather this warp's exclusive row carries, complete each
/// row's prefix, column-scan the slab, add the running column carry, and
/// store the finished SAT rows.  Barrier free.
template <typename Tsat, typename Tin, typename W>
void tile_sat_slab_finish(W& w, const TileSatJob<Tsat, Tin>& job,
                          std::int64_t row0, RegTile<Tsat>& regs,
                          LaneVec<Tsat>& col_carry)
{
    LaneVec<Tsat> exclusive, block_total;
    block_carry_gather(w, exclusive, block_total);

    const std::int64_t col0 = std::int64_t{w.warp_id()} * kWarpSize;
    const LaneMask cols = cols_in_range(col0, job.w);
    if (cols == 0)
        return; // idle chunk: nothing to scan or store
    // exclusive[r] is row r's carry from the chunks to the left; broadcast
    // it across the row's lanes.
    for (int r = 0; r < kWarpSize; ++r) {
        const auto row_carry = simt::shfl(exclusive, r);
        regs[static_cast<std::size_t>(r)] = simt::vadd_where(
            cols, regs[static_cast<std::size_t>(r)], row_carry);
    }
    scan::serial_scan_registers(regs);
    const auto slab_total = regs[kWarpSize - 1];
    apply_chunk_offset(regs, LaneVec<Tsat>{}, col_carry, slab_total);
    store_tile_rows(*job.out, job.h, job.w, row0, col0, regs);
}

/// Simulator lowering: three barriers per slab (publish deposits, publish
/// the staging scan, protect the staging matrix from the next slab).
template <typename Tsat, typename Tin>
simt::KernelTask query_tile_sat_warp(simt::WarpCtx& w,
                                     const TileSatJob<Tsat, Tin>& job,
                                     scan::WarpScanKind kind)
{
    const std::int64_t slabs = ceil_div(job.h, std::int64_t{kWarpSize});
    RegTile<Tsat> regs;
    LaneVec<Tsat> col_carry{};
    for (std::int64_t s = 0; s < slabs; ++s) {
        const std::int64_t row0 = s * kWarpSize;
        tile_sat_slab_load(w, job, row0, kind, regs);
        co_await w.sync();
        block_carry_scan<Tsat>(w);
        co_await w.sync();
        tile_sat_slab_finish(w, job, row0, regs, col_carry);
        co_await w.sync(); // staging matrix is reused by the next slab
    }
}

/// Native lowering: the same phases, phase-major over the block's warps,
/// each barrier replaced by the loop boundary it certifies.
template <typename Tsat, typename Tin>
void query_tile_sat_block_native(simt::NativeBlockCtx& blk,
                                 const TileSatJob<Tsat, Tin>& job,
                                 scan::WarpScanKind kind)
{
    const int wc = blk.warps_per_block();
    const std::int64_t slabs = ceil_div(job.h, std::int64_t{kWarpSize});
    const auto regs = blk.warp_scratch<RegTile<Tsat>>();
    WarpLanes<Tsat> col_carry{};
    for (std::int64_t s = 0; s < slabs; ++s) {
        const std::int64_t row0 = s * kWarpSize;
        for (int wid = 0; wid < wc; ++wid)
            tile_sat_slab_load(blk.warp(wid), job, row0, kind,
                               regs[static_cast<std::size_t>(wid)]);
        block_carry_scan<Tsat>(blk.warp(0));
        for (int wid = 0; wid < wc; ++wid)
            tile_sat_slab_finish(blk.warp(wid), job, row0,
                                 regs[static_cast<std::size_t>(wid)],
                                 col_carry[static_cast<std::size_t>(wid)]);
    }
}

/// Launch the single-pass tile-SAT kernel for a group of extended tiles
/// (one block each, one warp per 32-column chunk of the widest tile).
/// Every job must satisfy tile_sat_fits.
template <typename Tsat, typename Tin>
[[nodiscard]] simt::LaunchStats
launch_query_tile_sat(simt::Engine& eng,
                      std::span<const TileSatJob<Tsat, Tin>> jobs,
                      scan::WarpScanKind kind, bool native)
{
    std::int64_t max_w = 1;
    for (const auto& j : jobs) {
        SATGPU_EXPECTS(j.h > 0 && tile_sat_fits<Tsat>(j.w));
        max_w = std::max(max_w, j.w);
    }
    const int wc = static_cast<int>(ceil_div(max_w, std::int64_t{kWarpSize}));
    const simt::KernelInfo info{
        "query_tile_sat", regs_per_thread<Tsat>(),
        block_carry_smem_bytes<Tsat>(wc)};
    const simt::LaunchConfig cfg{
        {static_cast<std::int64_t>(jobs.size()), 1, 1}, {kWarpSize, wc, 1}};
    if (native)
        return simt::native_launch(
            eng, info, cfg, [&](simt::NativeBlockCtx& blk) {
                query_tile_sat_block_native(
                    blk,
                    jobs[static_cast<std::size_t>(blk.block_idx().x)],
                    kind);
            });
    return eng.launch(info, cfg, [&](simt::WarpCtx& w) {
        return query_tile_sat_warp(
            w, jobs[static_cast<std::size_t>(w.block_idx().x)], kind);
    });
}

// ---- Fused consumer kernel ------------------------------------------------
//
// One warp per 32-column output band per tile (grid.x = band, grid.y =
// tile in group; barrier free, so ragged bands exit early).  The warp
// walks its band's output rows top to bottom, streaming the local SAT
// through a small ring cache: each SAT row segment the band's window
// corners can touch is loaded ONCE (DeviceBuffer::load_segment: coalesced
// 32-wide chunks when instrumented, one straight copy natively) and stays
// resident for the 2r+2 (centred) or win_h+1 (anchored) rows that read
// it.  Per output pixel the data path is the four corner reads from the
// ring plus three adds -- the streaming analogue of the classic gather
// consumer, at ~1/3 of its read traffic.
//
// The ring is laid out so the per-pixel loop has no index arithmetic
// beyond two table lookups: every ring row carries a leading zero column
// (the exclusive -1 corner column), one extra all-zero row stands in for
// the exclusive -1 corner row, and the two corner rows are resolved to
// row pointers once per output row.  The per-lane corner columns and
// window widths are resolved once per band (ConsumerBand).

/// The extended rectangle a tile stages: the tile rect grown by the
/// query halo, clamped to the image.
struct ExtRect {
    std::int64_t y0 = 0, x0 = 0, h = 0, w = 0;
};

[[nodiscard]] inline ExtRect extend_rect(const TileGrid::Rect& r,
                                         const QueryHalo& halo,
                                         std::int64_t height,
                                         std::int64_t width) noexcept
{
    const std::int64_t y0 = std::max<std::int64_t>(0, r.y0 - halo.top);
    const std::int64_t x0 = std::max<std::int64_t>(0, r.x0 - halo.left);
    const std::int64_t y1 = std::min(height, r.y0 + r.h + halo.bottom);
    const std::int64_t x1 = std::min(width, r.x0 + r.w + halo.right);
    return {y0, x0, y1 - y0, x1 - x0};
}

/// One tile's fused-consumer operands.
template <typename Tsat, typename Tin, typename Tout>
struct ConsumerJob {
    const simt::DeviceBuffer<Tsat>* sat = nullptr; ///< eh * ew local SAT
    const simt::DeviceBuffer<Tin>* in = nullptr;   ///< eh * ew ext input
    simt::DeviceBuffer<Tout>* out = nullptr;       ///< out_h * W output
    std::int64_t height = 0, width = 0; ///< image shape
    TileGrid::Rect rect{};              ///< output tile rect
    ExtRect ext{};                      ///< staged extended rect
    std::int64_t out_row0 = 0;          ///< output row bias (hist planes)
};

/// One band's consumer geometry, resolved once per band.  The ring caches
/// local-SAT columns [seg_lo, seg_lo + seg_len) of the last `depth` rows
/// at ring columns 1..seg_len; ring column 0 is the zero column, so a
/// corner at local column c reads ring column c - seg_lo + 1 (0 for the
/// exclusive c = -1).
struct ConsumerBand {
    std::int64_t c0 = 0;  ///< global column of lane 0
    LaneMask m = 0;       ///< lanes inside the tile (the stored lanes)
    LaneMask valid = 0;   ///< lanes whose window resolves (emit a sum)
    std::array<std::int64_t, kWarpSize> ca{}, cb{}; ///< corner ring cols
    std::array<std::int64_t, kWarpSize> dx{};       ///< window widths
    std::int64_t seg_lo = 0, seg_len = 0, depth = 0;

    [[nodiscard]] std::int64_t stride() const noexcept { return seg_len + 1; }
    /// Ring storage: `depth` cached rows plus the zero row.
    [[nodiscard]] std::int64_t ring_elems() const noexcept
    {
        return (depth + 1) * stride();
    }
};

template <typename Spec, typename Tsat, typename Tin, typename Tout>
[[nodiscard]] ConsumerBand
consumer_band(const ConsumerJob<Tsat, Tin, Tout>& job, const Spec& spec,
              std::int64_t band_idx)
{
    ConsumerBand b;
    b.c0 = job.rect.x0 + band_idx * kWarpSize;
    b.m = simt::lanes_in_range(b.c0, job.rect.x0 + job.rect.w);
    if (b.m == 0)
        return b; // ragged band beyond this tile's columns
    const std::int64_t cmax = b.c0 + simt::active_lane_count(b.m) - 1;

    // Column-valid lanes and the per-lane corner columns, local to the
    // extended rect.  For anchored specs lanes whose window hangs off the
    // right edge emit Tout{} instead of a window sum.
    b.valid = b.m;
    std::array<std::int64_t, kWarpSize> lxa{}, lxb{};
    std::int64_t seg_hi = 0;
    for (int l = 0; l < kWarpSize; ++l) {
        const std::int64_t x = b.c0 + l;
        if constexpr (!is_centered_v<Spec>)
            if (x + spec.win_w > job.width)
                b.valid &= ~(LaneMask{1} << l);
        const auto c = window_corners(spec, 0, x, job.height, job.width);
        lxa[static_cast<std::size_t>(l)] = c.xa - job.ext.x0;
        lxb[static_cast<std::size_t>(l)] = c.xb - job.ext.x0;
    }
    b.seg_lo = std::max<std::int64_t>(0, lxa[0]);
    if constexpr (is_centered_v<Spec>) {
        const std::int64_t r = std::max<std::int64_t>(0, spec.radius);
        seg_hi = std::min(job.width - 1, cmax + r) - job.ext.x0;
        b.depth = 2 * r + 2;
    } else {
        const std::int64_t xvmax =
            b.valid ? b.c0 + simt::active_lane_count(b.valid) - 1 : b.c0;
        seg_hi = std::min(job.ext.w - 1,
                          xvmax + spec.win_w - 1 - job.ext.x0);
        b.depth = spec.win_h + 1;
    }
    b.seg_len = seg_hi - b.seg_lo + 1;
    for (std::size_t l = 0; l < kWarpSize; ++l) {
        b.ca[l] = lxa[l] - b.seg_lo + 1;
        b.cb[l] = lxb[l] - b.seg_lo + 1;
        b.dx[l] = lxb[l] - lxa[l];
    }
    return b;
}

/// Shared body of the fused consumer (both lowerings) for one band with
/// `ring` (band.ring_elems() elements, any prior contents) as its cache.
template <typename Spec, typename Tsat, typename Tin, typename Tout>
void query_consumer_body(const ConsumerJob<Tsat, Tin, Tout>& job,
                         const Spec& spec, const ConsumerBand& band,
                         std::span<Tsat> ring)
{
    const simt::ProfileRange range{"query-consume"};
    SATGPU_EXPECTS(static_cast<std::int64_t>(ring.size()) >=
                   band.ring_elems());
    const std::int64_t stride = band.stride();
    Tsat* const zero_row = ring.data() + band.depth * stride;
    std::fill_n(zero_row, stride, Tsat{});
    for (std::int64_t s = 0; s < band.depth; ++s)
        ring[static_cast<std::size_t>(s * stride)] = Tsat{};
    // Local SAT rows are loaded in ascending order, each exactly once;
    // row -1 (the exclusive zero row) is the extra zero row.
    std::int64_t loaded = -1;
    const auto row_ptr = [&](std::int64_t row) -> const Tsat* {
        return row < 0 ? zero_row
                       : ring.data() + (row % band.depth) * stride;
    };
    const auto& sat = *job.sat;

    for (std::int64_t y = job.rect.y0; y < job.rect.y0 + job.rect.h; ++y) {
        LaneMask emit = band.valid;
        if constexpr (!is_centered_v<Spec>)
            if (y + spec.win_h > job.height)
                emit = 0; // window hangs off the bottom: whole row is zero
        LaneVec<Tout> vals{};
        if (emit != 0) {
            // Row corners, local to the extended rect (>= -1; -1 is the
            // exclusive zero row -- the tile carries cancelled here).
            const auto cy =
                window_corners(spec, y, band.c0, job.height, job.width);
            const std::int64_t lya = cy.ya - job.ext.y0;
            const std::int64_t lyb = cy.yb - job.ext.y0;
            while (loaded < lyb) {
                ++loaded;
                sat.load_segment(
                    loaded * job.ext.w + band.seg_lo,
                    ring.subspan(static_cast<std::size_t>(
                                     (loaded % band.depth) * stride + 1),
                                 static_cast<std::size_t>(band.seg_len)));
            }
            const Tsat* const ra = row_ptr(lya);
            const Tsat* const rb = row_ptr(lyb);
            const std::int64_t dy = cy.yb - cy.ya;
            LaneVec<double> pix{};
            if constexpr (std::is_same_v<Spec, AdaptiveThresholdSpec>) {
                const auto pv = job.in->load_row(
                    (y - job.ext.y0) * job.ext.w + (band.c0 - job.ext.x0),
                    emit);
                for (int l = 0; l < kWarpSize; ++l)
                    pix.set(l, static_cast<double>(pv.get(l)));
            }
            for (int l = 0; l < kWarpSize; ++l) {
                if (!simt::lane_active(emit, l))
                    continue;
                const auto li = static_cast<std::size_t>(l);
                const std::int64_t a = band.ca[li], b = band.cb[li];
                const Tsat sum = window_sum4(ra[a], ra[b], rb[a], rb[b]);
                vals.set(l,
                         query_emit(spec, dy, band.dx[li], sum, pix.get(l)));
            }
            // a+d-b-c: three adds per emitted lane (matches the gather
            // consumer's accounting).
            simt::detail::count_adds(3 * static_cast<std::uint64_t>(
                                             simt::active_lane_count(emit)));
        }
        job.out->store_row((job.out_row0 + y) * job.width + band.c0, vals,
                           band.m);
    }
}

template <typename Spec, typename Tsat, typename Tin, typename Tout>
simt::KernelTask query_consumer_warp(simt::WarpCtx& w,
                                     const ConsumerJob<Tsat, Tin, Tout>& job,
                                     const Spec& spec)
{
    const ConsumerBand band = consumer_band(job, spec, w.block_idx().x);
    if (band.m != 0) {
        std::vector<Tsat> ring(static_cast<std::size_t>(band.ring_elems()));
        query_consumer_body(job, spec, band, std::span<Tsat>(ring));
    }
    co_return;
}

/// Launch the fused consumer for a group of tiles (grid.x = 32-column
/// bands of the widest tile, grid.y = tile in group).  Barrier free:
/// blocks beyond a tile's bands exit immediately, and per-tile output
/// rects are disjoint so the launch respects the engine's disjoint-write
/// discipline.  Native blocks take the ring from their executor slot's
/// reusable scratch, so a block allocates nothing.
template <typename Spec, typename Tsat, typename Tin, typename Tout>
[[nodiscard]] simt::LaunchStats launch_query_consumer(
    simt::Engine& eng,
    std::span<const ConsumerJob<Tsat, Tin, Tout>> jobs, const Spec& spec,
    bool native)
{
    std::int64_t max_bands = 1;
    for (const auto& j : jobs)
        max_bands =
            std::max(max_bands, ceil_div(j.rect.w, std::int64_t{kWarpSize}));
    const simt::KernelInfo info{"query_consume", 32, 0};
    const simt::LaunchConfig cfg{
        {max_bands, static_cast<std::int64_t>(jobs.size()), 1},
        {kWarpSize, 1, 1}};
    if (native)
        return simt::native_launch(
            eng, info, cfg, [&](simt::NativeBlockCtx& blk) {
                const auto& job =
                    jobs[static_cast<std::size_t>(blk.block_idx().y)];
                const ConsumerBand band =
                    consumer_band(job, spec, blk.block_idx().x);
                if (band.m != 0)
                    query_consumer_body(
                        job, spec, band,
                        blk.scratch<Tsat>(
                            static_cast<std::size_t>(band.ring_elems())));
            });
    return eng.launch(info, cfg, [&](simt::WarpCtx& w) {
        return query_consumer_warp(
            w, jobs[static_cast<std::size_t>(w.block_idx().y)], spec);
    });
}

// ---- Classic gather consumer (materialize-then-consume) -------------------
//
// The canonical Fig. 1 consumer over the full-image SAT: one output pixel
// per thread, four gathered table reads.  This is the honest baseline the
// fused path is measured against, and the execution path of
// QueryMode::kMaterialize.

template <typename Spec, typename Tsat, typename Tin, typename Tout,
          typename W>
void query_gather_body(W& w, const simt::DeviceBuffer<Tsat>& table,
                       const simt::DeviceBuffer<Tin>* input,
                       std::int64_t height, std::int64_t width,
                       std::int64_t out_row0, const Spec& spec,
                       simt::DeviceBuffer<Tout>& out)
{
    const std::int64_t y = w.block_idx().y;
    const std::int64_t x0 =
        (w.block_idx().x * w.warps_per_block() + w.warp_id()) * kWarpSize;
    const LaneMask m = simt::lanes_in_range(x0, width);
    if (m == 0 || y >= height)
        return;
    const simt::ProfileRange range{"query-consume"};
    const auto lane = LaneVec<std::int64_t>::lane_index();

    LaneMask emit = m;
    std::array<std::int64_t, kWarpSize> xa{}, xb{};
    std::int64_t ya = 0, yb = 0;
    if constexpr (is_centered_v<Spec>) {
        const auto c = window_corners(spec, y, x0, height, width);
        ya = c.ya;
        yb = c.yb;
        for (int l = 0; l < kWarpSize; ++l) {
            const auto cl =
                window_corners(spec, y, x0 + l, height, width);
            xa[static_cast<std::size_t>(l)] = cl.xa;
            xb[static_cast<std::size_t>(l)] = cl.xb;
        }
    } else {
        if (y + spec.win_h > height)
            emit = 0;
        ya = y - 1;
        yb = y + spec.win_h - 1;
        for (int l = 0; l < kWarpSize; ++l) {
            const std::int64_t x = x0 + l;
            if (x + spec.win_w > width)
                emit &= ~(LaneMask{1} << l);
            xa[static_cast<std::size_t>(l)] = x - 1;
            xb[static_cast<std::size_t>(l)] = x + spec.win_w - 1;
        }
    }

    LaneVec<Tout> vals{};
    if (emit != 0) {
        const auto corner =
            [&](std::int64_t yy,
                const std::array<std::int64_t, kWarpSize>& xx)
            -> LaneVec<Tsat> {
            if (yy < 0)
                return {};
            LaneMask active = 0;
            LaneVec<std::int64_t> idx{};
            for (int l = 0; l < kWarpSize; ++l) {
                if (!simt::lane_active(emit, l) ||
                    xx[static_cast<std::size_t>(l)] < 0)
                    continue;
                active |= LaneMask{1} << l;
                idx.set(l, yy * width + xx[static_cast<std::size_t>(l)]);
            }
            return active ? table.load(idx, active) : LaneVec<Tsat>{};
        };
        const auto a = corner(ya, xa);
        const auto b = corner(ya, xb);
        const auto c = corner(yb, xa);
        const auto d = corner(yb, xb);
        LaneVec<double> pix{};
        if constexpr (std::is_same_v<Spec, AdaptiveThresholdSpec>) {
            const auto pv = input->load(lane + (y * width + x0), emit);
            for (int l = 0; l < kWarpSize; ++l)
                pix.set(l, static_cast<double>(pv.get(l)));
        }
        for (int l = 0; l < kWarpSize; ++l) {
            if (!simt::lane_active(emit, l))
                continue;
            const auto li = static_cast<std::size_t>(l);
            const Tsat sum =
                window_sum4(a.get(l), b.get(l), c.get(l), d.get(l));
            vals.set(l, query_emit(spec, yb - ya, xb[li] - xa[li], sum,
                                   pix.get(l)));
        }
        simt::detail::count_adds(
            3 * static_cast<std::uint64_t>(simt::active_lane_count(emit)));
    }
    out.store_row((out_row0 + y) * width + x0, vals, m);
}

/// Launch the classic gather consumer over a full-image SAT.
template <typename Spec, typename Tsat, typename Tin, typename Tout>
[[nodiscard]] simt::LaunchStats launch_query_gather(
    simt::Engine& eng, const simt::DeviceBuffer<Tsat>& table,
    const simt::DeviceBuffer<Tin>* input, std::int64_t height,
    std::int64_t width, std::int64_t out_row0, const Spec& spec,
    simt::DeviceBuffer<Tout>& out, bool native)
{
    const std::int64_t block_w =
        std::int64_t{warps_per_block<Tsat>()} * kWarpSize;
    const simt::LaunchConfig cfg{{ceil_div(width, block_w), height, 1},
                                 {block_w, 1, 1}};
    return simt::launch_warps(
        eng, {"query_gather", 24, 0}, cfg, native, [&](auto& w) {
            query_gather_body(w, table, input, height, width, out_row0, spec,
                              out);
        });
}

// ---- Bin-mask kernel (both histogram APIs) -------------------------------

/// One mask plane's operands: mask[i] = (bin_of(in[i], bins) == bin) over
/// n elements.
struct BinMaskJob {
    const simt::DeviceBuffer<u8>* in = nullptr;
    simt::DeviceBuffer<u8>* mask = nullptr;
    std::int64_t n = 0;
    int bin = 0;
};

/// Bin-mask warp body: one 32-element group of one job.  Barrier free.
template <typename W>
void bin_mask_body(W& w, const BinMaskJob& job, int bins)
{
    const std::int64_t base = elementwise_base(w);
    const LaneMask m = simt::lanes_in_range(base, job.n);
    if (m == 0)
        return;
    const auto v = job.in->load_row(base, m);
    LaneVec<u8> out{};
    for (int l = 0; l < kWarpSize; ++l)
        if (simt::lane_active(m, l))
            out.set(l, bin_of(v.get(l), bins) == job.bin ? u8{1} : u8{0});
    job.mask->store_row(base, out, m);
}

/// Launch the bin-mask kernel over `jobs` (grid.y = job): every bin plane
/// of an image (integral_histogram_batched) or one bin of each staged
/// tile (the histogram query paths), on either backend.
[[nodiscard]] inline simt::LaunchStats
launch_bin_mask(simt::Engine& eng, std::span<const BinMaskJob> jobs, int bins,
                bool native)
{
    SATGPU_EXPECTS(!jobs.empty() && bins >= 1 && bins <= 256);
    std::int64_t max_n = 1;
    for (const auto& j : jobs)
        max_n = std::max(max_n, j.n);
    return simt::launch_warps(
        eng, {"bin_mask", 12, 0},
        elementwise_config(max_n, static_cast<std::int64_t>(jobs.size())),
        native, [&](auto& w) {
            bin_mask_body(w, jobs[static_cast<std::size_t>(w.block_idx().y)],
                          bins);
        });
}

/// The halo a spec needs, typed (query.cpp's query_halo dispatches here).
template <typename Spec>
[[nodiscard]] constexpr QueryHalo halo_of(const Spec& spec) noexcept
{
    if constexpr (is_centered_v<Spec>) {
        const std::int64_t r = std::max<std::int64_t>(0, spec.radius);
        return {r, r, r, r};
    } else {
        return {0, 0, spec.win_h - 1, spec.win_w - 1};
    }
}

/// Backend for the multi-kernel fallback local SATs inside the fused
/// path: native only when the plan's algorithm has a native lowering.
[[nodiscard]] inline Options fallback_options(const Options& opt)
{
    Options fb = opt;
    if (fb.backend == Backend::kNative && !native_supported(fb.algorithm))
        fb.backend = Backend::kSim;
    return fb;
}

} // namespace detail

// ---- Fused pipeline -------------------------------------------------------

/// Execute a query with fused tiled consumption: for each macro-tile,
/// stage the halo-extended input into a pooled buffer, build its local SAT
/// in place (single-pass kernel, or the plan algorithm's multi-kernel path
/// when the extended tile is too wide -- see docs/fused_queries.md's
/// fallback matrix), and immediately run the consumer against it.  The
/// global SAT never exists; pooled high-water is O(carry_fanout * extended
/// tile area).  Bit-identical to compute_query_materialized and to
/// query_serial for integer SAT dtypes.
template <typename Tsat, typename Spec, typename Tin>
[[nodiscard]] QueryResult<detail::query_out_t<Tsat, Spec>>
compute_query_fused(simt::Engine& eng, const Matrix<Tin>& image,
                    const Spec& spec, const TileGeometry& geo,
                    Options opt = {})
{
    using Tout = detail::query_out_t<Tsat, Spec>;
    const std::int64_t h = image.height(), w = image.width();
    SATGPU_EXPECTS(h > 0 && w > 0);
    const TileGrid grid(h, w, geo);
    const simt::CheckScope check_scope(eng, opt.check);
    const simt::ProfileEnableScope profile_scope(eng, opt.profile);
    const bool native = opt.backend == Backend::kNative;
    if (native)
        SATGPU_CHECK(!opt.check && !opt.profile,
                     "the native backend carries no instrumentation; "
                     "check/profile need Backend::kSim");
    const QueryHalo halo = detail::halo_of(spec);

    constexpr bool kHist = std::is_same_v<Spec, RegionHistogramSpec>;
    std::int64_t out_h = h;
    if constexpr (kHist) {
        static_assert(std::is_same_v<Tout, u32>);
        SATGPU_CHECK((std::is_same_v<Tin, u8> && std::is_same_v<Tsat, u32>),
                     "region histogram queries require the 8u -> 32u dtype "
                     "pair");
        out_h = std::int64_t{spec.bins} * h;
    }

    QueryResult<Tout> res;
    auto out = simt::DeviceBuffer<Tout>::zeroed(eng.executor(), out_h * w);

    struct Staged {
        simt::BufferPool::Lease<Tin> in;
        simt::BufferPool::Lease<Tsat> sat;
        simt::BufferPool::Lease<u8> mask; // hist only
        TileGrid::Rect rect;
        detail::ExtRect ext;
    };
    const int fanout = std::max(1, geo.carry_fanout);
    std::vector<Staged> group;
    group.reserve(static_cast<std::size_t>(fanout));

    const auto run_tile_sats = [&]<typename Tsrc>(
                                   auto member) { // member: &Staged::in/mask
        const simt::PhaseScope phase(eng, "query.tile");
        std::vector<detail::TileSatJob<Tsat, Tsrc>> jobs;
        for (Staged& s : group) {
            if (detail::tile_sat_fits<Tsat>(s.ext.w)) {
                jobs.push_back({&*(s.*member), &*s.sat, s.ext.h, s.ext.w});
                continue;
            }
            // Fallback: the extended tile is wider than one block covers;
            // run the plan algorithm's multi-kernel local SAT instead.
            const auto sub = (s.*member)->to_matrix(s.ext.h, s.ext.w);
            auto local =
                compute_sat<Tsat>(eng, sub, detail::fallback_options(opt));
            std::copy(local.table.flat().begin(), local.table.flat().end(),
                      s.sat->host().begin());
            for (auto& l : local.launches)
                res.launches.push_back(std::move(l));
        }
        if (!jobs.empty())
            res.launches.push_back(detail::launch_query_tile_sat<Tsat, Tsrc>(
                eng, jobs, opt.warp_scan, native));
    };
    const auto run_consumers = [&](std::int64_t out_row0) {
        const simt::PhaseScope phase(eng, "query.consume");
        std::vector<detail::ConsumerJob<Tsat, Tin, Tout>> jobs;
        jobs.reserve(group.size());
        for (Staged& s : group)
            jobs.push_back({&*s.sat, &*s.in, &out, h, w, s.rect, s.ext,
                            out_row0});
        res.launches.push_back(detail::launch_query_consumer<Spec>(
            eng, std::span<const detail::ConsumerJob<Tsat, Tin, Tout>>(jobs),
            spec, native));
    };

    const auto flush = [&]() {
        if (group.empty())
            return;
        if constexpr (kHist && std::is_same_v<Tin, u8> &&
                      std::is_same_v<Tsat, u32>) {
            for (int b = 0; b < spec.bins; ++b) {
                {
                    const simt::PhaseScope phase(eng, "query.tile");
                    std::vector<detail::BinMaskJob> mjobs;
                    for (Staged& s : group)
                        mjobs.push_back(
                            {&*s.in, &*s.mask, s.ext.h * s.ext.w, b});
                    res.launches.push_back(detail::launch_bin_mask(
                        eng, mjobs, spec.bins, native));
                }
                run_tile_sats.template operator()<u8>(&Staged::mask);
                run_consumers(std::int64_t{b} * h);
            }
        } else {
            run_tile_sats.template operator()<Tin>(&Staged::in);
            run_consumers(0);
        }
        group.clear(); // leases return to the pool here
    };

    for (std::int64_t ti = 0; ti < grid.rows(); ++ti)
        for (std::int64_t tj = 0; tj < grid.cols(); ++tj) {
            const auto rect = grid.rect(ti, tj);
            const auto ext = detail::extend_rect(rect, halo, h, w);
            Staged s{simt::acquire_or_new<Tin>(opt.pool, ext.h * ext.w,
                                               opt.pool_partition),
                     simt::acquire_or_new<Tsat>(opt.pool, ext.h * ext.w,
                                                opt.pool_partition),
                     {},
                     rect,
                     ext};
            if constexpr (kHist)
                s.mask = simt::acquire_or_new<u8>(opt.pool, ext.h * ext.w,
                                                  opt.pool_partition);
            const auto host = s.in->host();
            for (std::int64_t y = 0; y < ext.h; ++y)
                std::copy_n(image.row(ext.y0 + y).data() + ext.x0, ext.w,
                            host.data() + y * ext.w);
            group.push_back(std::move(s));
            if (static_cast<int>(group.size()) == fanout)
                flush();
        }
    flush();

    res.out = std::move(out).release_matrix(out_h, w);
    return res;
}

// ---- Materialize-then-consume pipeline ------------------------------------

/// Execute a query the classic way: build the full H x W SAT with the
/// plan's algorithm, then run the Fig. 1 gather consumer over it.  The
/// baseline QueryMode, and the fused path's correctness twin (bit-identical
/// for integer SAT dtypes).
template <typename Tsat, typename Spec, typename Tin>
[[nodiscard]] QueryResult<detail::query_out_t<Tsat, Spec>>
compute_query_materialized(simt::Engine& eng, const Matrix<Tin>& image,
                           const Spec& spec, Options opt = {})
{
    using Tout = detail::query_out_t<Tsat, Spec>;
    const std::int64_t h = image.height(), w = image.width();
    SATGPU_EXPECTS(h > 0 && w > 0);
    const simt::CheckScope check_scope(eng, opt.check);
    const simt::ProfileEnableScope profile_scope(eng, opt.profile);
    const bool native = opt.backend == Backend::kNative;

    constexpr bool kHist = std::is_same_v<Spec, RegionHistogramSpec>;
    QueryResult<Tout> res;

    // The gather reads the built table in place: compute_sat's result
    // owns its storage, so it is adopted as the device table, not copied.
    const auto consume = [&](Matrix<Tsat>&& table,
                             const simt::DeviceBuffer<Tin>* input,
                             std::int64_t out_row0,
                             simt::DeviceBuffer<Tout>& out) {
        const auto sat = simt::DeviceBuffer<Tsat>::adopt(std::move(table));
        const simt::PhaseScope phase(eng, "query.consume");
        res.launches.push_back(detail::launch_query_gather<Spec>(
            eng, sat, input, h, w, out_row0, spec, out, native));
    };

    if constexpr (kHist && !(std::is_same_v<Tin, u8> &&
                             std::is_same_v<Tsat, u32>)) {
        SATGPU_CHECK(false, "region histogram queries require the 8u -> "
                            "32u dtype pair");
    } else if constexpr (kHist) {
        static_assert(std::is_same_v<Tout, u32>);
        auto out = simt::DeviceBuffer<Tout>::zeroed(
            eng.executor(), std::int64_t{spec.bins} * h * w);
        auto img = simt::acquire_or_new<Tin>(opt.pool, h * w,
                                             opt.pool_partition);
        std::copy(image.flat().begin(), image.flat().end(),
                  img->host().begin());
        auto mask = simt::acquire_or_new<u8>(opt.pool, h * w,
                                             opt.pool_partition);
        for (int b = 0; b < spec.bins; ++b) {
            const detail::BinMaskJob mjob{&*img, &*mask, h * w, b};
            res.launches.push_back(detail::launch_bin_mask(
                eng, std::span<const detail::BinMaskJob>(&mjob, 1),
                spec.bins, native));
            auto sat = compute_sat<Tsat>(eng, mask->to_matrix(h, w), opt);
            for (auto& l : sat.launches)
                res.launches.push_back(std::move(l));
            consume(std::move(sat.table), nullptr, std::int64_t{b} * h,
                    out);
        }
        res.out =
            std::move(out).release_matrix(std::int64_t{spec.bins} * h, w);
    } else {
        auto out = simt::DeviceBuffer<Tout>::zeroed(eng.executor(), h * w);
        auto sat = compute_sat<Tsat>(eng, image, opt);
        res.launches = std::move(sat.launches);
        simt::BufferPool::Lease<Tin> img;
        const simt::DeviceBuffer<Tin>* input = nullptr;
        if constexpr (std::is_same_v<Spec, AdaptiveThresholdSpec>) {
            img = simt::acquire_or_new<Tin>(opt.pool, h * w,
                                            opt.pool_partition);
            std::copy(image.flat().begin(), image.flat().end(),
                      img->host().begin());
            input = &*img;
        }
        consume(std::move(sat.table), input, 0, out);
        res.out = std::move(out).release_matrix(h, w);
    }
    return res;
}

} // namespace satgpu::sat
