// Integral histograms (Poostchi et al. [34], [38]): one SAT per histogram
// bin, giving O(bins) region histograms for any rectangle -- the workhorse
// of real-time tracking and HOG-style descriptors the paper's introduction
// motivates.
//
// The bin masks are built on the simulated GPU (a trivial binning kernel),
// then each mask goes through a SAT.  Two builders:
//
//  * integral_histogram: the historical engine-level path, one bin at a
//    time (mask launch + compute_sat per bin).
//  * integral_histogram_batched: the 16-64 bin scaling path.  Bin-major
//    batching end to end -- ONE fused grid.z = bins mask launch writes
//    every bin plane, then all planes ride one Plan::execute_wave, with
//    every lease (image staging, masks, the wave's workspaces) drawn from
//    a single BufferPool partition so the whole build's device footprint
//    is attributable and bounded by IntegralHistogram::workspace_bytes.
//
// Binning semantics: bins need NOT divide 256.  bin_width = 256 / bins
// (floor, >= 1), and the TOP bin absorbs the ragged remainder: a pixel
// value v lands in bin min(v / bin_width, bins - 1), so e.g. 48 bins give
// 47 five-value bins plus a final bin covering [235, 255].  (The seed
// implementation required bins | 256 and silently DROPPED values whose
// quotient reached `bins`; masks now always partition the image.)
#pragma once

#include "sat/runtime.hpp"
#include "sat/sat.hpp"

#include <algorithm>
#include <vector>

namespace satgpu::sat {

struct IntegralHistogram {
    std::vector<Matrix<u32>> tables; // one inclusive SAT per bin
    std::int64_t bin_width = 0;
    std::vector<simt::LaunchStats> launches;
    /// Upper bound on the pooled device bytes the build ever held at once
    /// in its partition (set by integral_histogram_batched; 0 from the
    /// per-bin builder, which predates the accounting).  Asserted against
    /// BufferPool::high_water_bytes by the property tests.
    std::uint64_t workspace_bytes = 0;

    [[nodiscard]] std::size_t bins() const noexcept { return tables.size(); }

    /// Histogram of the inclusive rectangle [x0,x1] x [y0,y1]: four SAT
    /// lookups per bin.
    ///
    /// The rectangle is clamped to the table extent (a partially
    /// overlapping query counts the intersection); an empty or reversed
    /// rectangle yields all-zero counts.  Unclamped coordinates used to
    /// flow straight into rect_sum, whose preconditions abort on
    /// out-of-range `y1/x1` and whose wrapping arithmetic silently
    /// produced garbage for `y0 > y1`.
    [[nodiscard]] std::vector<u32> region(std::int64_t y0, std::int64_t x0,
                                          std::int64_t y1,
                                          std::int64_t x1) const
    {
        std::vector<u32> h(tables.size(), 0u);
        if (tables.empty())
            return h;
        const std::int64_t height = tables.front().height();
        const std::int64_t width = tables.front().width();
        y0 = std::max<std::int64_t>(y0, 0);
        x0 = std::max<std::int64_t>(x0, 0);
        y1 = std::min(y1, height - 1);
        x1 = std::min(x1, width - 1);
        if (y0 > y1 || x0 > x1)
            return h; // empty or reversed: zero counts
        for (std::size_t i = 0; i < tables.size(); ++i)
            h[i] = rect_sum(tables[i], y0, x0, y1, x1);
        return h;
    }
};

namespace detail {

/// Binning kernel: mask[i] = (bin_of(img[i]) == bin) ? 1 : 0, where
/// bin_of(v) = min(v / bin_width, bins - 1) -- the top bin absorbs the
/// ragged remainder when bins does not divide 256, so the masks always
/// partition the image.
inline simt::KernelTask bin_mask_warp(simt::WarpCtx& w,
                                      const simt::DeviceBuffer<u8>& img,
                                      std::int64_t n, int bin,
                                      std::int64_t bin_width, int bins,
                                      simt::DeviceBuffer<u8>& mask)
{
    const std::int64_t base =
        (w.block_idx().x * w.warps_per_block() + w.warp_id()) *
        simt::kWarpSize;
    const simt::LaneMask m = simt::lanes_in_range(base, n);
    if (m == 0)
        co_return;
    const auto v = img.load_row(base, m);
    simt::LaneVec<u8> out{};
    for (int l = 0; l < simt::kWarpSize; ++l)
        if (simt::lane_active(m, l)) {
            const auto b = std::min<std::int64_t>(v.get(l) / bin_width,
                                                  bins - 1);
            out.set(l, b == static_cast<std::int64_t>(bin) ? u8{1} : u8{0});
        }
    mask.store_row(base, out, m);
}

} // namespace detail

/// Build the integral histogram of an 8u image with `bins` equal-width
/// bins (1 <= bins <= 256; the top bin is wider when bins does not divide
/// 256 -- see the header comment).  One mask launch + one SAT per bin.
[[nodiscard]] inline IntegralHistogram
integral_histogram(simt::Engine& eng, const Matrix<u8>& image, int bins,
                   const Options& opt = {})
{
    SATGPU_EXPECTS(bins > 0 && bins <= 256);
    IntegralHistogram ih;
    ih.bin_width = 256 / bins;
    const std::int64_t n = image.size();
    auto img = simt::DeviceBuffer<u8>::from_matrix(image);

    for (int b = 0; b < bins; ++b) {
        simt::DeviceBuffer<u8> mask(n);
        // 256-thread blocks, one 32-element group per warp -> each block
        // covers 256 elements.
        ih.launches.push_back(eng.launch(
            {"bin_mask", 12, 0}, {{ceil_div(n, 256), 1, 1}, {256, 1, 1}},
            [&](simt::WarpCtx& w) {
                return detail::bin_mask_warp(w, img, n, b, ih.bin_width,
                                             bins, mask);
            }));
        auto res = compute_sat<u32>(
            eng, mask.to_matrix(image.height(), image.width()), opt);
        ih.tables.push_back(std::move(res.table));
        for (auto& l : res.launches)
            ih.launches.push_back(std::move(l));
    }
    return ih;
}

/// The 16-64 bin scaling path: bin-major batched build through the
/// type-erased runtime.  One fused grid.z = bins mask launch, then every
/// bin plane through a single Plan::execute_wave (each SAT kernel pass
/// runs once for all bins).  All leases come from `pool_partition` of the
/// runtime's pool; tables are bit-identical to the per-bin builder's.
[[nodiscard]] inline IntegralHistogram
integral_histogram_batched(Runtime& rt, const Matrix<u8>& image, int bins,
                           int pool_partition = 0,
                           Algorithm algorithm = Algorithm::kBrltScanRow)
{
    SATGPU_EXPECTS(bins > 0 && bins <= 256);
    IntegralHistogram ih;
    ih.bin_width = 256 / bins;
    const std::int64_t h = image.height();
    const std::int64_t w = image.width();
    const std::int64_t n = image.size();
    SATGPU_EXPECTS(n > 0);

    Plan plan = rt.plan({.height = h,
                         .width = w,
                         .dtypes = {Dtype::u8_, Dtype::u32_},
                         .algorithm = algorithm,
                         .pool_partition = pool_partition});

    std::vector<AnyMatrix> masks;
    masks.reserve(static_cast<std::size_t>(bins));
    {
        // Phase 1: stage the image once, lease one mask plane per bin from
        // the SAME partition, and bin every plane in ONE fused launch
        // (block (x, 0, z) bins plane z).  Leases release before the wave,
        // so the wave's u8 staging reuses the mask buffers and the
        // partition's high-water stays within workspace_bytes.
        auto img = rt.pool().acquire<u8>(n, pool_partition);
        std::copy(image.flat().begin(), image.flat().end(),
                  img->host().begin());
        std::vector<simt::BufferPool::Lease<u8>> mask_leases;
        std::vector<simt::DeviceBuffer<u8>*> mask_ptrs;
        mask_leases.reserve(static_cast<std::size_t>(bins));
        mask_ptrs.reserve(static_cast<std::size_t>(bins));
        for (int b = 0; b < bins; ++b) {
            mask_leases.push_back(rt.pool().acquire<u8>(n, pool_partition));
            mask_ptrs.push_back(&*mask_leases.back());
        }
        ih.launches.push_back(rt.engine().launch(
            {"bin_mask", 12, 0},
            {{ceil_div(n, 256), 1, bins}, {256, 1, 1}},
            [&](simt::WarpCtx& wc) {
                const auto z = static_cast<std::size_t>(wc.block_idx().z);
                return detail::bin_mask_warp(
                    wc, *img, n, static_cast<int>(z), ih.bin_width, bins,
                    *mask_ptrs[z]);
            }));
        for (auto* m : mask_ptrs)
            masks.emplace_back(m->to_matrix(h, w));
    }

    std::vector<const AnyMatrix*> ptrs;
    ptrs.reserve(masks.size());
    for (const auto& m : masks)
        ptrs.push_back(&m);
    WaveResult wave = plan.execute_wave(ptrs);
    ih.tables.reserve(masks.size());
    for (auto& t : wave.tables)
        ih.tables.push_back(std::move(t.as<u32>()));
    for (auto& l : wave.launches)
        ih.launches.push_back(std::move(l));

    // Peak pooled footprint: the mask phase holds the staged image plus
    // one u8 plane per bin; the wave holds `bins` full workspaces.  The
    // partition's high-water is the larger of the two.
    const auto ub = static_cast<std::uint64_t>(bins);
    const auto un = static_cast<std::uint64_t>(n);
    ih.workspace_bytes = std::max(
        (ub + 1) * un,
        ub * static_cast<std::uint64_t>(plan.workspace_bytes()));
    return ih;
}

} // namespace satgpu::sat
