// Integral histograms (Poostchi et al. [34], [38]): one SAT per histogram
// bin, giving O(bins) region histograms for any rectangle -- the workhorse
// of real-time tracking and HOG-style descriptors the paper's introduction
// motivates.
//
// integral_histogram_batched builds every bin bin-major (the batching of
// Poostchi et al., arXiv 1711.01919): ONE bin-mask launch (one job per
// bin, on the plan's backend) writes every bin's mask plane, then all
// planes ride one Plan::execute_wave, with every lease (image staging,
// masks, the wave's workspaces) drawn from a single BufferPool partition
// so the whole build's device footprint is attributable and bounded by
// IntegralHistogram::workspace_bytes.
//
// Binning: bin_of (sat/query_spec.hpp), the rule RegionHistogramSpec
// queries use too, through the same bin-mask kernel (sat/query.hpp), so
// a region-histogram query equals region() of the batched tables at
// every pixel.  bins need NOT divide 256: the top bin absorbs the ragged
// remainder.
#pragma once

#include "sat/query.hpp"
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
    /// in its partition.  Asserted against BufferPool::high_water_bytes by
    /// the property tests.
    std::uint64_t workspace_bytes = 0;

    [[nodiscard]] std::size_t bins() const noexcept { return tables.size(); }

    /// Histogram of the inclusive rectangle [x0,x1] x [y0,y1]: four SAT
    /// lookups per bin.  The rectangle is clamped to the table extent (a
    /// partially overlapping query counts the intersection); an empty or
    /// reversed rectangle yields all-zero counts.
    [[nodiscard]] std::vector<u32> region(std::int64_t y0, std::int64_t x0,
                                          std::int64_t y1,
                                          std::int64_t x1) const
    {
        std::vector<u32> h(tables.size(), 0u);
        for (std::size_t i = 0; i < tables.size(); ++i)
            h[i] = clamped_rect_sum(tables[i].flat(), tables[i].height(),
                                    tables[i].width(), y0, x0, y1, x1);
        return h;
    }
};

/// Build the integral histogram of an 8u image with `bins` bins under
/// bin_of (1 <= bins <= 256) through the type-erased runtime.  One
/// bin-mask launch for every bin, then every bin plane through a single
/// Plan::execute_wave (each SAT kernel pass runs once for all bins).  All
/// leases come from `pool_partition` of the runtime's pool.
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
        // the SAME partition, and bin every plane in ONE launch (job b
        // masks bin b).  Leases release before the wave, so the wave's u8
        // staging reuses the mask buffers and the partition's high-water
        // stays within workspace_bytes.
        auto img = rt.pool().acquire<u8>(n, pool_partition);
        std::copy(image.flat().begin(), image.flat().end(),
                  img->host().begin());
        std::vector<simt::BufferPool::Lease<u8>> mask_leases;
        std::vector<detail::BinMaskJob> jobs;
        mask_leases.reserve(static_cast<std::size_t>(bins));
        jobs.reserve(static_cast<std::size_t>(bins));
        for (int b = 0; b < bins; ++b) {
            mask_leases.push_back(rt.pool().acquire<u8>(n, pool_partition));
            jobs.push_back({&*img, &*mask_leases.back(), n, b});
        }
        ih.launches.push_back(detail::launch_bin_mask(
            rt.engine(), jobs, bins, plan.backend() == Backend::kNative));
        for (const auto& m : mask_leases)
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
