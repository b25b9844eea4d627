#include "model/cost_model.hpp"

#include "core/random_fill.hpp"
#include "sat/launch_params.hpp"

#include <algorithm>
#include <cmath>

namespace satgpu::model {

namespace {

using sat::Algorithm;
using simt::kWarpSize;

template <typename Tin, typename Tout>
std::vector<simt::LaunchStats> run_calibration(Algorithm algo,
                                               sat::Options opt)
{
    Matrix<Tin> img(CostModel::kCalibSize, CostModel::kCalibSize);
    fill_random(img, /*seed=*/1234);
    simt::Engine eng({.smem_capacity_bytes = 96 * 1024,
                      .record_history = false});
    opt.algorithm = algo;
    return sat::compute_sat<Tout>(eng, img, opt).launches;
}

std::vector<simt::LaunchStats> dispatch_calibration(Algorithm algo,
                                                    DtypePair dt,
                                                    const sat::Options& opt)
{
    return visit_paper_pair(dt, [&]<typename Tin, typename Tout>(
                                    std::type_identity<Tin>,
                                    std::type_identity<Tout>) {
        return run_calibration<Tin, Tout>(algo, opt);
    });
}

std::uint64_t scaled(std::uint64_t v, double f)
{
    return static_cast<std::uint64_t>(std::llround(
        static_cast<double>(v) * f));
}

} // namespace

simt::PerfCounters scale_counters(const simt::PerfCounters& c, double f)
{
    simt::PerfCounters r;
    r.lane_add = scaled(c.lane_add, f);
    r.lane_mul = scaled(c.lane_mul, f);
    r.lane_bool = scaled(c.lane_bool, f);
    r.lane_select = scaled(c.lane_select, f);
    r.warp_shfl = scaled(c.warp_shfl, f);
    r.smem_ld_req = scaled(c.smem_ld_req, f);
    r.smem_st_req = scaled(c.smem_st_req, f);
    r.smem_ld_trans = scaled(c.smem_ld_trans, f);
    r.smem_st_trans = scaled(c.smem_st_trans, f);
    r.smem_bytes_ld = scaled(c.smem_bytes_ld, f);
    r.smem_bytes_st = scaled(c.smem_bytes_st, f);
    r.gmem_ld_req = scaled(c.gmem_ld_req, f);
    r.gmem_st_req = scaled(c.gmem_st_req, f);
    r.gmem_ld_sectors = scaled(c.gmem_ld_sectors, f);
    r.gmem_st_sectors = scaled(c.gmem_st_sectors, f);
    r.gmem_bytes_ld = scaled(c.gmem_bytes_ld, f);
    r.gmem_bytes_st = scaled(c.gmem_bytes_st, f);
    r.gmem_atomics = scaled(c.gmem_atomics, f);
    r.barriers = scaled(c.barriers, f);
    r.blocks = scaled(c.blocks, f);
    r.warps = scaled(c.warps, f);
    return r;
}

std::vector<simt::LaunchConfig>
CostModel::expected_configs(Algorithm algo, DtypePair dt, std::int64_t h,
                            std::int64_t w)
{
    const auto size_out = static_cast<std::int64_t>(dtype_size(dt.out));
    const std::int64_t wc = size_out <= 4 ? 32 : 16; // sat::warps_per_block
    switch (algo) {
    case Algorithm::kBrltScanRow:
    case Algorithm::kScanRowBrlt:
        return {{{1, ceil_div(h, kWarpSize), 1}, {wc * kWarpSize, 1, 1}},
                {{1, ceil_div(w, kWarpSize), 1}, {wc * kWarpSize, 1, 1}}};
    case Algorithm::kScanRowColumn: {
        const std::int64_t row_wc = 128 / size_out;
        return {{{1, ceil_div(h, row_wc), 1}, {row_wc * kWarpSize, 1, 1}},
                {{ceil_div(w, kWarpSize), 1, 1}, {kWarpSize, wc, 1}}};
    }
    case Algorithm::kOpencvLike: {
        if (dt.in == Dtype::u8_)
            return {{{1, ceil_div(h, 4), 1}, {128, 1, 1}},
                    {{ceil_div(w, 256), 1, 1}, {256, 1, 1}}};
        return {{{1, h, 1}, {256, 1, 1}},
                {{ceil_div(w, 256), 1, 1}, {256, 1, 1}}};
    }
    case Algorithm::kNppLike:
        return {{{1, h, 1}, {256, 1, 1}}, {{w, 1, 1}, {1, 256, 1}}};
    case Algorithm::kNaiveScanScan:
        return {{{1, ceil_div(h, 256), 1}, {256, 1, 1}},
                {{ceil_div(w, 256), 1, 1}, {256, 1, 1}}};
    case Algorithm::kScanTransposeScan: {
        const std::int64_t row_wc = 128 / size_out;
        return {{{1, ceil_div(h, row_wc), 1}, {row_wc * kWarpSize, 1, 1}},
                {{ceil_div(w, kWarpSize), ceil_div(h, kWarpSize), 1},
                 {32 * kWarpSize, 1, 1}},
                {{1, ceil_div(w, row_wc), 1}, {row_wc * kWarpSize, 1, 1}},
                {{ceil_div(h, kWarpSize), ceil_div(w, kWarpSize), 1},
                 {32 * kWarpSize, 1, 1}}};
    }
    case Algorithm::kAuto:
        break; // resolved before prediction (Runtime::plan)
    }
    SATGPU_CHECK(false, "unknown algorithm");
}

std::vector<simt::LaunchStats>
CostModel::predict(Algorithm algo, DtypePair dt, std::int64_t h,
                   std::int64_t w, const sat::Options& opt)
{
    const Key key{algo, dt, opt.warp_scan, opt.padded_smem};
    auto it = calibration_.find(key);
    if (it == calibration_.end())
        it = calibration_
                 .emplace(key, dispatch_calibration(algo, dt, opt))
                 .first;
    const auto& calib = it->second;

    const double factor = static_cast<double>(h) * static_cast<double>(w) /
                          (static_cast<double>(kCalibSize) * kCalibSize);
    const auto configs = expected_configs(algo, dt, h, w);
    SATGPU_CHECK(configs.size() == calib.size(),
                 "config rule out of sync with the implementation");

    std::vector<simt::LaunchStats> out;
    out.reserve(calib.size());
    for (std::size_t i = 0; i < calib.size(); ++i) {
        simt::LaunchStats s;
        s.info = calib[i].info;
        s.smem_used_bytes = calib[i].smem_used_bytes;
        s.config = configs[i];
        s.counters = scale_counters(calib[i].counters, factor);
        // Geometry-derived counters come from the target configuration.
        s.counters.blocks =
            static_cast<std::uint64_t>(s.config.total_blocks());
        s.counters.warps = static_cast<std::uint64_t>(s.config.total_warps());
        out.push_back(std::move(s));
    }
    return out;
}

QueryTraffic predict_query_traffic(const sat::QuerySpec& query,
                                   DtypePair dt, std::int64_t h,
                                   std::int64_t w, std::int64_t tile_h,
                                   std::int64_t tile_w)
{
    SATGPU_EXPECTS(sat::query_enabled(query));
    SATGPU_EXPECTS(h > 0 && w > 0 && tile_h > 0 && tile_w > 0);
    const double area = static_cast<double>(h) * static_cast<double>(w);
    const double in_b = static_cast<double>(dtype_size(dt.in));
    const double sat_b = static_cast<double>(dtype_size(dt.out));
    const double out_b = static_cast<double>(
        dtype_size(sat::query_out_dtype(query, dt.out)));
    const sat::QueryHalo halo = sat::query_halo(query);
    // Halo inflation of the fused path's per-tile staging, clamped so a
    // halo larger than the image never inflates past "the whole image per
    // tile".
    const double eh =
        std::min<double>(static_cast<double>(h),
                         static_cast<double>(tile_h + halo.top +
                                             halo.bottom)) /
        static_cast<double>(std::min(tile_h, h));
    const double ew =
        std::min<double>(static_cast<double>(w),
                         static_cast<double>(tile_w + halo.left +
                                             halo.right)) /
        static_cast<double>(std::min(tile_w, w));
    const double e = eh * ew;

    const auto* hist = std::get_if<sat::RegionHistogramSpec>(&query);
    const double bins = hist != nullptr ? hist->bins : 1.0;
    // Source element the per-plane SAT integrates: the image itself, or a
    // one-byte bin mask (which is itself derived by reading the staged
    // image once and writing the mask once, per bin).
    const double src_b = hist != nullptr ? 1.0 : in_b;
    const double mask_b = hist != nullptr ? e * area * (in_b + 1.0) : 0.0;
    const bool reads_pixel =
        std::holds_alternative<sat::AdaptiveThresholdSpec>(query);

    // Fused, per plane: the tile-SAT kernel reads the staged source and
    // writes the local SAT (both halo-inflated); the ring-cached consumer
    // reads each needed local-SAT row segment exactly once (~the extended
    // area); the output is written once.
    const double fused_plane =
        e * area * (src_b + 2.0 * sat_b) + area * out_b;
    // Materialized, per plane: a two-pass SAT build (read source, write
    // SAT, then read + rewrite it column-wise), four corner gathers per
    // output pixel over the full table, one output write.
    const double mat_plane =
        area * (src_b + 3.0 * sat_b) + 4.0 * area * sat_b + area * out_b;

    QueryTraffic t;
    t.fused_bytes = bins * (fused_plane + mask_b) +
                    (reads_pixel ? area * in_b : 0.0);
    t.materialized_bytes = bins * (mat_plane + mask_b / e) +
                           (reads_pixel ? area * in_b : 0.0);
    return t;
}

StreamTraffic predict_stream_traffic(DtypePair dt, std::int64_t h,
                                     std::int64_t w, std::int64_t window)
{
    SATGPU_EXPECTS(h > 0 && w > 0 && window > 0);
    const double area = static_cast<double>(h) * static_cast<double>(w);
    const double in_b = static_cast<double>(dtype_size(dt.in));
    const double sat_b = static_cast<double>(dtype_size(dt.out));
    // One two-pass SAT build: read the source, write the table, then read
    // + rewrite it column-wise (the same decomposition mat_plane uses in
    // predict_query_traffic).
    const double build = area * (in_b + 3.0 * sat_b);
    // Accumulate pass (win += sat): read both operands, write one.
    const double add = 3.0 * area * sat_b;
    // Fused incremental update (win += new - old): three reads, one write.
    const double update = 4.0 * area * sat_b;
    StreamTraffic t;
    t.incremental_bytes = build + update;
    t.recompute_bytes =
        static_cast<double>(window) * (build + add);
    return t;
}

} // namespace satgpu::model
