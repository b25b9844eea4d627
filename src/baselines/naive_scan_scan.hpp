// Naive GPU scan-scan baseline (the pre-optimization decomposition of
// Bilgic et al. [17] without any caching): one thread serially scans one
// ROW (warp accesses stride by the row pitch -> fully uncoalesced), then
// one thread serially scans one COLUMN (coalesced).  Serves as the sanity
// floor in the speedup plots and as the simplest possible correct kernel
// pair for testing the engine.
#pragma once

#include "core/check.hpp"
#include "sat/launch_params.hpp"
#include "sat/tile_io.hpp"
#include "simt/engine.hpp"
#include "simt/native_backend.hpp"

#include <span>

namespace satgpu::baselines {

using simt::LaneVec;

/// Thread-per-row serial scan: lane l of each warp owns row base+l.
template <typename Tout, typename Tsrc, typename W>
void naive_row_warp(W& w, const simt::DeviceBuffer<Tsrc>& in,
                    std::int64_t height, std::int64_t width,
                    simt::DeviceBuffer<Tout>& out)
{
    const std::int64_t row0 =
        w.block_idx().y * w.block_dim().x + std::int64_t{w.warp_id()} *
                                                simt::kWarpSize;
    const simt::LaneMask m = simt::lanes_in_range(row0, height);
    if (m == 0)
        return;

    const auto lane = LaneVec<std::int64_t>::lane_index();
    LaneVec<Tout> carry{};
    for (std::int64_t x = 0; x < width; ++x) {
        const auto idx = (lane + row0) * width + x; // stride = width
        const auto v = in.load(idx, m).template cast<Tout>();
        carry = simt::vadd(carry, v);
        out.store(idx, carry, m);
    }
}

/// Thread-per-column serial scan: identical to OpenCV's vertical pass.
template <typename Tout, typename W>
void naive_col_warp(W& w, simt::DeviceBuffer<Tout>& data,
                    std::int64_t height, std::int64_t width)
{
    const std::int64_t col0 =
        w.block_idx().x * w.block_dim().x + std::int64_t{w.warp_id()} *
                                                simt::kWarpSize;
    const auto m = sat::cols_in_range(col0, width);
    if (m == 0)
        return;
    const auto lane = LaneVec<std::int64_t>::lane_index();
    LaneVec<Tout> carry{};
    for (std::int64_t y = 0; y < height; ++y) {
        const auto idx = lane + (y * width + col0);
        carry = simt::vadd(carry, data.load(idx, m));
        data.store(idx, carry, m);
    }
}

/// Fused K-image row pass: grid.z = K, block (x, y, k) runs image k's
/// buffers (see launch_opencv_horizontal_wave for the contract).
template <typename Tout, typename Tsrc>
simt::LaunchStats launch_naive_rows_wave(
    simt::Engine& eng, std::span<const simt::DeviceBuffer<Tsrc>* const> ins,
    std::int64_t height, std::int64_t width,
    std::span<simt::DeviceBuffer<Tout>* const> outs)
{
    SATGPU_EXPECTS(!ins.empty() && ins.size() == outs.size());
    const simt::LaunchConfig cfg{
        {1, ceil_div(height, 256), static_cast<std::int64_t>(ins.size())},
        {256, 1, 1}};
    return simt::launch_warps(
        eng, {"naive_rows", 12, 0}, cfg, false, [&](auto& w) {
            const auto z = static_cast<std::size_t>(w.block_idx().z);
            naive_row_warp<Tout, Tsrc>(w, *ins[z], height, width, *outs[z]);
        });
}

template <typename Tout>
simt::LaunchStats launch_naive_cols_wave(
    simt::Engine& eng, std::span<simt::DeviceBuffer<Tout>* const> datas,
    std::int64_t height, std::int64_t width)
{
    SATGPU_EXPECTS(!datas.empty());
    const simt::LaunchConfig cfg{
        {ceil_div(width, 256), 1, static_cast<std::int64_t>(datas.size())},
        {256, 1, 1}};
    return simt::launch_warps(
        eng, {"naive_cols", 12, 0}, cfg, false, [&](auto& w) {
            const auto z = static_cast<std::size_t>(w.block_idx().z);
            naive_col_warp<Tout>(w, *datas[z], height, width);
        });
}

} // namespace satgpu::baselines
