// Scan-transpose-scan (Bilgic et al. [17], Oro et al. [10]): the
// conventional four-kernel SAT pipeline the paper's BRLT kernels improve
// on.  Row scan -> EXPLICIT transpose through global memory -> row scan ->
// transpose back.  The transpose kernel is the classic shared-memory tiled
// one (32x33 staging, coalesced on both sides); the row scans reuse the
// warp-per-row kernel of Sec. IV-C1.  Compared with ScanRow-BRLT this
// moves the whole matrix through global memory TWICE more, which is
// exactly the traffic BRLT eliminates.
#pragma once

#include "sat/scanrowcolumn.hpp"
#include "simt/native_backend.hpp"
#include "simt/profiler.hpp"

#include <span>

namespace satgpu::baselines {

/// Tiled matrix transpose over grid.z = K images: out (width x height) =
/// in^T.  One 32-warp block per 32x32 tile; staging through a padded
/// shared-memory tile keeps both the loads and the transposed stores
/// coalesced.  Block (x, y, k) runs image k's buffers (see
/// launch_opencv_horizontal_wave for the contract).
template <typename T>
simt::LaunchStats launch_transpose_wave(
    simt::Engine& eng, std::span<const simt::DeviceBuffer<T>* const> ins,
    std::int64_t height, std::int64_t width,
    std::span<simt::DeviceBuffer<T>* const> outs)
{
    using sat::cols_in_range;
    using simt::kWarpSize;

    SATGPU_EXPECTS(!ins.empty() && ins.size() == outs.size());
    const simt::LaunchConfig cfg{
        {ceil_div(width, kWarpSize), ceil_div(height, kWarpSize),
         static_cast<std::int64_t>(ins.size())},
        {32 * kWarpSize, 1, 1}};
    const simt::KernelInfo info{
        "gmem_transpose", 16,
        32 * 33 * static_cast<std::int64_t>(sizeof(T))};
    struct NoState {};
    const auto lane = LaneVec<std::int64_t>::lane_index();
    const auto tile = [](auto& w) {
        return w.template smem_alloc<T>("transpose.tile", 32 * 33);
    };
    return simt::launch_phases(
        eng, info, cfg, false,
        simt::phase_list<NoState>(
            [](simt::Dim3) { return std::int64_t{1}; },
            // Warp w stages row w of the tile (coalesced load,
            // conflict-free store).
            [&](auto& w, NoState&, std::int64_t) {
                auto sm = tile(w);
                const simt::ProfileRange pr{"stage-smem"};
                const std::int64_t row0 = w.block_idx().y * kWarpSize;
                const std::int64_t col0 = w.block_idx().x * kWarpSize;
                const std::int64_t src_row = row0 + w.warp_id();
                if (src_row >= height)
                    return;
                const auto m = cols_in_range(col0, width);
                const auto v = ins[static_cast<std::size_t>(w.block_idx().z)]
                                   ->load(lane + (src_row * width + col0), m);
                sm.store(lane + std::int64_t{w.warp_id()} * 33, v, m);
            },
            simt::barrier,
            // Warp w drains column w (33-stride: conflict-free) into output
            // row col0 + w (coalesced store).
            [&](auto& w, NoState&, std::int64_t) {
                auto sm = tile(w);
                const simt::ProfileRange pr{"drain-smem"};
                const std::int64_t row0 = w.block_idx().y * kWarpSize;
                const std::int64_t col0 = w.block_idx().x * kWarpSize;
                const std::int64_t dst_row = col0 + w.warp_id();
                if (dst_row >= width)
                    return;
                const auto m = cols_in_range(row0, height); // lanes = rows
                const auto v = sm.load(lane * 33 + w.warp_id(), m);
                outs[static_cast<std::size_t>(w.block_idx().z)]->store(
                    lane + (dst_row * height + row0), v, m);
            }));
}

} // namespace satgpu::baselines
