// Scratchpad-tile ablation: the conventional design the paper's register
// cache replaces (Sec. II: "Typically the GPU implementations employ the
// device scratchpad memory as fast cache").
//
// Same transposing row-scan structure as BRLT-ScanRow, but the 32x32 tile
// LIVES in shared memory instead of registers: every scan step is a
// shared-memory load + store.  Because one 32x33 tile costs ~4.2 KB, a
// block can only afford 8 warps of tiles (vs 32 warps of register tiles),
// so occupancy drops to ~8 warps/SM and shared-memory traffic roughly
// doubles -- exactly the costs Table I's capacity argument predicts.
#pragma once

#include "sat/block_carry.hpp"
#include "sat/sat.hpp"
#include "sat/launch_params.hpp"
#include "scan/serial_scan.hpp"
#include "simt/engine.hpp"

namespace satgpu::baselines {

inline constexpr int kSmemTileWarps = 8; // tiles that fit one block's smem

template <typename Tout>
[[nodiscard]] constexpr std::int64_t smem_tile_bytes()
{
    return std::int64_t{kSmemTileWarps} * 32 * 33 *
           static_cast<std::int64_t>(sizeof(Tout));
}

/// One warp of the scratchpad-cached transposing row-scan pass.
template <typename Tout, typename Tsrc>
simt::KernelTask smem_tile_scanrow_warp(simt::WarpCtx& w,
                                        const simt::DeviceBuffer<Tsrc>& in,
                                        std::int64_t height,
                                        std::int64_t width,
                                        simt::DeviceBuffer<Tout>& out)
{
    using satgpu::ceil_div;
    using sat::cols_in_range;
    using simt::kWarpSize;
    using simt::LaneVec;

    const std::int64_t row0 = w.block_idx().y * kWarpSize;
    const std::int64_t chunk_w =
        std::int64_t{w.warps_per_block()} * kWarpSize;
    const std::int64_t chunks = ceil_div(width, chunk_w);
    const auto lane = LaneVec<std::int64_t>::lane_index();
    auto tiles = w.smem_alloc<Tout>(
        "smem_tiles", std::int64_t{w.warps_per_block()} * 32 * 33);
    const std::int64_t base = std::int64_t{w.warp_id()} * 32 * 33;
    LaneVec<Tout> run_carry{};

    for (std::int64_t c = 0; c < chunks; ++c) {
        const std::int64_t col0 =
            c * chunk_w + std::int64_t{w.warp_id()} * kWarpSize;
        const simt::LaneMask cols = cols_in_range(col0, width);

        // Stage the tile in shared memory: smem[r][lane] = in(row0+r, ...).
        for (int r = 0; r < kWarpSize; ++r) {
            LaneVec<Tout> v{};
            if (row0 + r < height)
                v = in.load(lane + ((row0 + r) * width + col0), cols)
                        .template cast<Tout>();
            tiles.store(lane + (base + r * 33), v);
        }

        // Serial row scan THROUGH shared memory: thread `lane` scans tile
        // row `lane`; each step is one smem load + add + store.
        LaneVec<Tout> acc = tiles.load(lane * 33 + base);
        for (int j = 1; j < kWarpSize; ++j) {
            const auto v = tiles.load(lane * 33 + (base + j));
            acc = simt::vadd(acc, v);
            tiles.store(lane * 33 + (base + j), acc);
        }

        LaneVec<Tout> exclusive, total;
        co_await sat::block_exclusive_carry(w, acc, exclusive, total);
        const auto offset = simt::vadd(exclusive, run_carry);
        run_carry = simt::vadd(run_carry, total);

        // Transposed store, reading tile columns and adding the offset.
        const simt::LaneMask rows = cols_in_range(row0, height);
        for (int j = 0; j < kWarpSize; ++j) {
            if (col0 + j >= width)
                continue;
            auto v = tiles.load(lane * 33 + (base + j));
            v = simt::vadd(v, offset);
            out.store(lane + ((col0 + j) * height + row0), v, rows);
        }
    }
}

template <typename Tout, typename Tsrc>
simt::LaunchStats launch_smem_tile_pass(simt::Engine& eng,
                                        const simt::DeviceBuffer<Tsrc>& in,
                                        std::int64_t height,
                                        std::int64_t width,
                                        simt::DeviceBuffer<Tout>& out)
{
    const simt::LaunchConfig cfg{
        {1, ceil_div(height, simt::kWarpSize), 1},
        {kSmemTileWarps * simt::kWarpSize, 1, 1}};
    const simt::KernelInfo info{
        "smem_tile_scanrow", 24,
        smem_tile_bytes<Tout>() +
            sat::block_carry_smem_bytes<Tout>(kSmemTileWarps)};
    return eng.launch(info, cfg, [&](simt::WarpCtx& w) {
        return smem_tile_scanrow_warp<Tout, Tsrc>(w, in, height, width, out);
    });
}

/// Full SAT with the scratchpad-tile kernel (two passes, like BRLT-ScanRow).
template <typename Tout, typename Tin>
[[nodiscard]] sat::SatResult<Tout>
compute_sat_smem_tile(simt::Engine& eng, const Matrix<Tin>& image)
{
    const std::int64_t h = image.height(), w = image.width();
    auto in = simt::DeviceBuffer<Tin>::from_matrix(image);
    simt::DeviceBuffer<Tout> mid(w * h), out(h * w);
    sat::SatResult<Tout> res;
    res.launches.push_back(launch_smem_tile_pass<Tout>(eng, in, h, w, mid));
    res.launches.push_back(launch_smem_tile_pass<Tout>(eng, mid, w, h, out));
    res.table = std::move(out).release_matrix(h, w);
    return res;
}

} // namespace satgpu::baselines
