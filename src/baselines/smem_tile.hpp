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
#include "simt/native_backend.hpp"

#include <tuple>

namespace satgpu::baselines {

inline constexpr int kSmemTileWarps = 8; // tiles that fit one block's smem

template <typename Tout>
[[nodiscard]] constexpr std::int64_t smem_tile_bytes()
{
    return std::int64_t{kSmemTileWarps} * 32 * 33 *
           static_cast<std::int64_t>(sizeof(Tout));
}

/// One scratchpad-cached transposing row-scan pass: block (0, y, 0) owns
/// rows [y*32, y*32+32); warp i stages the 32x32 tile at column
/// c*chunk_w + 32*i of chunk c in its own shared-memory tile, and the
/// Fig. 3c block carry chains the row sums across the block's warps.
template <typename Tout, typename Tsrc>
simt::LaunchStats launch_smem_tile_pass(simt::Engine& eng,
                                        const simt::DeviceBuffer<Tsrc>& in,
                                        std::int64_t height,
                                        std::int64_t width,
                                        simt::DeviceBuffer<Tout>& out)
{
    using satgpu::ceil_div;
    using sat::cols_in_range;
    using simt::kWarpSize;
    using simt::LaneVec;
    using State = sat::CarryState<Tout>;

    const simt::LaunchConfig cfg{
        {1, ceil_div(height, kWarpSize), 1},
        {kSmemTileWarps * kWarpSize, 1, 1}};
    const simt::KernelInfo info{
        "smem_tile_scanrow", 24,
        smem_tile_bytes<Tout>() +
            sat::block_carry_smem_bytes<Tout>(kSmemTileWarps)};
    const std::int64_t chunk_w = std::int64_t{kSmemTileWarps} * kWarpSize;
    const auto lane = LaneVec<std::int64_t>::lane_index();
    // Warp w's shared-memory tile (row stride 33), its first element, and
    // its first row and column in chunk c.
    const auto tile = [&](auto& w, std::int64_t c) {
        return std::tuple{
            w.template smem_alloc<Tout>(
                "smem_tiles", std::int64_t{w.warps_per_block()} * 32 * 33),
            std::int64_t{w.warp_id()} * 32 * 33, w.block_idx().y * kWarpSize,
            c * chunk_w + std::int64_t{w.warp_id()} * kWarpSize};
    };
    return simt::launch_phases(
        eng, info, cfg, false,
        simt::phase_list<State>(
            [&](simt::Dim3) { return ceil_div(width, chunk_w); },
            [&](auto& w, State& st, std::int64_t c) {
                auto [tiles, base, row0, col0] = tile(w, c);
                const simt::LaneMask cols = cols_in_range(col0, width);

                // Stage the tile in shared memory: smem[r][lane] =
                // in(row0+r, ...).
                for (int r = 0; r < kWarpSize; ++r) {
                    LaneVec<Tout> v{};
                    if (row0 + r < height)
                        v = in.load(lane + ((row0 + r) * width + col0), cols)
                                .template cast<Tout>();
                    tiles.store(lane + (base + r * 33), v);
                }

                // Serial row scan THROUGH shared memory: thread `lane`
                // scans tile row `lane`; each step is one smem load + add
                // + store.
                LaneVec<Tout> acc = tiles.load(lane * 33 + base);
                for (int j = 1; j < kWarpSize; ++j) {
                    const auto v = tiles.load(lane * 33 + (base + j));
                    acc = simt::vadd(acc, v);
                    tiles.store(lane * 33 + (base + j), acc);
                }
                st.partial = acc;
            },
            sat::block_carry_steps<Tout>(),
            [&](auto& w, State& st, std::int64_t c) {
                auto [tiles, base, row0, col0] = tile(w, c);
                const auto offset = simt::vadd(st.exclusive, st.run_carry);
                st.run_carry = simt::vadd(st.run_carry, st.total);

                // Transposed store, reading tile columns and adding the
                // offset.
                const simt::LaneMask rows = cols_in_range(row0, height);
                for (int j = 0; j < kWarpSize; ++j) {
                    if (col0 + j >= width)
                        continue;
                    auto v = tiles.load(lane * 33 + (base + j));
                    v = simt::vadd(v, offset);
                    out.store(lane + ((col0 + j) * height + row0), v, rows);
                }
            }));
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
