// Register-based BRLT-ScanRow (paper Sec. IV-B, Fig. 3) -- the paper's
// fastest SAT algorithm.
//
// One kernel computes a TRANSPOSING row scan: each warp caches a 32x32 tile
// in registers (coalesced row loads), BRLT-transposes it so every thread
// owns a full tile row, serial-scans inside each thread (zero shuffles),
// propagates carries across the block's warps through shared memory
// (Fig. 3c) and across 1024-column chunks through a per-thread running
// carry, then stores the tile transposed (coalesced again).  Running the
// same kernel twice -- out1 = (rowscan I)^T, out2 = (rowscan out1)^T --
// yields the SAT, because rowscan(A^T)^T = colscan(A).
#pragma once

#include "core/check.hpp"
#include "sat/block_carry.hpp"
#include "sat/brlt.hpp"
#include "sat/launch_params.hpp"
#include "scan/serial_scan.hpp"
#include "simt/engine.hpp"
#include "simt/native_backend.hpp"

#include <span>

namespace satgpu::sat {

/// One warp of the BRLT-ScanRow pass.  `in` is height x width; `out` is
/// width x height and receives the transposed row-scan.
template <typename Tout, typename Tsrc>
simt::KernelTask brlt_scanrow_warp(simt::WarpCtx& w,
                                   const simt::DeviceBuffer<Tsrc>& in,
                                   std::int64_t height, std::int64_t width,
                                   simt::DeviceBuffer<Tout>& out,
                                   bool padded_smem)
{
    const std::int64_t row0 = w.block_idx().y * kWarpSize;
    const std::int64_t chunk_w =
        std::int64_t{w.warps_per_block()} * kWarpSize;
    const std::int64_t chunks = ceil_div(width, chunk_w);
    // After BRLT, each thread owns row row0+lane; its running carry is
    // that row's prefix over all previous chunks.
    LaneVec<Tout> run_carry{};
    RegTile<Tout> data;

    for (std::int64_t c = 0; c < chunks; ++c) {
        const std::int64_t col0 =
            c * chunk_w + std::int64_t{w.warp_id()} * kWarpSize;
        {
            const simt::ProfileRange pr{"load"};
            load_tile_rows(in, height, width, row0, col0, data);
        }

        co_await brlt_transpose(w, data, padded_smem);
        {
            const simt::ProfileRange pr{"scan-row"};
            scan::serial_scan_registers(data);
        }

        LaneVec<Tout> exclusive, total;
        co_await block_exclusive_carry(w, data[kWarpSize - 1], exclusive,
                                       total);

        {
            const simt::ProfileRange pr{"apply-offset"};
            apply_chunk_offset(data, exclusive, run_carry, total);
        }

        // Transposed store: element (row0+lane, col0+j) -> out row col0+j.
        const simt::ProfileRange pr{"store"};
        store_tile_transposed(out, height, width, row0, col0, data);
    }
}

/// The native lowering of one BRLT-ScanRow block: the exact phase sequence
/// of brlt_scanrow_warp, run phase-major over the block's warps with the
/// per-warp register state (`data[i]`, `run_carry[i]`) hoisted into
/// vectors.  Every barrier of the simulator lowering corresponds to a loop
/// boundary here; the hazard certificate is what licenses the reordering.
template <typename Tout, typename Tsrc>
void brlt_scanrow_block_native(simt::NativeBlockCtx& blk,
                               const simt::DeviceBuffer<Tsrc>& in,
                               std::int64_t height, std::int64_t width,
                               simt::DeviceBuffer<Tout>& out,
                               bool padded_smem)
{
    const int wc = blk.warps_per_block();
    const std::int64_t row0 = blk.block_idx().y * kWarpSize;
    const std::int64_t chunk_w = std::int64_t{wc} * kWarpSize;
    const std::int64_t chunks = ceil_div(width, chunk_w);
    const auto data = blk.warp_scratch<RegTile<Tout>>();
    WarpLanes<Tout> run_carry{}, partial{}, exclusive{}, total{};
    const auto at = [](auto& v, int i) -> decltype(auto) {
        return v[static_cast<std::size_t>(i)];
    };

    for (std::int64_t c = 0; c < chunks; ++c) {
        const auto col0 = [&](int wid) {
            return c * chunk_w + std::int64_t{wid} * kWarpSize;
        };
        for (int wid = 0; wid < wc; ++wid)
            load_tile_rows(in, height, width, row0, col0(wid), at(data, wid));
        brlt_transpose_block_native<Tout>(blk, data, padded_smem);
        for (int wid = 0; wid < wc; ++wid)
            scan::serial_scan_registers(at(data, wid));
        for (int wid = 0; wid < wc; ++wid)
            at(partial, wid) = at(data, wid)[kWarpSize - 1];
        block_exclusive_carry_block_native<Tout>(blk, partial, exclusive,
                                                 total);
        for (int wid = 0; wid < wc; ++wid)
            apply_chunk_offset(at(data, wid), at(exclusive, wid),
                               at(run_carry, wid), at(total, wid));
        for (int wid = 0; wid < wc; ++wid)
            store_tile_transposed(out, height, width, row0, col0(wid),
                                  at(data, wid));
    }
}

/// Launch one BRLT-ScanRow pass over K same-shaped matrices as a single
/// fused kernel: grid.z = K and block (x, y, k) runs image k's buffers.
/// The warp program never reads block_idx().z, so every fused block
/// executes exactly like the corresponding block of a K = 1 launch --
/// outputs are bit-identical to K separate launches while the (modeled)
/// per-launch overhead is paid once.  `warps_override` replaces the
/// paper's block size (32 warps for 4-byte T, 16 for 64f) for the
/// block-size ablation bench.  `native` selects the vectorized host
/// lowering (same blocks, phase-major warps, zero instrumentation) --
/// callers go through Runtime::plan, which only sets it for
/// hazard-certified configurations.
template <typename Tout, typename Tsrc>
simt::LaunchStats launch_brlt_scanrow_wave(
    simt::Engine& eng, std::span<const simt::DeviceBuffer<Tsrc>* const> ins,
    std::int64_t height, std::int64_t width,
    std::span<simt::DeviceBuffer<Tout>* const> outs, bool padded_smem = true,
    int warps_override = 0, bool native = false)
{
    SATGPU_EXPECTS(!ins.empty() && ins.size() == outs.size());
    const int wc =
        warps_override > 0 ? warps_override : warps_per_block<Tout>();
    const simt::LaunchConfig cfg{
        {1, ceil_div(height, kWarpSize),
         static_cast<std::int64_t>(ins.size())},
        {std::int64_t{wc} * kWarpSize, 1, 1}};
    const simt::KernelInfo info{
        "brlt_scanrow", regs_per_thread<Tout>(),
        brlt_smem_bytes<Tout>(padded_smem) +
            block_carry_smem_bytes<Tout>(wc)};
    if (native)
        return simt::native_launch(
            eng, info, cfg, [&](simt::NativeBlockCtx& blk) {
                const auto z = static_cast<std::size_t>(blk.block_idx().z);
                brlt_scanrow_block_native<Tout, Tsrc>(
                    blk, *ins[z], height, width, *outs[z], padded_smem);
            });
    return eng.launch(info, cfg, [&](simt::WarpCtx& w) {
        const auto z = static_cast<std::size_t>(w.block_idx().z);
        return brlt_scanrow_warp<Tout, Tsrc>(w, *ins[z], height, width,
                                             *outs[z], padded_smem);
    });
}

/// Launch one BRLT-ScanRow pass over the whole matrix (a K = 1 wave).
template <typename Tout, typename Tsrc>
simt::LaunchStats launch_brlt_scanrow_pass(simt::Engine& eng,
                                           const simt::DeviceBuffer<Tsrc>& in,
                                           std::int64_t height,
                                           std::int64_t width,
                                           simt::DeviceBuffer<Tout>& out,
                                           bool padded_smem = true,
                                           int warps_override = 0)
{
    const simt::DeviceBuffer<Tsrc>* const ins[] = {&in};
    simt::DeviceBuffer<Tout>* const outs[] = {&out};
    return launch_brlt_scanrow_wave<Tout, Tsrc>(eng, ins, height, width,
                                                outs, padded_smem,
                                                warps_override);
}

} // namespace satgpu::sat
