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
#include <tuple>

namespace satgpu::sat {

/// Launch one BRLT-ScanRow pass over K same-shaped matrices as a single
/// fused kernel: grid.z = K and block (x, y, k) runs image k's buffers.
/// The kernel reads block_idx().z only to pick image k's buffers, so every
/// fused block executes exactly like the corresponding block of a K = 1
/// launch --
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
    // Block (0, by, k) owns rows [by*32, by*32+32) of image k; warp i
    // holds the 32x32 tile at column c*chunk_w + 32*i of chunk c.  After
    // the transpose each thread owns row row0+lane, and its running carry
    // is that row's prefix over all previous chunks.
    const std::int64_t chunk_w = std::int64_t{wc} * kWarpSize;
    const auto tile = [&](const auto& w, std::int64_t c) {
        return std::tuple{static_cast<std::size_t>(w.block_idx().z),
                          w.block_idx().y * kWarpSize,
                          c * chunk_w + std::int64_t{w.warp_id()} * kWarpSize};
    };
    return simt::launch_phases(
        eng, info, cfg, native,
        simt::phase_list<CarryState<Tout>>(
            [&](simt::Dim3) { return ceil_div(width, chunk_w); },
            // Warps whose tile starts at or past `width` (the rest of the
            // last chunk) have no columns.
            simt::LiveWarps{[&](simt::Dim3, std::int64_t c) {
                return ceil_div(width - c * chunk_w, kWarpSize);
            }},
            [&](auto& w, CarryState<Tout>& st, std::int64_t c) {
                const auto [z, row0, col0] = tile(w, c);
                const simt::ProfileRange pr{"load"};
                load_tile_rows(*ins[z], height, width, row0, col0, st.data);
            },
            brlt_transpose_rounds<Tout>(wc, padded_smem),
            [](auto&, CarryState<Tout>& st, std::int64_t) {
                const simt::ProfileRange pr{"scan-row"};
                scan::serial_scan_registers(st.data);
                st.partial = st.data[kWarpSize - 1];
            },
            block_carry_steps<Tout>(),
            [&](auto& w, CarryState<Tout>& st, std::int64_t c) {
                const auto [z, row0, col0] = tile(w, c);
                {
                    const simt::ProfileRange pr{"apply-offset"};
                    apply_chunk_offset(st.data, st.exclusive, st.run_carry,
                                       st.total);
                }
                // Transposed store: element (row0+lane, col0+j) -> out row
                // col0+j.
                const simt::ProfileRange pr{"store"};
                store_tile_transposed(*outs[z], height, width, row0, col0,
                                      st.data);
            }));
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
