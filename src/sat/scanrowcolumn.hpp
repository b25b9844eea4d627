// Register-based ScanRowColumn (paper Sec. IV-C): two specialized kernels
// with no transpose at all.
//
//  * ScanRow (Fig. 4): each warp owns one matrix row and walks it in
//    1024-element chunks; every 32-element group is scanned with a parallel
//    warp scan and chained through a shuffled carry.  No shared memory, no
//    barriers.
//  * ScanColumn: each block owns a 32-column strip; warps stack down the
//    strip in 32-row bands, each thread serial-scans its column segment in
//    registers, and band carries propagate through the Fig. 3c block-carry.
#pragma once

#include "core/check.hpp"
#include "sat/block_carry.hpp"
#include "sat/launch_params.hpp"
#include "sat/tile_io.hpp"
#include "scan/serial_scan.hpp"
#include "scan/warp_scan.hpp"
#include "simt/engine.hpp"
#include "simt/native_backend.hpp"
#include "simt/profiler.hpp"

#include <span>

namespace satgpu::sat {

/// ScanRow warp body, the kernel source both lowerings share (W =
/// simt::WarpCtx or simt::NativeWarpCtx).  Barrier free end to end, so
/// simt::launch_warps runs it on either backend.
template <typename Tout, typename Tsrc, typename W>
void scanrow_warp_body(W& w, const simt::DeviceBuffer<Tsrc>& in,
                       std::int64_t height, std::int64_t width,
                       simt::DeviceBuffer<Tout>& out, scan::WarpScanKind kind)
{
    const std::int64_t row =
        w.block_idx().y * w.warps_per_block() + w.warp_id();
    if (row >= height)
        return; // kernel has no barriers, so early exit is safe

    LaneVec<Tout> carry{};
    const std::int64_t chunk_w = kWarpSize * kWarpSize; // C * WarpSize
    for (std::int64_t c0 = 0; c0 < width; c0 += chunk_w) {
        // Cache up to C=32 register groups of this row (Sec. IV-C1).
        RegTile<Tout> data;
        const int groups = static_cast<int>(
            std::min<std::int64_t>(ceil_div(width - c0, kWarpSize),
                                   kWarpSize));
        {
            const simt::ProfileRange pr{"load"};
            for (int j = 0; j < groups; ++j) {
                const std::int64_t col0 = c0 + std::int64_t{j} * kWarpSize;
                const auto m = cols_in_range(col0, width);
                data[static_cast<std::size_t>(j)] =
                    in.load_row(row * width + col0, m)
                        .template cast<Tout>();
            }
        }
        {
            // Fig. 4: scan each group, chain the last lane's total forward.
            const simt::ProfileRange pr{"scan-row"};
            scan::warp_inclusive_scan_tile(kind, data, groups);
            for (int j = 0; j < groups; ++j) {
                auto& reg = data[static_cast<std::size_t>(j)];
                reg = simt::vadd(reg, carry);
                carry = simt::shfl(reg, kWarpSize - 1);
            }
        }
        const simt::ProfileRange pr{"store"};
        for (int j = 0; j < groups; ++j) {
            const std::int64_t col0 = c0 + std::int64_t{j} * kWarpSize;
            const auto m = cols_in_range(col0, width);
            out.store_row(row * width + col0,
                          data[static_cast<std::size_t>(j)], m);
        }
    }
}

/// ScanColumn: block `bx` owns columns [bx*32, bx*32+32); warps stack in
/// 32-row bands and step down the matrix in (warps*32)-row strips.
template <typename Tout>
simt::KernelTask scancolumn_warp(simt::WarpCtx& w,
                                 const simt::DeviceBuffer<Tout>& in,
                                 std::int64_t height, std::int64_t width,
                                 simt::DeviceBuffer<Tout>& out)
{
    const std::int64_t col0 = w.block_idx().x * kWarpSize;
    const std::int64_t strip_h =
        std::int64_t{w.warps_per_block()} * kWarpSize;
    const std::int64_t steps = ceil_div(height, strip_h);
    LaneVec<Tout> run_carry{}; // per lane = per column
    RegTile<Tout> data;

    for (std::int64_t s = 0; s < steps; ++s) {
        const std::int64_t row0 =
            s * strip_h + std::int64_t{w.warp_id()} * kWarpSize;
        {
            const simt::ProfileRange pr{"load"};
            load_tile_rows(in, height, width, row0, col0, data);
        }

        {
            // Serial warp-scan down the columns (Sec. IV-C2): pure register
            // arithmetic, no shuffles, no divergence.
            const simt::ProfileRange pr{"scan-column"};
            scan::serial_scan_registers(data);
        }

        LaneVec<Tout> exclusive, total;
        co_await block_exclusive_carry(w, data[kWarpSize - 1], exclusive,
                                       total);

        {
            const simt::ProfileRange pr{"apply-offset"};
            apply_chunk_offset(data, exclusive, run_carry, total);
        }

        const simt::ProfileRange pr{"store"};
        store_tile_rows(out, height, width, row0, col0, data);
    }
}

/// The native lowering of one ScanColumn block: the exact phase sequence of
/// scancolumn_warp, phase-major over the block's warps (see
/// brlt_scanrow_block_native for the schedule argument).
template <typename Tout>
void scancolumn_block_native(simt::NativeBlockCtx& blk,
                             const simt::DeviceBuffer<Tout>& in,
                             std::int64_t height, std::int64_t width,
                             simt::DeviceBuffer<Tout>& out)
{
    const int wc = blk.warps_per_block();
    const std::int64_t col0 = blk.block_idx().x * kWarpSize;
    const std::int64_t strip_h = std::int64_t{wc} * kWarpSize;
    const std::int64_t steps = ceil_div(height, strip_h);
    const auto data = blk.warp_scratch<RegTile<Tout>>();
    WarpLanes<Tout> run_carry{}, partial{}, exclusive{}, total{};
    const auto at = [](auto& v, int i) -> decltype(auto) {
        return v[static_cast<std::size_t>(i)];
    };

    for (std::int64_t s = 0; s < steps; ++s) {
        const auto row0 = [&](int wid) {
            return s * strip_h + std::int64_t{wid} * kWarpSize;
        };
        for (int wid = 0; wid < wc; ++wid)
            load_tile_rows(in, height, width, row0(wid), col0, at(data, wid));
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
            store_tile_rows(out, height, width, row0(wid), col0,
                            at(data, wid));
    }
}

/// Fused K-image ScanRow pass: grid.z = K, block (x, y, k) runs image k's
/// buffers (see launch_brlt_scanrow_wave for the bit-exactness argument).
template <typename Tout, typename Tsrc>
simt::LaunchStats launch_scanrow_wave(
    simt::Engine& eng, std::span<const simt::DeviceBuffer<Tsrc>* const> ins,
    std::int64_t height, std::int64_t width,
    std::span<simt::DeviceBuffer<Tout>* const> outs, scan::WarpScanKind kind,
    bool native = false)
{
    SATGPU_EXPECTS(!ins.empty() && ins.size() == outs.size());
    // BlockDim.x = 4096 / sizeof(T) threads (Sec. IV-C1).
    const int wc = 128 / static_cast<int>(sizeof(Tout));
    const simt::LaunchConfig cfg{
        {1, ceil_div(height, wc), static_cast<std::int64_t>(ins.size())},
        {std::int64_t{wc} * kWarpSize, 1, 1}};
    const simt::KernelInfo info{"scanrow", regs_per_thread<Tout>(), 0};
    return simt::launch_warps(eng, info, cfg, native, [&](auto& w) {
        const auto z = static_cast<std::size_t>(w.block_idx().z);
        scanrow_warp_body<Tout, Tsrc>(w, *ins[z], height, width, *outs[z],
                                      kind);
    });
}

template <typename Tout, typename Tsrc>
simt::LaunchStats launch_scanrow_pass(simt::Engine& eng,
                                      const simt::DeviceBuffer<Tsrc>& in,
                                      std::int64_t height, std::int64_t width,
                                      simt::DeviceBuffer<Tout>& out,
                                      scan::WarpScanKind kind)
{
    const simt::DeviceBuffer<Tsrc>* const ins[] = {&in};
    simt::DeviceBuffer<Tout>* const outs[] = {&out};
    return launch_scanrow_wave<Tout, Tsrc>(eng, ins, height, width, outs,
                                           kind);
}

/// Fused K-image ScanColumn pass (same z-dispatch contract as above).
template <typename Tout>
simt::LaunchStats launch_scancolumn_wave(
    simt::Engine& eng, std::span<const simt::DeviceBuffer<Tout>* const> ins,
    std::int64_t height, std::int64_t width,
    std::span<simt::DeviceBuffer<Tout>* const> outs, bool native = false)
{
    SATGPU_EXPECTS(!ins.empty() && ins.size() == outs.size());
    const int wc = warps_per_block<Tout>();
    const simt::LaunchConfig cfg{
        {ceil_div(width, kWarpSize), 1,
         static_cast<std::int64_t>(ins.size())},
        {kWarpSize, wc, 1}};
    const simt::KernelInfo info{"scancolumn", regs_per_thread<Tout>(),
                                block_carry_smem_bytes<Tout>(wc)};
    if (native)
        return simt::native_launch(
            eng, info, cfg, [&](simt::NativeBlockCtx& blk) {
                const auto z = static_cast<std::size_t>(blk.block_idx().z);
                scancolumn_block_native<Tout>(blk, *ins[z], height, width,
                                              *outs[z]);
            });
    return eng.launch(info, cfg, [&](simt::WarpCtx& w) {
        const auto z = static_cast<std::size_t>(w.block_idx().z);
        return scancolumn_warp<Tout>(w, *ins[z], height, width, *outs[z]);
    });
}

template <typename Tout>
simt::LaunchStats launch_scancolumn_pass(simt::Engine& eng,
                                         const simt::DeviceBuffer<Tout>& in,
                                         std::int64_t height,
                                         std::int64_t width,
                                         simt::DeviceBuffer<Tout>& out)
{
    const simt::DeviceBuffer<Tout>* const ins[] = {&in};
    simt::DeviceBuffer<Tout>* const outs[] = {&out};
    return launch_scancolumn_wave<Tout>(eng, ins, height, width, outs);
}

} // namespace satgpu::sat
