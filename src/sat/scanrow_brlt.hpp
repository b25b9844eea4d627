// Register-based ScanRow-BRLT (paper Sec. IV-A).
//
// The dual of BRLT-ScanRow: scan FIRST, transpose AFTER.  Each warp loads a
// 32x32 tile, runs a shuffle-based parallel warp scan over every register
// row (Kogge-Stone or Ladner-Fischer), propagates carries, BRLT-transposes
// the scanned tile and stores it transposed.  Improves on the
// scan-transpose-scan of Bilgic et al. [17] by never materializing the
// untransposed intermediate in global memory.
//
// Same memory traffic as BRLT-ScanRow but ~4x the scan arithmetic plus 160
// shuffles per tile, which is exactly the difference the paper's model
// predicts (Sec. V-C) and Fig. 8 measures.
#pragma once

#include "core/check.hpp"
#include "sat/block_carry.hpp"
#include "sat/brlt.hpp"
#include "sat/launch_params.hpp"
#include "scan/warp_scan.hpp"
#include "simt/engine.hpp"
#include "simt/native_backend.hpp"

#include <span>

namespace satgpu::sat {

/// Reduce-totals phase shared by both lowerings: gather the 32 register
/// rows' totals (each row's last lane) into one vector, lane j <- row j.
template <typename T>
[[nodiscard]] LaneVec<T> reduce_row_totals(const RegTile<T>& data)
{
    if (simt::current_counters() == nullptr &&
        simt::current_hazard_checker() == nullptr) {
        // Uninstrumented lowering: the select cascade below resolves to
        // "lane j takes row j's last lane" -- read it directly.
        LaneVec<T> totals{};
        for (int j = 0; j < kWarpSize; ++j)
            totals.set(j,
                       data[static_cast<std::size_t>(j)].get(kWarpSize - 1));
        return totals;
    }
    const auto lane = LaneVec<std::int64_t>::lane_index();
    LaneVec<T> totals{};
    for (int j = 0; j < kWarpSize; ++j)
        totals = simt::vselect(
            lane == LaneVec<std::int64_t>::broadcast(j),
            simt::shfl(data[static_cast<std::size_t>(j)], kWarpSize - 1),
            totals);
    return totals;
}

/// Apply-offset phase shared by both lowerings: add each register row's
/// offset (its lane of the exclusive warp prefix + the chunk carry,
/// shuffled out to the whole row), then advance the running carry.
template <typename T>
void apply_row_offsets(RegTile<T>& data, const LaneVec<T>& exclusive,
                       LaneVec<T>& run_carry, const LaneVec<T>& block_total)
{
    if (simt::current_counters() == nullptr &&
        simt::current_hazard_checker() == nullptr) {
        // Uninstrumented lowering: each row adds the scalar offsets[j]
        // (what the broadcast shuffle below distributes) to all lanes.
        const auto offsets = exclusive + run_carry;
        for (int j = 0; j < kWarpSize; ++j) {
            auto& row = data[static_cast<std::size_t>(j)];
            row = row + LaneVec<T>::broadcast(offsets.get(j));
        }
        run_carry = run_carry + block_total;
        return;
    }
    const auto offsets = simt::vadd(exclusive, run_carry);
    for (int j = 0; j < kWarpSize; ++j) {
        const auto bcast = simt::shfl(offsets, j);
        data[static_cast<std::size_t>(j)] =
            simt::vadd(data[static_cast<std::size_t>(j)], bcast);
    }
    run_carry = simt::vadd(run_carry, block_total);
}

template <typename Tout, typename Tsrc>
simt::KernelTask scanrow_brlt_warp(simt::WarpCtx& w,
                                   const simt::DeviceBuffer<Tsrc>& in,
                                   std::int64_t height, std::int64_t width,
                                   simt::DeviceBuffer<Tout>& out,
                                   scan::WarpScanKind kind, bool padded_smem)
{
    const std::int64_t row0 = w.block_idx().y * kWarpSize;
    const std::int64_t chunk_w =
        std::int64_t{w.warps_per_block()} * kWarpSize;
    const std::int64_t chunks = ceil_div(width, chunk_w);
    // Before the transpose, rows live in register INDICES: lane j of
    // `run_carry` tracks the running prefix of tile row j.
    LaneVec<Tout> run_carry{};
    RegTile<Tout> data;

    for (std::int64_t c = 0; c < chunks; ++c) {
        const std::int64_t col0 =
            c * chunk_w + std::int64_t{w.warp_id()} * kWarpSize;
        {
            const simt::ProfileRange pr{"load"};
            load_tile_rows(in, height, width, row0, col0, data);
        }

        {
            // Parallel warp scan of each register row (32 independent
            // scans).
            const simt::ProfileRange pr{"scan-row"};
            scan::warp_inclusive_scan_tile(kind, data);
        }

        // Gather the 32 row totals into one lane vector (lane j <- row j).
        LaneVec<Tout> totals{};
        {
            const simt::ProfileRange pr{"reduce-totals"};
            totals = reduce_row_totals(data);
        }

        LaneVec<Tout> exclusive, block_total;
        co_await block_exclusive_carry(w, totals, exclusive, block_total);

        {
            // Add each row's offset (exclusive warp prefix + chunk carry).
            const simt::ProfileRange pr{"apply-offset"};
            apply_row_offsets(data, exclusive, run_carry, block_total);
        }

        co_await brlt_transpose(w, data, padded_smem);

        // Transposed store (identical layout to BRLT-ScanRow's store).
        const simt::ProfileRange pr{"store"};
        store_tile_transposed(out, height, width, row0, col0, data);
    }
}

/// The native lowering of one ScanRow-BRLT block: the exact phase sequence
/// of scanrow_brlt_warp, phase-major over the block's warps (see
/// brlt_scanrow_block_native for the schedule argument).
template <typename Tout, typename Tsrc>
void scanrow_brlt_block_native(simt::NativeBlockCtx& blk,
                               const simt::DeviceBuffer<Tsrc>& in,
                               std::int64_t height, std::int64_t width,
                               simt::DeviceBuffer<Tout>& out,
                               scan::WarpScanKind kind, bool padded_smem)
{
    const int wc = blk.warps_per_block();
    const std::int64_t row0 = blk.block_idx().y * kWarpSize;
    const std::int64_t chunk_w = std::int64_t{wc} * kWarpSize;
    const std::int64_t chunks = ceil_div(width, chunk_w);
    const auto data = blk.warp_scratch<RegTile<Tout>>();
    WarpLanes<Tout> run_carry{}, totals{}, exclusive{}, block_total{};
    const auto at = [](auto& v, int i) -> decltype(auto) {
        return v[static_cast<std::size_t>(i)];
    };

    for (std::int64_t c = 0; c < chunks; ++c) {
        const auto col0 = [&](int wid) {
            return c * chunk_w + std::int64_t{wid} * kWarpSize;
        };
        for (int wid = 0; wid < wc; ++wid)
            load_tile_rows(in, height, width, row0, col0(wid), at(data, wid));
        for (int wid = 0; wid < wc; ++wid)
            scan::warp_inclusive_scan_tile(kind, at(data, wid));
        for (int wid = 0; wid < wc; ++wid)
            at(totals, wid) = reduce_row_totals(at(data, wid));
        block_exclusive_carry_block_native<Tout>(blk, totals, exclusive,
                                                 block_total);
        for (int wid = 0; wid < wc; ++wid)
            apply_row_offsets(at(data, wid), at(exclusive, wid),
                              at(run_carry, wid), at(block_total, wid));
        brlt_transpose_block_native<Tout>(blk, data, padded_smem);
        for (int wid = 0; wid < wc; ++wid)
            store_tile_transposed(out, height, width, row0, col0(wid),
                                  at(data, wid));
    }
}

/// Fused K-image ScanRow-BRLT pass: grid.z = K, block (x, y, k) runs image
/// k's buffers (see launch_brlt_scanrow_wave for the bit-exactness
/// argument).
template <typename Tout, typename Tsrc>
simt::LaunchStats launch_scanrow_brlt_wave(
    simt::Engine& eng, std::span<const simt::DeviceBuffer<Tsrc>* const> ins,
    std::int64_t height, std::int64_t width,
    std::span<simt::DeviceBuffer<Tout>* const> outs,
    scan::WarpScanKind kind = scan::WarpScanKind::kKoggeStone,
    bool padded_smem = true, bool native = false)
{
    SATGPU_EXPECTS(!ins.empty() && ins.size() == outs.size());
    const int wc = warps_per_block<Tout>();
    const simt::LaunchConfig cfg{
        {1, ceil_div(height, kWarpSize),
         static_cast<std::int64_t>(ins.size())},
        {std::int64_t{wc} * kWarpSize, 1, 1}};
    const simt::KernelInfo info{
        "scanrow_brlt", regs_per_thread<Tout>(),
        brlt_smem_bytes<Tout>(padded_smem) +
            block_carry_smem_bytes<Tout>(wc)};
    if (native)
        return simt::native_launch(
            eng, info, cfg, [&](simt::NativeBlockCtx& blk) {
                const auto z = static_cast<std::size_t>(blk.block_idx().z);
                scanrow_brlt_block_native<Tout, Tsrc>(blk, *ins[z], height,
                                                      width, *outs[z], kind,
                                                      padded_smem);
            });
    return eng.launch(info, cfg, [&](simt::WarpCtx& w) {
        const auto z = static_cast<std::size_t>(w.block_idx().z);
        return scanrow_brlt_warp<Tout, Tsrc>(w, *ins[z], height, width,
                                             *outs[z], kind, padded_smem);
    });
}

template <typename Tout, typename Tsrc>
simt::LaunchStats launch_scanrow_brlt_pass(
    simt::Engine& eng, const simt::DeviceBuffer<Tsrc>& in,
    std::int64_t height, std::int64_t width, simt::DeviceBuffer<Tout>& out,
    scan::WarpScanKind kind = scan::WarpScanKind::kKoggeStone,
    bool padded_smem = true)
{
    const simt::DeviceBuffer<Tsrc>* const ins[] = {&in};
    simt::DeviceBuffer<Tout>* const outs[] = {&out};
    return launch_scanrow_brlt_wave<Tout, Tsrc>(eng, ins, height, width,
                                                outs, kind, padded_smem);
}

} // namespace satgpu::sat
