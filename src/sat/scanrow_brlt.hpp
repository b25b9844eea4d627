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
#include <tuple>

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

/// Apply-offset phase: add each register row's offset (its lane of the
/// exclusive warp prefix + the chunk carry, shuffled out to the whole
/// row), then advance the running carry.
template <typename T>
void apply_row_offsets(RegTile<T>& data, const LaneVec<T>& exclusive,
                       LaneVec<T>& run_carry, const LaneVec<T>& block_total)
{
    const auto offsets = simt::vadd(exclusive, run_carry);
    RegTile<T> row_offset;
    simt::shfl_each_lane(offsets,
                         std::span<LaneVec<T>, kWarpSize>(row_offset));
    for (std::size_t j = 0; j < kWarpSize; ++j)
        data[j] = simt::vadd(data[j], row_offset[j]);
    run_carry = simt::vadd(run_carry, block_total);
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
    // Same tiles as BRLT-ScanRow.  Before the transpose, rows live in
    // register INDICES: lane j of `run_carry` tracks the running prefix of
    // tile row j.
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
                {
                    const simt::ProfileRange pr{"load"};
                    load_tile_rows(*ins[z], height, width, row0, col0,
                                   st.data);
                }
                {
                    // Parallel warp scan of each register row (32
                    // independent scans).
                    const simt::ProfileRange pr{"scan-row"};
                    scan::warp_inclusive_scan_tile(kind, st.data);
                }
                // Gather the 32 row totals into one lane vector (lane j <-
                // row j).
                const simt::ProfileRange pr{"reduce-totals"};
                st.partial = reduce_row_totals(st.data);
            },
            block_carry_steps<Tout>(),
            [](auto&, CarryState<Tout>& st, std::int64_t) {
                // Add each row's offset (exclusive warp prefix + chunk
                // carry).
                const simt::ProfileRange pr{"apply-offset"};
                apply_row_offsets(st.data, st.exclusive, st.run_carry,
                                  st.total);
            },
            brlt_transpose_rounds<Tout>(wc, padded_smem),
            [&](auto& w, CarryState<Tout>& st, std::int64_t c) {
                const auto [z, row0, col0] = tile(w, c);
                // Transposed store (identical layout to BRLT-ScanRow's).
                const simt::ProfileRange pr{"store"};
                store_tile_transposed(*outs[z], height, width, row0, col0,
                                      st.data);
            }));
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
