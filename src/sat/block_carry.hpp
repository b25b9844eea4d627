// Intra-block partial-sum propagation (paper Fig. 3c).
//
// Step #1: every warp stores its 32 partial sums (one per lane) into a
//          WarpCount x WarpSize shared-memory matrix at row warpId.
// Step #2: the partials are scanned across the warp axis (warp 0 walks the
//          rows serially, lane-parallel over the 32 columns).
// Step #3: each warp reads back the exclusive prefix for its row and the
//          block total.
//
// Used by BRLT-ScanRow (carry across warps covering one row band) and by
// ScanColumn (carry across warps stacked down a column strip).
#pragma once

#include "sat/tile_io.hpp"
#include "simt/kernel_task.hpp"
#include "simt/native_backend.hpp"
#include "simt/profiler.hpp"

#include <span>

namespace satgpu::sat {

/// Shared memory the carry step asks of a block with `warp_count` warps.
template <typename T>
[[nodiscard]] constexpr std::int64_t
block_carry_smem_bytes(std::int64_t warp_count)
{
    return warp_count * kWarpSize * static_cast<std::int64_t>(sizeof(T));
}

/// Step #1, shared by both lowerings: deposit this warp's partial sums
/// into its row of the staging matrix (coalesced, conflict free).  Rows
/// are disjoint per warp, so the step is barrier free; the caller owns the
/// barrier that publishes the deposits to step #2.
template <typename W, typename T>
void block_carry_deposit(W& w, const LaneVec<T>& partial)
{
    const int wc = w.warps_per_block();
    auto sm = w.template smem_alloc<T>(
        "carry.partials", static_cast<std::int64_t>(wc) * kWarpSize);
    sm.store_row(std::int64_t{w.warp_id()} * kWarpSize, partial);
}

/// Step #2: warp 0 scans the staging matrix across the warp axis (each
/// lane owns a column, rows are folded top to bottom in ascending order --
/// the exact float summation order both lowerings must share).  A no-op
/// for every other warp.
template <typename T, typename W>
void block_carry_scan(W& w)
{
    if (w.warp_id() != 0)
        return;
    const int wc = w.warps_per_block();
    auto sm = w.template smem_alloc<T>(
        "carry.partials", static_cast<std::int64_t>(wc) * kWarpSize);
    LaneVec<T> acc = sm.load_row(0);
    for (int i = 1; i < wc; ++i) {
        const auto v = sm.load_row(std::int64_t{i} * kWarpSize);
        acc = simt::vadd(acc, v);
        sm.store_row(std::int64_t{i} * kWarpSize, acc);
    }
}

/// Step #3: gather this warp's exclusive prefix and the block total
/// (reads only; the caller's closing barrier protects the staging matrix
/// from the next round's deposits).
template <typename W, typename T>
void block_carry_gather(W& w, LaneVec<T>& exclusive, LaneVec<T>& block_total)
{
    const int wc = w.warps_per_block();
    auto sm = w.template smem_alloc<T>(
        "carry.partials", static_cast<std::int64_t>(wc) * kWarpSize);
    exclusive = w.warp_id() == 0
                    ? LaneVec<T>{}
                    : sm.load_row(std::int64_t{w.warp_id() - 1} * kWarpSize);
    block_total = sm.load_row(std::int64_t{wc - 1} * kWarpSize);
}

/// After co_await: `exclusive[l]` = sum of `partial[l]` over all warps with
/// smaller warpId, and `block_total[l]` = sum over every warp in the block.
/// (The simulator lowering -- steps separated by real block barriers.)
template <typename T>
simt::SubTask<> block_exclusive_carry(simt::WarpCtx& w,
                                      const LaneVec<T>& partial,
                                      LaneVec<T>& exclusive,
                                      LaneVec<T>& block_total)
{
    const simt::ProfileRange prof_range{"block-carry"};
    block_carry_deposit(w, partial);
    co_await w.sync();

    block_carry_scan<T>(w);
    co_await w.sync();

    block_carry_gather(w, exclusive, block_total);

    // The staging matrix is reused on the caller's next round; without this
    // barrier a warp that races ahead could overwrite partials a neighbour
    // has not read yet (a real hazard on hardware as well).
    co_await w.sync();
}

/// The native lowering for a whole block: the same three steps,
/// phase-major over the block's warps, with each barrier replaced by the
/// loop boundary it certifies.  `partial[i]` / `exclusive[i]` /
/// `block_total[i]` belong to warp i.
template <typename T>
void block_exclusive_carry_block_native(simt::NativeBlockCtx& blk,
                                        std::span<const LaneVec<T>> partial,
                                        std::span<LaneVec<T>> exclusive,
                                        std::span<LaneVec<T>> block_total)
{
    const int wc = blk.warps_per_block();
    for (int wid = 0; wid < wc; ++wid)
        block_carry_deposit(blk.warp(wid),
                            partial[static_cast<std::size_t>(wid)]);
    block_carry_scan<T>(blk.warp(0));
    for (int wid = 0; wid < wc; ++wid)
        block_carry_gather(blk.warp(wid),
                           exclusive[static_cast<std::size_t>(wid)],
                           block_total[static_cast<std::size_t>(wid)]);
}

} // namespace satgpu::sat
