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
#include "simt/native_backend.hpp"
#include "simt/profiler.hpp"

#include <tuple>

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

/// Per-warp state of a phase-list kernel that carries across its block's
/// warps (block_carry_steps) and across its chunk loop (`run_carry`).
template <typename T>
struct CarryState {
    RegTile<T> data;
    LaneVec<T> run_carry; ///< this warp's prefix over earlier chunks
    LaneVec<T> partial;   ///< deposited by block_carry_steps
    LaneVec<T> exclusive; ///< gathered by block_carry_steps
    LaneVec<T> total;     ///< gathered by block_carry_steps
};

/// The carry as phase-list steps (simt::phase_list) over a CarryState:
/// deposit `partial` (step #1), barrier, scan (step #2), barrier, gather
/// (step #3), barrier.  Afterwards `exclusive[l]` is the sum of
/// `partial[l]` over all warps with smaller warpId and `total[l]` the sum
/// over every warp in the block.
template <typename T>
[[nodiscard]] auto block_carry_steps()
{
    return std::tuple{
        [](auto& w, CarryState<T>& st, std::int64_t) {
            const simt::ProfileRange pr{"block-carry"};
            block_carry_deposit(w, st.partial);
        },
        simt::barrier,
        [](auto& w, CarryState<T>&, std::int64_t) {
            const simt::ProfileRange pr{"block-carry"};
            block_carry_scan<T>(w);
        },
        simt::barrier,
        [](auto& w, CarryState<T>& st, std::int64_t) {
            const simt::ProfileRange pr{"block-carry"};
            block_carry_gather(w, st.exclusive, st.total);
        },
        // The staging matrix is reused on the caller's next round; without
        // this barrier a warp that races ahead could overwrite partials a
        // neighbour has not read yet (a real hazard on hardware as well).
        simt::barrier};
}

} // namespace satgpu::sat
