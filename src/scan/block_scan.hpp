// Block-wide inclusive scan: one value per thread, scanned across the whole
// thread block (warp scans stitched through shared memory).  This is the
// building block the OpenCV- and NPP-style baselines use per chunk, and the
// first stage of the device-wide scan.
#pragma once

#include "core/check.hpp"
#include "scan/warp_scan.hpp"
#include "simt/native_backend.hpp"

#include <tuple>

namespace satgpu::scan {

/// Per-warp state of a phase-list kernel built on block_scan_steps.
template <typename T>
struct BlockScanState {
    LaneVec<T> v;     ///< one value per thread, scanned in place
    LaneVec<T> total; ///< the block total, in every lane
    LaneVec<T> carry; ///< the kernel's running prefix over earlier chunks
};

/// The block-wide inclusive scan as phase-list steps (simt::phase_list)
/// over a BlockScanState: afterwards st.v[l] is the inclusive prefix over
/// all block threads up to (warp_id*32 + l) and st.total the sum over the
/// whole block.  Three barriers; the last makes the staging buffer
/// immediately reusable.  Requires warps_per_block <= 32.
template <typename T>
[[nodiscard]] auto
block_scan_steps(WarpScanKind kind = WarpScanKind::kKoggeStone)
{
    const auto totals = [](auto& w) {
        return w.template smem_alloc<T>("blockscan.totals",
                                        w.warps_per_block());
    };
    return std::tuple{
        // Each warp scans its values and lane 31 deposits the warp total.
        [kind, totals](auto& w, BlockScanState<T>& st, std::int64_t) {
            SATGPU_EXPECTS(w.warps_per_block() <= kWarpSize);
            st.v = warp_inclusive_scan(kind, st.v);
            totals(w).store(LaneVec<std::int64_t>::broadcast(w.warp_id()),
                            simt::shfl(st.v, kWarpSize - 1), 0x1u);
        },
        simt::barrier,
        // Warp 0 scans the warp totals.
        [kind, totals](auto& w, BlockScanState<T>&, std::int64_t) {
            if (w.warp_id() != 0)
                return;
            const int wc = w.warps_per_block();
            const simt::LaneMask warps_mask =
                wc >= kWarpSize ? simt::kFullMask : ((1u << wc) - 1u);
            const auto lane = LaneVec<std::int64_t>::lane_index();
            auto sm = totals(w);
            auto t = sm.load(lane, warps_mask);
            t = warp_inclusive_scan(kind, t);
            sm.store(lane, t, warps_mask);
        },
        simt::barrier,
        // Every warp adds its predecessors' total and reads the block's.
        [totals](auto& w, BlockScanState<T>& st, std::int64_t) {
            auto sm = totals(w);
            if (w.warp_id() > 0) {
                const auto prev =
                    sm.load(LaneVec<std::int64_t>::broadcast(w.warp_id() - 1));
                st.v = simt::vadd(st.v, prev);
            }
            st.total = sm.load(
                LaneVec<std::int64_t>::broadcast(w.warps_per_block() - 1));
        },
        simt::barrier};
}

} // namespace satgpu::scan
