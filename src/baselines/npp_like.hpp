// NPP-style SAT (nppiIntegral), reconstructed from the paper's
// reverse-engineered launch shapes (Table II):
//
//   kernel   blockSize    gridSize   Regs  SSMem
//   scanRow  (256,1,1)    (1,H,1)    20    2.25KB
//   scanCol  (1,256,1)    (W+1,1,1)  18    2.25KB
//
// scanRow is a per-row 256-thread block scan (like OpenCV's generic
// horizontal pass).  scanCol assigns one block per COLUMN with its 256
// threads spread down the rows -- every warp access strides by the row
// pitch, so the column pass is fully uncoalesced.  That access pattern is
// the main reason NPP trails the proposed kernels by up to 3.2x.
// NPP only ships 8u32s and 8u32f variants (Sec. VI-B1).
#pragma once

#include "baselines/opencv_like.hpp"

namespace satgpu::baselines {

/// scanRow: identical decomposition to the generic horizontal pass, with
/// Table II's resource footprint.  Fuses K same-shaped images into one
/// grid.z = K launch (see launch_opencv_horizontal_wave).
template <typename Tout, typename Tsrc>
simt::LaunchStats launch_npp_scanrow_wave(
    simt::Engine& eng, std::span<const simt::DeviceBuffer<Tsrc>* const> ins,
    std::int64_t height, std::int64_t width,
    std::span<simt::DeviceBuffer<Tout>* const> outs)
{
    SATGPU_EXPECTS(!ins.empty() && ins.size() == outs.size());
    const simt::LaunchConfig cfg{
        {1, height, static_cast<std::int64_t>(ins.size())},
        {kScanBlock, 1, 1}};
    const simt::KernelInfo info{"npp_scanRow", 20, 2304 /* 2.25 KB */};
    return simt::launch_phases(
        eng, info, cfg, false,
        opencv_horizontal_phases<Tout, Tsrc>(ins, width, outs));
}

/// scanCol: block (1,256,1), one block per column; thread t covers rows
/// t, t+256, ...; each 256-row chunk is block-scanned through shared
/// memory.  Loads/stores stride by `width` elements -> 32 sectors per warp
/// access.
template <typename Tout>
simt::LaunchStats launch_npp_scancol_wave(
    simt::Engine& eng, std::span<simt::DeviceBuffer<Tout>* const> datas,
    std::int64_t height, std::int64_t width)
{
    SATGPU_EXPECTS(!datas.empty());
    // Table II reports gridSize (W+1,1,1) because nppiIntegral emits an
    // exclusive table with a zero border column; our inclusive variant
    // launches exactly W column blocks.
    const simt::LaunchConfig cfg{
        {width, 1, static_cast<std::int64_t>(datas.size())},
        {1, kScanBlock, 1}};
    const simt::KernelInfo info{"npp_scanCol", 18, 2304};
    using State = scan::BlockScanState<Tout>;
    // Warp w's 32 rows of chunk c down its block's column, lane l on row
    // row0 + l: image, strided element indices, rows in range.
    const auto slice = [&](const auto& w, std::int64_t c) {
        const std::int64_t row0 =
            c * kScanBlock + std::int64_t{w.warp_id()} * kWarpSize;
        return std::tuple{static_cast<std::size_t>(w.block_idx().z),
                          (LaneVec<std::int64_t>::lane_index() + row0) *
                                  width +
                              w.block_idx().x,
                          simt::lanes_in_range(row0, height)};
    };
    return simt::launch_phases(
        eng, info, cfg, false,
        simt::phase_list<State>(
            [&](simt::Dim3) { return ceil_div(height, kScanBlock); },
            [&](auto& w, State& st, std::int64_t c) {
                // Strided (uncoalesced) column load: the warp's lanes sit
                // `width` elements apart, touching one sector each.
                const auto [z, idx, m] = slice(w, c);
                st.v = datas[z]->load(idx, m);
            },
            scan::block_scan_steps<Tout>(),
            [&](auto& w, State& st, std::int64_t c) {
                const auto [z, idx, m] = slice(w, c);
                st.v = simt::vadd(st.v, st.carry);
                datas[z]->store(idx, st.v, m);
                st.carry = simt::vadd(st.carry, st.total);
            }));
}

} // namespace satgpu::baselines
