// Device-wide 1-D inclusive scan over a DeviceBuffer, the classic
// three-kernel scan-then-propagate decomposition:
//   1. partial  -- every block scans its contiguous chunk and writes its
//                  chunk total to an auxiliary buffer;
//   2. offsets  -- one block turns the chunk totals into exclusive offsets
//                  (looping if there are more totals than one block scans);
//   3. add      -- every block adds its chunk's offset to its elements.
// A general-purpose library primitive on top of the same substrate the SAT
// kernels use, and a stress test for the engine's multi-launch pipelines.
#pragma once

#include "scan/block_scan.hpp"
#include "simt/engine.hpp"
#include "simt/global_memory.hpp"

#include <utility>
#include <vector>

namespace satgpu::scan {

namespace detail {

/// Add offset[b - 1] to every element of block b's chunk (block 0 has no
/// predecessor).  Barrier free.
template <typename T, typename W>
void scan_add_offsets_warp(W& w, simt::DeviceBuffer<T>& data,
                           const simt::DeviceBuffer<T>& offsets)
{
    if (w.block_idx().x == 0)
        return; // block 0 has no predecessor
    const std::int64_t n = data.size();
    const std::int64_t chunk =
        std::int64_t{w.warps_per_block()} * kWarpSize;
    const std::int64_t base =
        w.block_idx().x * chunk + std::int64_t{w.warp_id()} * kWarpSize;
    const simt::LaneMask m = simt::lanes_in_range(base, n);
    if (m == 0)
        return;
    const auto off = offsets.load(
        LaneVec<std::int64_t>::broadcast(w.block_idx().x - 1), 0x1u);
    const auto bcast = LaneVec<T>::broadcast(off.get(0));
    auto v = data.load_row(base, m);
    v = simt::vadd(v, bcast);
    data.store_row(base, v, m);
}

} // namespace detail

/// Device-wide inclusive scan: out[i] = in[0] + ... + in[i].
/// Returns the per-kernel launch stats (three launches; one if the input
/// fits a single block).
template <typename T>
std::vector<simt::LaunchStats>
device_inclusive_scan(simt::Engine& eng, const simt::DeviceBuffer<T>& in,
                      simt::DeviceBuffer<T>& out,
                      WarpScanKind kind = WarpScanKind::kKoggeStone)
{
    SATGPU_EXPECTS(out.size() == in.size());
    constexpr std::int64_t kBlock = 256;
    const std::int64_t blocks =
        std::max<std::int64_t>(1, (in.size() + kBlock - 1) / kBlock);
    simt::DeviceBuffer<T> totals(blocks);
    std::vector<simt::LaunchStats> launches;

    const std::int64_t smem = 8 * static_cast<std::int64_t>(sizeof(T));
    // Warp w's 32 elements of block-sized chunk c of an n-element buffer:
    // first index and in-range lanes.
    const auto slice = [](const auto& w, std::int64_t c, std::int64_t n) {
        const std::int64_t base = c * kBlock + std::int64_t{w.warp_id()} *
                                                   kWarpSize;
        return std::pair{base, simt::lanes_in_range(base, n)};
    };

    // 1. Every block scans its chunk; warp 0's lane 0 records the total.
    launches.push_back(simt::launch_phases(
        eng, {"scan_partial", 24, smem}, {{blocks, 1, 1}, {kBlock, 1, 1}},
        false,
        simt::phase_list<BlockScanState<T>>(
            [](simt::Dim3) { return std::int64_t{1}; },
            [&](auto& w, BlockScanState<T>& st, std::int64_t) {
                const auto [base, m] = slice(w, w.block_idx().x, in.size());
                st.v = in.load_row(base, m);
            },
            block_scan_steps<T>(kind),
            [&](auto& w, BlockScanState<T>& st, std::int64_t) {
                const auto [base, m] = slice(w, w.block_idx().x, in.size());
                out.store_row(base, st.v, m);
                totals.store(
                    LaneVec<std::int64_t>::broadcast(w.block_idx().x),
                    st.total, w.warp_id() == 0 ? 0x1u : 0u);
            })));
    if (blocks == 1)
        return launches;

    // 2. One block scans the totals in block-sized chunks with a running
    // carry.
    launches.push_back(simt::launch_phases(
        eng, {"scan_offsets", 24, smem}, {{1, 1, 1}, {kBlock, 1, 1}}, false,
        simt::phase_list<BlockScanState<T>>(
            [&](simt::Dim3) { return ceil_div(totals.size(), kBlock); },
            [&](auto& w, BlockScanState<T>& st, std::int64_t c) {
                const auto [base, m] = slice(w, c, totals.size());
                st.v = totals.load_row(base, m);
            },
            block_scan_steps<T>(kind),
            [&](auto& w, BlockScanState<T>& st, std::int64_t c) {
                const auto [base, m] = slice(w, c, totals.size());
                st.v = simt::vadd(st.v, st.carry);
                totals.store_row(base, st.v, m);
                st.carry = simt::vadd(st.carry, st.total);
            })));

    // 3. Every block adds its predecessors' offset.
    launches.push_back(simt::launch_warps(
        eng, {"scan_add_offsets", 16, 0}, {{blocks, 1, 1}, {kBlock, 1, 1}},
        false, [&](auto& w) {
            detail::scan_add_offsets_warp<T>(w, out, totals);
        }));
    return launches;
}

} // namespace satgpu::scan
