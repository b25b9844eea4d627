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

#include <vector>

namespace satgpu::scan {

namespace detail {

template <typename T>
simt::KernelTask scan_partial_warp(simt::WarpCtx& w,
                                   const simt::DeviceBuffer<T>& in,
                                   simt::DeviceBuffer<T>& out,
                                   simt::DeviceBuffer<T>& totals,
                                   WarpScanKind kind)
{
    const std::int64_t n = in.size();
    const std::int64_t chunk =
        std::int64_t{w.warps_per_block()} * kWarpSize;
    const std::int64_t base =
        w.block_idx().x * chunk + std::int64_t{w.warp_id()} * kWarpSize;

    const simt::LaneMask m = simt::lanes_in_range(base, n);

    auto v = in.load_row(base, m);
    LaneVec<T> total;
    co_await block_inclusive_scan(w, v, total, kind);
    out.store_row(base, v, m);
    // Lane 0 of warp 0 records the block total.
    totals.store(LaneVec<std::int64_t>::broadcast(w.block_idx().x), total,
                 w.warp_id() == 0 ? 0x1u : 0u);
}

/// Single-block kernel: inclusive scan of the block totals, looping over
/// the aux buffer in block-sized strides with a running carry.
template <typename T>
simt::KernelTask scan_offsets_warp(simt::WarpCtx& w,
                                   simt::DeviceBuffer<T>& totals,
                                   WarpScanKind kind)
{
    const std::int64_t n = totals.size();
    const std::int64_t chunk =
        std::int64_t{w.warps_per_block()} * kWarpSize;
    LaneVec<T> carry{};
    for (std::int64_t c0 = 0; c0 < n; c0 += chunk) {
        const std::int64_t base = c0 + std::int64_t{w.warp_id()} * kWarpSize;
        const simt::LaneMask m = simt::lanes_in_range(base, n);
        auto v = totals.load_row(base, m);
        LaneVec<T> total;
        co_await block_inclusive_scan(w, v, total, kind);
        v = simt::vadd(v, carry);
        totals.store_row(base, v, m);
        carry = simt::vadd(carry, total);
    }
}

template <typename T>
simt::KernelTask scan_add_offsets_warp(simt::WarpCtx& w,
                                       simt::DeviceBuffer<T>& data,
                                       const simt::DeviceBuffer<T>& offsets)
{
    if (w.block_idx().x == 0)
        co_return; // block 0 has no predecessor
    const std::int64_t n = data.size();
    const std::int64_t chunk =
        std::int64_t{w.warps_per_block()} * kWarpSize;
    const std::int64_t base =
        w.block_idx().x * chunk + std::int64_t{w.warp_id()} * kWarpSize;
    const simt::LaneMask m = simt::lanes_in_range(base, n);
    if (m == 0)
        co_return;
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

    launches.push_back(eng.launch(
        {"scan_partial", 24, 8 * static_cast<std::int64_t>(sizeof(T))},
        {{blocks, 1, 1}, {kBlock, 1, 1}}, [&](simt::WarpCtx& w) {
            return detail::scan_partial_warp<T>(w, in, out, totals, kind);
        }));
    if (blocks == 1)
        return launches;

    launches.push_back(eng.launch(
        {"scan_offsets", 24, 8 * static_cast<std::int64_t>(sizeof(T))},
        {{1, 1, 1}, {kBlock, 1, 1}}, [&](simt::WarpCtx& w) {
            return detail::scan_offsets_warp<T>(w, totals, kind);
        }));
    launches.push_back(eng.launch(
        {"scan_add_offsets", 16, 0}, {{blocks, 1, 1}, {kBlock, 1, 1}},
        [&](simt::WarpCtx& w) {
            return detail::scan_add_offsets_warp<T>(w, out, totals);
        }));
    return launches;
}

} // namespace satgpu::scan
