// Launch-shape choices shared by the proposed kernels (paper Secs. IV-B/C):
// BlockSize 1024 for 4-byte accumulators, 512 for 64f to relieve register
// pressure, and a register budget estimate for the occupancy model.
#pragma once

#include "core/math.hpp"
#include "simt/dim3.hpp"

namespace satgpu::sat {

/// Warps per block: 32 for sizeof(T) <= 4 (BlockSize = 1024), 16 for
/// 8-byte accumulators (BlockSize = 512).
template <typename Tout>
[[nodiscard]] constexpr int warps_per_block() noexcept
{
    return sizeof(Tout) <= 4 ? 32 : 16;
}

/// Registers per thread: the 32-element register cache (one 32-bit register
/// per 4 bytes of T) plus a fixed overhead for indices, carries and masks.
template <typename Tout>
[[nodiscard]] constexpr int regs_per_thread() noexcept
{
    return 32 * static_cast<int>(sizeof(Tout) / 4 == 0 ? 1 : sizeof(Tout) / 4)
           + 24;
}

/// Launch shape of the elementwise kernels (temporal_add, window_update,
/// bin_mask): 256-thread blocks, one 32-element group per warp, covering
/// `n` elements for each of `jobs` operand sets (grid.y = job).
[[nodiscard]] inline simt::LaunchConfig
elementwise_config(std::int64_t n, std::int64_t jobs = 1)
{
    return {{ceil_div(n, std::int64_t{256}), jobs, 1}, {256, 1, 1}};
}

/// First element of the calling warp's group in an elementwise launch.
template <typename W>
[[nodiscard]] std::int64_t elementwise_base(const W& w)
{
    return (w.block_idx().x * w.warps_per_block() + w.warp_id()) *
           simt::kWarpSize;
}

} // namespace satgpu::sat
