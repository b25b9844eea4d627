// Grid/block geometry and kernel launch descriptors, mirroring CUDA's
// dim3 / <<<grid, block>>> vocabulary so the paper's launch configurations
// (Secs. IV-B, IV-C and Table II) transcribe directly.
#pragma once

#include "core/check.hpp"

#include <cstdint>
#include <string>

namespace satgpu::simt {

inline constexpr int kWarpSize = 32; // fixed across all Nvidia generations
/// 1024 threads per block: the CUDA hardware limit, in warps.
inline constexpr int kMaxWarpsPerBlock = 1024 / kWarpSize;

struct Dim3 {
    std::int64_t x = 1;
    std::int64_t y = 1;
    std::int64_t z = 1;

    [[nodiscard]] std::int64_t count() const noexcept { return x * y * z; }

    friend constexpr bool operator==(Dim3, Dim3) = default;
};

struct LaunchConfig {
    Dim3 grid;
    Dim3 block;

    [[nodiscard]] std::int64_t threads_per_block() const noexcept
    {
        return block.count();
    }
    [[nodiscard]] std::int64_t warps_per_block() const
    {
        const std::int64_t t = threads_per_block();
        SATGPU_EXPECTS(t > 0 && t % kWarpSize == 0);
        return t / kWarpSize;
    }
    [[nodiscard]] std::int64_t total_blocks() const noexcept
    {
        return grid.count();
    }
    [[nodiscard]] std::int64_t total_warps() const
    {
        return total_blocks() * warps_per_block();
    }
};

/// Static resource footprint of a kernel, the quantities the paper reports
/// for NPP in Table II and feeds into the occupancy model (Eq. 8).
struct KernelInfo {
    std::string name;
    int regs_per_thread = 32;
    std::int64_t static_smem_bytes = 0;
};

} // namespace satgpu::simt
