// Register-tile I/O: moving 32x32 tiles between global memory and the
// per-warp register matrix (paper Sec. IV-1, "Caching Data Using Register
// Files").  Loads are row-by-row so every access is coalesced; ragged tile
// edges are handled with predication (out-of-range lanes read zero / skip
// the store), which keeps all warps of a block in the barrier protocol.
#pragma once

#include "simt/global_memory.hpp"
#include "simt/warp_ctx.hpp"

namespace satgpu::sat {

using simt::kWarpSize;
using simt::LaneMask;
using simt::LaneVec;

/// The per-warp register matrix: data[j] holds one 32-lane row (Alg. 5
/// line 1's "T data[32]" seen warp-wide).
template <typename T>
using RegTile = simt::LaneTile<T>;

/// Lane mask (std::uint32_t, lane 0 = LSB) for columns col0+lane < width.
/// Thin name-for-the-domain wrapper over simt::lanes_in_range, the shared
/// segment-edge predicate.
[[nodiscard]] constexpr LaneMask cols_in_range(std::int64_t col0,
                                               std::int64_t width) noexcept
{
    return simt::lanes_in_range(col0, width);
}

/// Load tile rows: regs[j][lane] = src[row0+j][col0+lane] converted to Tout,
/// zero outside the matrix.
template <typename Tout, typename Tin>
void load_tile_rows(const simt::DeviceBuffer<Tin>& src, std::int64_t height,
                    std::int64_t width, std::int64_t row0, std::int64_t col0,
                    RegTile<Tout>& regs)
{
    const LaneMask cols = cols_in_range(col0, width);
    for (int j = 0; j < kWarpSize; ++j) {
        if (row0 + j >= height) {
            regs[static_cast<std::size_t>(j)] = LaneVec<Tout>{};
            continue;
        }
        const auto raw = src.load_row((row0 + j) * width + col0, cols);
        regs[static_cast<std::size_t>(j)] = raw.template cast<Tout>();
    }
}

/// Store tile rows: dst[row0+j][col0+lane] = regs[j][lane] (in-range only).
template <typename T>
void store_tile_rows(simt::DeviceBuffer<T>& dst, std::int64_t height,
                     std::int64_t width, std::int64_t row0, std::int64_t col0,
                     const RegTile<T>& regs)
{
    const LaneMask cols = cols_in_range(col0, width);
    for (int j = 0; j < kWarpSize; ++j) {
        if (row0 + j >= height)
            continue;
        dst.store_row((row0 + j) * width + col0,
                      regs[static_cast<std::size_t>(j)], cols);
    }
}

/// Transposed tile store, shared by both lowerings of the BRLT kernels:
/// element (row0+lane, col0+j) of the source matrix lands at
/// dst[col0+j][row0+lane] (dst is width x height).  Register row j becomes
/// output row col0+j, so each j is one coalesced store.
template <typename T>
void store_tile_transposed(simt::DeviceBuffer<T>& dst, std::int64_t height,
                           std::int64_t width, std::int64_t row0,
                           std::int64_t col0, const RegTile<T>& regs)
{
    const LaneMask rows = cols_in_range(row0, height);
    for (int j = 0; j < kWarpSize; ++j) {
        if (col0 + j >= width)
            continue;
        dst.store_row((col0 + j) * height + row0,
                      regs[static_cast<std::size_t>(j)], rows);
    }
}

/// Apply-offset phase shared by both lowerings of the serial-scan kernels
/// (BRLT-ScanRow, ScanColumn): add the thread's chunk offset (exclusive
/// block prefix + running carry) to every register, then advance the
/// running carry by the block total.
template <typename T>
void apply_chunk_offset(RegTile<T>& data, const LaneVec<T>& exclusive,
                        LaneVec<T>& run_carry, const LaneVec<T>& total)
{
    const auto offset = simt::vadd(exclusive, run_carry);
    for (auto& reg : data)
        reg = simt::vadd(reg, offset);
    run_carry = simt::vadd(run_carry, total);
}

} // namespace satgpu::sat
