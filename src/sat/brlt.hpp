// Block-Register-Local-Transpose (paper Alg. 5), the central novelty.
//
// Each warp owns a 32x32 register matrix.  BRLT transposes it through a
// padded 32x33 shared-memory staging tile: rows are stored lane-parallel
// (conflict free), then columns are read back lane-parallel (conflict free
// BECAUSE of the 33-element stride).  Shared memory holds only S tiles
// (S = 32 / sizeof(T), Sec. IV-2), so warps take turns in groups of S with
// a block barrier between rounds -- which is why BRLT is a SubTask.
//
// `padded = false` removes the +1 stride (the ablation for the paper's
// bank-conflict claim); the transpose stays correct but every column read
// serializes 32-way.
#pragma once

#include "sat/tile_io.hpp"
#include "simt/kernel_task.hpp"
#include "simt/native_backend.hpp"
#include "simt/profiler.hpp"

#include <algorithm>
#include <span>

namespace satgpu::sat {

/// Number of shared-memory staging tiles the paper provisions: S scales
/// inversely with the element size so the footprint stays ~32*33*32 bytes.
template <typename T>
[[nodiscard]] constexpr int brlt_group_size() noexcept
{
    return std::max<int>(1, 32 / static_cast<int>(sizeof(T)));
}

/// Static shared memory BRLT asks of a block (for KernelInfo / occupancy).
template <typename T>
[[nodiscard]] constexpr std::int64_t brlt_smem_bytes(bool padded = true)
{
    const std::int64_t stride = padded ? 33 : 32;
    return brlt_group_size<T>() * 32 * stride *
           static_cast<std::int64_t>(sizeof(T));
}

/// One barrier-to-barrier round of Alg. 5, the kernel source both
/// lowerings share (W = simt::WarpCtx or simt::NativeWarpCtx): warps
/// [round_base, round_base + S) stage their tiles through shared memory;
/// everyone else only participates in the round's closing barrier, which
/// the CALLER owns.  Barrier free internally -- each participating warp
/// touches only its own staging tile, so any warp order within the round
/// is observably identical.
template <typename W, typename T>
void brlt_transpose_round(W& w, RegTile<T>& data, bool padded,
                          int round_base)
{
    const int group = brlt_group_size<T>();
    const std::int64_t stride = padded ? 33 : 32;
    auto sm = w.template smem_alloc<T>("brlt.tiles", group * 32 * stride);
    if (w.warp_id() < round_base || w.warp_id() >= round_base + group)
        return;
    const std::int64_t k = w.warp_id() - round_base;
    const std::int64_t base = k * 32 * stride;
    // Store rows: sMem[k][j][laneId] = data[j]  (Alg. 5 line 8).
    for (int j = 0; j < kWarpSize; ++j)
        sm.store_row(base + j * stride, data[static_cast<std::size_t>(j)]);
    // Load columns: data[j] = sMem[k][laneId][j]  (Alg. 5 line 12), as
    // one tile-shaped read (32 strided loads when instrumented).
    // No barrier in between: only this warp touches tile k.
    sm.load_transposed(base, stride, data);
}

/// Alg. 5: transpose the warp's register matrix in place (the simulator
/// lowering -- rounds separated by real block barriers).
template <typename T>
simt::SubTask<> brlt_transpose(simt::WarpCtx& w, RegTile<T>& data,
                               bool padded = true)
{
    const simt::ProfileRange prof_range{"brlt-transpose"};
    const int group = brlt_group_size<T>();
    const int warp_count = w.warps_per_block();

    for (int i = 0; i < warp_count; i += group) {
        brlt_transpose_round(w, data, padded, i);
        // Alg. 5 lines 15-17 sync the warps still waiting for a tile; under
        // the engine's rendezvous semantics an unconditional barrier is
        // equivalent (warps whose round is over simply wait here too).
        co_await w.sync();
    }
}

/// The native lowering for a whole block: identical rounds, phase-major
/// (each round runs for every warp before the next begins), so the
/// inter-round barrier becomes a loop boundary.  `data[i]` is warp i's
/// register matrix.
template <typename T>
void brlt_transpose_block_native(simt::NativeBlockCtx& blk,
                                 std::span<RegTile<T>> data, bool padded)
{
    const int group = brlt_group_size<T>();
    const int wc = blk.warps_per_block();
    for (int i = 0; i < wc; i += group)
        for (int wid = 0; wid < wc; ++wid)
            brlt_transpose_round(blk.warp(wid),
                                 data[static_cast<std::size_t>(wid)],
                                 padded, i);
}

} // namespace satgpu::sat
