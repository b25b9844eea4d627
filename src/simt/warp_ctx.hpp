// WarpCtx: everything a warp program can see -- its coordinates in the
// grid, its lane vector, the block's shared memory, and the barrier.
//
// A WarpCtx (like the coroutine frame it anchors) is confined to the one
// host worker thread running its block: the barrier flag and site are
// mutable scheduler state that is never shared across blocks, which is
// what lets the engine execute blocks concurrently with no locking.
#pragma once

#include "simt/dim3.hpp"
#include "simt/kernel_task.hpp"
#include "simt/lane_vec.hpp"
#include "simt/shared_memory.hpp"

#include <source_location>
#include <string_view>

namespace satgpu::simt {

class WarpCtx {
public:
    WarpCtx(Dim3 block_idx, LaunchConfig cfg, int warp_id, SharedMemory* smem)
        : block_idx_(block_idx), cfg_(cfg), warp_id_(warp_id), smem_(smem)
    {
    }

    // Movable (the scheduler stores warps in a vector) but not copyable:
    // the scheduler's barrier flag belongs to exactly one warp.
    WarpCtx(WarpCtx&&) noexcept = default;
    WarpCtx& operator=(WarpCtx&&) noexcept = default;
    WarpCtx(const WarpCtx&) = delete;
    WarpCtx& operator=(const WarpCtx&) = delete;

    // -- Geometry -----------------------------------------------------------
    [[nodiscard]] Dim3 block_idx() const noexcept { return block_idx_; }
    [[nodiscard]] Dim3 block_dim() const noexcept { return cfg_.block; }
    [[nodiscard]] Dim3 grid_dim() const noexcept { return cfg_.grid; }
    [[nodiscard]] int warp_id() const noexcept { return warp_id_; }
    [[nodiscard]] int warps_per_block() const
    {
        return static_cast<int>(cfg_.warps_per_block());
    }
    /// Warps that run the current trip of a phase list: all of them (the
    /// simulator runs dead warps too; see NativeWarpCtx::live_warps).
    [[nodiscard]] int live_warps() const { return warps_per_block(); }

    /// laneId as a vector {0..31}.
    [[nodiscard]] static LaneVec<std::int64_t> lane()
    {
        return LaneVec<std::int64_t>::lane_index();
    }

    /// threadIdx.{x,y} derived from (warp_id, lane) with the CUDA rule that
    /// warps linearize threadIdx.x fastest.
    [[nodiscard]] LaneVec<std::int64_t> thread_x() const
    {
        const auto linear = lane() + std::int64_t{warp_id_} * kWarpSize;
        return LaneVec<std::int64_t>::zip(
            linear, LaneVec<std::int64_t>::broadcast(cfg_.block.x),
            [](std::int64_t a, std::int64_t b) { return a % b; });
    }
    [[nodiscard]] LaneVec<std::int64_t> thread_y() const
    {
        const auto linear = lane() + std::int64_t{warp_id_} * kWarpSize;
        return LaneVec<std::int64_t>::zip(
            linear, LaneVec<std::int64_t>::broadcast(cfg_.block.x),
            [this](std::int64_t a, std::int64_t bx) {
                return (a / bx) % cfg_.block.y;
            });
    }

    // -- Shared memory ------------------------------------------------------
    template <typename T>
    [[nodiscard]] SmemView<T> smem_alloc(std::string_view name,
                                         std::int64_t count)
    {
        return smem_->alloc<T>(name, count);
    }

    // -- Barrier ------------------------------------------------------------
    struct SyncAwaiter {
        WarpCtx* ctx;
        [[nodiscard]] bool await_ready() const noexcept { return false; }
        void await_suspend(std::coroutine_handle<>) const noexcept
        {
            ctx->at_barrier_ = true;
        }
        void await_resume() const noexcept {}
    };

    /// __syncthreads(): `co_await w.sync();`.  The call site is recorded so
    /// the hazard checker can attribute barrier-divergence findings to the
    /// barrier the surviving warps were waiting at.
    [[nodiscard]] SyncAwaiter sync(std::source_location site
                                   = SATGPU_SITE) noexcept
    {
        barrier_site_ = site;
        return {this};
    }

    // -- Scheduler interface (engine internal) ------------------------------
    [[nodiscard]] bool at_barrier() const noexcept { return at_barrier_; }
    void clear_barrier() noexcept { at_barrier_ = false; }
    /// Site of this warp's most recent sync() call.
    [[nodiscard]] const std::source_location& barrier_site() const noexcept
    {
        return barrier_site_;
    }

private:
    Dim3 block_idx_;
    LaunchConfig cfg_;
    int warp_id_;
    SharedMemory* smem_;
    bool at_barrier_ = false;
    std::source_location barrier_site_{};
};

} // namespace satgpu::simt
