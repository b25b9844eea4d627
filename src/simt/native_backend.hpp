// Native vectorized execution backend: the non-coroutine lowering of the
// warp interface (docs/backends.md).
//
// The simulator executes kernels as warp coroutines with a thread-local
// instrumentation sink behind every lane operation.  This backend runs the
// SAME kernel bodies -- the shared phase helpers the SAT kernels are
// written against -- as plain loops: no coroutines, no counters, no shadow
// state.  Every warp primitive (LaneVec arithmetic, shfl_*, ballot/any/all,
// SmemView, DeviceBuffer) already degrades to a bounds-checked plain loop
// when no thread-local sink is installed (one inline TLS load decides),
// and the row-shaped accesses (DeviceBuffer and SmemView load_row /
// store_row, SmemView::load_strided) to one span check and a straight
// copy, so the native path reuses those functions verbatim; what changes
// is only the schedule.
//
// Schedule: where the simulator interleaves warp coroutines between
// barriers, the native backend runs each block PHASE-MAJOR -- for every
// barrier-to-barrier phase, a plain loop over the block's warps.  That
// reordering is observably identical exactly when no phase contains an
// unsynchronized cross-warp dependency, which is what the hazard checker's
// certificate establishes (sat::Runtime only selects this backend for
// hazard-certified plans).  Blocks are independent, as on hardware, and
// are distributed over the slots of the Engine's persistent BlockExecutor
// (simt/block_executor.hpp): the launching thread plus num_threads - 1
// kept worker threads.  A worker never has a thread-local counter,
// profiler, checker or block identity installed between jobs, and the
// launching thread's are hidden for the launch, so instrumentation is
// absent rather than merely disabled; each native job checks this when it
// starts.  Each slot reuses one NativeBlockCtx -- shared-memory arena,
// warp contexts, register scratch -- across blocks and launches, clearing
// only the shared-memory bytes the previous block used.
#pragma once

#include "simt/dim3.hpp"
#include "simt/engine.hpp"
#include "simt/lane_vec.hpp"
#include "simt/shared_memory.hpp"

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

namespace satgpu::simt {

/// The native lowering of WarpCtx: same geometry and shared-memory surface
/// (kernel phase helpers are templated over the context type), but no
/// barrier -- synchronization is the caller's phase loop.
class NativeWarpCtx {
public:
    NativeWarpCtx(Dim3 block_idx, LaunchConfig cfg, int warp_id,
                  SharedMemory* smem)
        : block_idx_(block_idx), cfg_(cfg), warp_id_(warp_id), smem_(smem)
    {
    }

    // -- Geometry (mirrors WarpCtx) ----------------------------------------
    [[nodiscard]] Dim3 block_idx() const noexcept { return block_idx_; }
    [[nodiscard]] Dim3 block_dim() const noexcept { return cfg_.block; }
    [[nodiscard]] Dim3 grid_dim() const noexcept { return cfg_.grid; }
    [[nodiscard]] int warp_id() const noexcept { return warp_id_; }
    [[nodiscard]] int warps_per_block() const
    {
        return static_cast<int>(cfg_.warps_per_block());
    }

    /// laneId as a vector {0..31}.
    [[nodiscard]] static LaneVec<std::int64_t> lane()
    {
        return LaneVec<std::int64_t>::lane_index();
    }

    // -- Shared memory ------------------------------------------------------
    template <typename T>
    [[nodiscard]] SmemView<T> smem_alloc(std::string_view name,
                                         std::int64_t count)
    {
        return smem_->alloc<T>(name, count);
    }

private:
    Dim3 block_idx_;
    LaunchConfig cfg_;
    int warp_id_;
    SharedMemory* smem_;
};

/// An executor slot's native block context: owns the shared-memory arena
/// and per-warp register scratch, and hands out a NativeWarpCtx per warp
/// of the block it is running.  Each BlockExecutor slot keeps one for the
/// executor's lifetime and reset()s it per block, so a steady-state launch
/// allocates nothing per block.  Used by one thread at a time, like the
/// simulator's per-block state.
class NativeBlockCtx {
public:
    explicit NativeBlockCtx(std::int64_t smem_capacity_bytes)
        : smem_(smem_capacity_bytes)
    {
    }
    // The warp contexts point at smem_.
    NativeBlockCtx(const NativeBlockCtx&) = delete;
    NativeBlockCtx& operator=(const NativeBlockCtx&) = delete;

    /// Begin block `block_idx` of `cfg`: zero the shared memory the
    /// previous block used (SharedMemory::reset) and rebuild the warp
    /// contexts, keeping every buffer's storage.
    void reset(Dim3 block_idx, const LaunchConfig& cfg)
    {
        smem_.reset();
        const int wc = static_cast<int>(cfg.warps_per_block());
        warps_.clear();
        for (int i = 0; i < wc; ++i)
            warps_.emplace_back(block_idx, cfg, i, &smem_);
    }

    [[nodiscard]] Dim3 block_idx() const noexcept
    {
        return warps_.front().block_idx();
    }
    [[nodiscard]] int warps_per_block() const noexcept
    {
        return static_cast<int>(warps_.size());
    }
    [[nodiscard]] NativeWarpCtx& warp(int i)
    {
        return warps_[static_cast<std::size_t>(i)];
    }
    [[nodiscard]] std::int64_t smem_bytes_used() const noexcept
    {
        return smem_.bytes_used();
    }

    /// One T per warp of the block -- a block program's hoisted per-warp
    /// register state, e.g. a RegTile each -- in storage reused across
    /// blocks and launches.  The contents are unspecified (whatever an
    /// earlier block left): callers write every element before reading it.
    /// One live span per block; a second call reuses the same storage.
    template <typename T>
    [[nodiscard]] std::span<T> warp_scratch()
    {
        static_assert(std::is_trivially_copyable_v<T> &&
                          std::is_trivially_destructible_v<T> &&
                          alignof(T) <= alignof(std::max_align_t),
                      "warp scratch holds plain register values");
        const std::size_t n = warps_.size();
        const std::size_t words =
            (n * sizeof(T) + sizeof(std::max_align_t) - 1) /
            sizeof(std::max_align_t);
        if (scratch_.size() < words)
            scratch_.resize(words);
        T* const p = reinterpret_cast<T*>(scratch_.data());
        std::uninitialized_default_construct_n(p, n); // no-op: starts lifetimes
        return {p, n};
    }

private:
    SharedMemory smem_;
    std::vector<NativeWarpCtx> warps_;
    std::vector<std::max_align_t> scratch_;
};

/// A native block program: invoked once per block with that block's
/// context; runs every warp of the block to completion (phase-major).
/// Invoked concurrently from the engine's executor slots, one block at a
/// time per slot, so it must be callable from any thread.
using NativeBlockProgram = std::function<void(NativeBlockCtx&)>;

/// Execute `program` for every block of `cfg` on `eng`'s persistent
/// BlockExecutor (work-stealing over linear block indices;
/// `Options::num_threads` slots, 0 = hardware concurrency; slot 0 is the
/// calling thread).  No block sees a counter sink, profiler, hazard
/// checker or block identity: the caller's are hidden for the launch, a
/// worker thread never has one installed between jobs, and each job checks
/// so when it starts.
///
/// The returned LaunchStats carries the launch geometry and the measured
/// shared-memory peak; every event counter is zero except `blocks` and
/// `warps` (derived from the geometry).  The native path does not model
/// GPU time -- it IS the fast path, measured in wall clock.  Like
/// Engine::launch, one launch at a time per Engine.
///
/// Faults follow Engine::launch's contract: if block programs throw, the
/// fault of the lowest linear block index is rethrown as BlockFault.
[[nodiscard]] LaunchStats native_launch(Engine& eng, const KernelInfo& info,
                                        LaunchConfig cfg,
                                        const NativeBlockProgram& program);

} // namespace satgpu::simt
