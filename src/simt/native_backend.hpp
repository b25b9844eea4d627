// Native vectorized execution backend: the non-coroutine lowering of the
// warp interface (docs/backends.md).
//
// The simulator executes kernels as warp coroutines with a thread-local
// instrumentation sink behind every lane operation.  This backend runs the
// SAME kernel source -- a phase list, or for a barrier-free kernel one
// per-warp body (launch_phases / launch_warps below) -- as plain loops: no
// coroutines, no counters, no shadow state.  Every warp primitive (LaneVec
// arithmetic, shfl_*, ballot/any/all, SmemView, DeviceBuffer) already
// degrades to a bounds-checked plain loop when no thread-local sink is
// installed (one inline TLS load decides), and the row-shaped accesses
// (DeviceBuffer and SmemView load_row / store_row, SmemView::load_strided)
// to one span check and a straight copy, so the native path reuses those
// functions verbatim; what changes is only the schedule.
//
// Schedule: where the simulator interleaves warp coroutines between
// barriers, the native backend runs each block PHASE-MAJOR -- for every
// phase of the list, a plain loop over the block's warps (run_phases).
// That reordering is observably identical exactly when no phase contains an
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

#include <algorithm>
#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace satgpu::simt {

/// The native lowering of WarpCtx: same geometry and shared-memory surface
/// (kernel phase helpers are templated over the context type), but no
/// barrier -- synchronization is the caller's phase loop.
class NativeWarpCtx {
public:
    NativeWarpCtx(Dim3 block_idx, LaunchConfig cfg, int warp_id,
                  SharedMemory* smem, const int* live_warps)
        : block_idx_(block_idx), cfg_(cfg), warp_id_(warp_id), smem_(smem),
          live_warps_(live_warps)
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
    /// The warps [0, live_warps()) that run the current trip of a phase
    /// list (PhaseList::live); every warp outside one.
    [[nodiscard]] int live_warps() const noexcept { return *live_warps_; }

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
    const int* live_warps_; ///< the owning NativeBlockCtx's count
};

/// An executor slot's native block context: owns the shared-memory arena
/// and per-warp register scratch, and hands out a NativeWarpCtx per warp
/// of the block it is running.  Each BlockExecutor slot keeps one for the
/// executor's lifetime and reset()s it per block, so a steady-state launch
/// allocates nothing per block.  Used by one thread at a time, like the
/// simulator's per-block state.
class NativeBlockCtx {
public:
    NativeBlockCtx(std::int64_t smem_capacity_bytes, int slot)
        : smem_(smem_capacity_bytes), slot_(slot)
    {
    }
    // The warp contexts point at smem_.
    NativeBlockCtx(const NativeBlockCtx&) = delete;
    NativeBlockCtx& operator=(const NativeBlockCtx&) = delete;

    /// Begin block `block_idx` of `cfg`: zero the shared memory the
    /// previous block used (SharedMemory::reset) and rebuild the warp
    /// contexts, keeping every buffer's storage.  Every warp is live.
    void reset(Dim3 block_idx, const LaunchConfig& cfg)
    {
        smem_.reset();
        const int wc = static_cast<int>(cfg.warps_per_block());
        live_warps_ = wc;
        warps_.clear();
        for (int i = 0; i < wc; ++i)
            warps_.emplace_back(block_idx, cfg, i, &smem_, &live_warps_);
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
    /// What NativeWarpCtx::live_warps() reads; run_phases sets it per trip.
    void set_live_warps(int n)
    {
        SATGPU_EXPECTS(n >= 0 && n <= warps_per_block());
        live_warps_ = n;
    }
    [[nodiscard]] std::int64_t smem_bytes_used() const noexcept
    {
        return smem_.bytes_used();
    }
    /// Index of the executor slot running this block, in [0, the number
    /// of slots the launch uses): a launch's blocks may key per-slot
    /// resources (e.g. pooled staging buffers) by it, since a slot runs
    /// one block at a time.
    [[nodiscard]] int slot() const noexcept { return slot_; }

    /// `n` values of T -- a block program's hoisted register or cache
    /// state -- in storage reused across blocks and launches (it only ever
    /// grows, so a steady-state block allocates nothing).  Each value is
    /// default-initialized: T's default member initializers run, and
    /// members without one hold whatever an earlier block left, so callers
    /// write those before reading them.  One live span per block; a second
    /// call reuses the same storage.
    template <typename T>
    [[nodiscard]] std::span<T> scratch(std::size_t n)
    {
        static_assert(std::is_trivially_copyable_v<T> &&
                          std::is_trivially_destructible_v<T> &&
                          alignof(T) <= alignof(std::max_align_t),
                      "block scratch holds plain register values");
        const std::size_t words =
            (n * sizeof(T) + sizeof(std::max_align_t) - 1) /
            sizeof(std::max_align_t);
        if (scratch_.size() < words)
            scratch_.resize(words);
        T* const p = reinterpret_cast<T*>(scratch_.data());
        std::uninitialized_default_construct_n(p, n);
        return {p, n};
    }

private:
    SharedMemory smem_;
    int slot_;
    int live_warps_ = 0;
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
/// calling thread).  A launch of B blocks runs on the first
/// min(Engine::threads(), B) slots, so NativeBlockCtx::slot() stays
/// below that.  No block sees a counter sink, profiler, hazard
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

// ---- Phase lists: kernels with barriers, written once ---------------------
//
// A kernel with block barriers is per-warp State plus the list of steps one
// trip of its chunk / strip / slab loop runs:
//
//   * a phase, `f(w, st, it)`: per-warp work on the warp's state `st` in
//     trip `it` (w is a WarpCtx& or a NativeWarpCtx&);
//   * `simt::barrier`: __syncthreads();
//   * `simt::Rounds{count, f}`: `f(w, st, it, r)` for r in [0, count),
//     each round closed by a barrier (BRLT's transpose rounds);
//   * a std::tuple of steps, spliced in place (a reusable fragment such as
//     the block carry).
//
// The trip count is a function of the block index alone and round counts
// are fixed when the list is built, so every warp of a block meets every
// barrier: barriers are unconditional and a phase's work is per-warp by
// construction.  That is the structure the hazard checker's certificate
// generalizes from its probe shape (docs/backends.md).
//
// A list may also name its LIVE warps, `simt::LiveWarps{f}` right after
// the trip count: in trip `it` of block b only warps [0, f(b, it)) have
// data (the rest of a ragged last strip or chunk).  Only the last trip may
// have dead warps, and they must leave no trace a live warp or the output
// reads (docs/backends.md, "Live work at small shapes").
//
// launch_phases lowers the list to either backend.  On the simulator each
// warp is one coroutine that runs the steps in order and co_awaits
// `w.sync()` at each barrier; every warp runs every trip, whatever the
// list says is live.  Natively run_phases runs them phase-major: every
// step is a loop over the trip's live warps, with the states in the
// slot's scratch, so a barrier is a loop boundary.  The steps are
// template parameters: nothing is called through a std::function or a
// virtual per phase or per warp.

/// __syncthreads() between two steps of a phase list.
struct Barrier {};
inline constexpr Barrier barrier{};

/// A counted run of barrier-closed rounds (see above).
template <typename F>
struct Rounds {
    int count;
    F f;
};
template <typename F>
Rounds(int, F) -> Rounds<F>;

/// A phase list's live-warp count per (block, trip) (see above):
/// `f(block_idx, it)`, clamped to the block's warps.
template <typename F>
struct LiveWarps {
    F f;
};
template <typename F>
LiveWarps(F) -> LiveWarps<F>;

namespace detail {
/// The count of a list that names none: every warp is live.
struct AllWarpsLive {
    [[nodiscard]] std::int64_t operator()(Dim3, std::int64_t) const noexcept
    {
        return std::numeric_limits<int>::max();
    }
};
} // namespace detail

/// A phase-list kernel: `trips(block_idx)` trips of `steps` over per-warp
/// `State`, with `live(block_idx, it)` warps live in trip `it`.  State is
/// default-initialized per warp at block start (give its members
/// initializers), and must be a plain register value
/// (NativeBlockCtx::scratch).  Build with phase_list.
template <typename State, typename Trips, typename Steps,
          typename Live = detail::AllWarpsLive>
struct PhaseList {
    Trips trips;
    Steps steps; ///< flat std::tuple of phases, Barrier and Rounds
    Live live;
};

namespace detail {

template <typename Step>
[[nodiscard]] std::tuple<Step> step_tuple(Step s)
{
    return std::tuple<Step>{std::move(s)};
}
template <typename... Steps>
[[nodiscard]] std::tuple<Steps...> step_tuple(std::tuple<Steps...> s)
{
    return s;
}

template <typename Step>
inline constexpr bool kIsRounds = false;
template <typename F>
inline constexpr bool kIsRounds<Rounds<F>> = true;

/// Repetition `r` of `step` for one warp; true when a barrier follows.
template <typename W, typename State, typename Step>
bool run_step(W& w, State& st, std::int64_t it, const Step& step, int r)
{
    if constexpr (std::is_same_v<Step, Barrier>) {
        return true;
    } else if constexpr (kIsRounds<Step>) {
        step.f(w, st, it, r);
        return true;
    } else {
        step(w, st, it);
        return false;
    }
}

/// How often run_step repeats `step` in one trip.
template <typename Step>
[[nodiscard]] int step_repeats(const Step& step)
{
    if constexpr (kIsRounds<Step>)
        return step.count;
    else
        return 1;
}

/// `f(std::get<k>(steps))` for a run-time k.
template <typename Steps, typename F>
auto visit_step(const Steps& steps, std::size_t k, F&& f)
{
    return [&]<std::size_t... I>(std::index_sequence<I...>) {
        decltype(f(std::get<0>(steps))) r{};
        (void)((k == I && (r = f(std::get<I>(steps)), true)) || ...);
        return r;
    }(std::make_index_sequence<std::tuple_size_v<Steps>>{});
}

/// The simulator lowering of a phase list: one warp's coroutine.  It
/// holds `pl` by reference; launch_phases keeps the list alive until the
/// launch, and with it every coroutine, has finished.
template <typename State, typename Trips, typename Steps, typename Live>
KernelTask phase_list_task(WarpCtx& w,
                           const PhaseList<State, Trips, Steps, Live>& pl)
{
    State st;
    const std::int64_t trips = pl.trips(w.block_idx());
    for (std::int64_t it = 0; it < trips; ++it)
        for (std::size_t k = 0; k < std::tuple_size_v<Steps>; ++k) {
            const int reps = visit_step(
                pl.steps, k, [](const auto& s) { return step_repeats(s); });
            for (int r = 0; r < reps; ++r)
                if (visit_step(pl.steps, k, [&](const auto& s) {
                        return run_step(w, st, it, s, r);
                    }))
                    co_await w.sync();
        }
}

/// The native lowering of one step: a loop over the trip's live warps
/// per repetition.  A barrier is the boundary between two such loops.
template <typename State, typename Step>
void run_step_phase_major(NativeBlockCtx& blk, std::span<State> st,
                          std::int64_t it, const Step& step, int live)
{
    if constexpr (!std::is_same_v<Step, Barrier>) {
        for (int r = 0; r < step_repeats(step); ++r)
            for (int wid = 0; wid < live; ++wid)
                run_step(blk.warp(wid), st[static_cast<std::size_t>(wid)],
                         it, step, r);
    }
}

template <typename State, typename Trips, typename Live, typename... Steps>
[[nodiscard]] auto make_phase_list(Trips trips, Live live, Steps... steps)
{
    auto flat = std::tuple_cat(step_tuple(std::move(steps))...);
    return PhaseList<State, Trips, decltype(flat), Live>{
        std::move(trips), std::move(flat), std::move(live)};
}

} // namespace detail

/// Build a PhaseList over per-warp `State` (tuples among `steps` are
/// spliced in place), every warp live in every trip.
template <typename State, typename Trips, typename... Steps>
[[nodiscard]] auto phase_list(Trips trips, Steps... steps)
{
    return detail::make_phase_list<State>(
        std::move(trips), detail::AllWarpsLive{}, std::move(steps)...);
}

/// Build a PhaseList whose trip `it` of block b has `live.f(b, it)` live
/// warps (see above).
template <typename State, typename Trips, typename F, typename... Steps>
[[nodiscard]] auto phase_list(Trips trips, LiveWarps<F> live, Steps... steps)
{
    return detail::make_phase_list<State>(
        std::move(trips), std::move(live.f), std::move(steps)...);
}

/// The native lowering of a phase list for one block: every step
/// phase-major over the trip's live warps, barriers as loop boundaries.
/// Callable from inside any native block program (e.g. one that stages
/// its own input first).  The states live in blk.scratch, so the block
/// program must not hold another scratch span across the call.  Warps
/// dead in the first trip never run (dead warps occur only in the last),
/// so only the first trip's live warps get a state.
template <typename State, typename Trips, typename Steps, typename Live>
void run_phases(NativeBlockCtx& blk,
                const PhaseList<State, Trips, Steps, Live>& pl)
{
    const Dim3 b = blk.block_idx();
    const int wc = blk.warps_per_block();
    const auto live_in = [&](std::int64_t it) {
        return static_cast<int>(std::clamp<std::int64_t>(pl.live(b, it), 0,
                                                         wc));
    };
    const std::int64_t trips = pl.trips(b);
    if (trips <= 0)
        return;
    const auto st =
        blk.scratch<State>(static_cast<std::size_t>(live_in(0)));
    for (std::int64_t it = 0; it < trips; ++it) {
        const int live = live_in(it);
        SATGPU_EXPECTS(live == wc || it + 1 == trips);
        blk.set_live_warps(live);
        std::apply(
            [&](const auto&... step) {
                (detail::run_step_phase_major(blk, st, it, step, live), ...);
            },
            pl.steps);
    }
}

/// Launch a phase-list kernel on the simulator (one coroutine per warp,
/// counted and checked like any kernel) or natively (`native`: run_phases
/// per block).
template <typename State, typename Trips, typename Steps, typename Live>
LaunchStats launch_phases(Engine& eng, const KernelInfo& info,
                          LaunchConfig cfg, bool native,
                          const PhaseList<State, Trips, Steps, Live>& pl)
{
    if (native)
        return native_launch(eng, info, cfg, [&pl](NativeBlockCtx& blk) {
            run_phases(blk, pl);
        });
    return eng.launch(info, cfg, [&pl](WarpCtx& w) {
        return detail::phase_list_task(w, pl);
    });
}

/// Launch a barrier-free kernel written once as a per-warp body, `body(w)`:
/// the zero-barrier phase list (one trip of one phase, no state).  With no
/// cross-warp phase, the native warp order is irrelevant and both
/// lowerings are observably the same.
template <typename Body>
LaunchStats launch_warps(Engine& eng, const KernelInfo& info,
                         LaunchConfig cfg, bool native, const Body& body)
{
    struct NoState {};
    return launch_phases(
        eng, info, cfg, native,
        phase_list<NoState>([](Dim3) { return std::int64_t{1}; },
                            [&body](auto& w, NoState&, std::int64_t) {
                                body(w);
                            }));
}

} // namespace satgpu::simt
