// Engine: launches simulated kernels over a grid of blocks.
//
// Blocks are independent (as on hardware, which guarantees no inter-block
// ordering) and execute on the caller plus the engine's persistent host
// worker threads (simt/block_executor.hpp), or on the caller alone when
// one thread suffices; within a block,
// warps are coroutines scheduled round-robin between barriers (rendezvous
// semantics: a barrier releases once every not-yet-finished warp of the
// block is suspended at one).  Each launch returns the event counters the
// timing model consumes.
//
// Determinism guarantee: LaunchStats -- every counter, the shared-memory
// peak, and all transaction/sector tallies -- and the contents of every
// output buffer are bit-identical for any Options::num_threads, because
//  * each block runs single-threaded and is itself deterministic,
//  * per-block counts accumulate into per-worker sinks whose merge is a
//    plain field-wise sum (commutative), performed in worker-index order,
//  * the smem peak is a max over blocks (commutative), and
//  * kernels follow the disjoint-tile write discipline (no two blocks of
//    one launch write the same output element; see
//    DeviceBuffer::debug_detect_overlapping_writes for the checked-mode
//    enforcement of that rule).
#pragma once

#include "simt/dim3.hpp"
#include "simt/kernel_task.hpp"
#include "simt/perf_counters.hpp"
#include "simt/warp_ctx.hpp"

#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace satgpu::simt {

struct ProfileReport; // profiler.hpp
struct HazardReport;  // hazard_checker.hpp
class BlockExecutor;  // block_executor.hpp

/// Result of one simulated kernel launch.
struct LaunchStats {
    KernelInfo info;
    LaunchConfig config;
    PerfCounters counters;
    std::int64_t smem_used_bytes = 0; // actual peak per-block allocation
    /// Per-phase / per-site / per-block attribution, present iff the
    /// launch ran with Options::profile.  Shared (immutable) so history
    /// copies stay cheap.  Deterministic for every num_threads, like the
    /// counters themselves.
    std::shared_ptr<const ProfileReport> profile;
    /// Warp-synchronous hazard findings, present iff the launch ran with
    /// Options::check; empty report = clean.  Deterministic for every
    /// num_threads, like the profile.
    std::shared_ptr<const HazardReport> hazards;
};

/// A warp program: invoked once per warp, returns its coroutine.  The
/// factory is invoked concurrently from the engine's worker threads (one
/// block at a time per thread), so it must be callable from any thread;
/// capturing DeviceBuffers by reference is fine.
using WarpProgram = std::function<KernelTask(WarpCtx&)>;

/// Thrown by Engine::launch when a warp program throws: wraps the original
/// exception and names the faulting block.  When several blocks fault in
/// one launch, the lowest linear block index wins regardless of thread
/// count, so fault reports are deterministic.
class BlockFault : public std::runtime_error {
public:
    BlockFault(Dim3 block, std::string kernel, const std::string& inner_what,
               std::exception_ptr inner_exception)
        : std::runtime_error("block (" + std::to_string(block.x) + "," +
                             std::to_string(block.y) + "," +
                             std::to_string(block.z) + ") of kernel '" +
                             kernel + "': " + inner_what),
          block_idx(block), kernel_name(std::move(kernel)),
          inner(std::move(inner_exception))
    {
    }

    Dim3 block_idx;
    std::string kernel_name;
    std::exception_ptr inner; // the exception the warp program threw
};

class Engine {
public:
    struct Options {
        /// Per-block shared-memory capacity enforced on kernels.  Defaults
        /// to the Pascal/Volta 96 KiB upper bound; experiments pass the
        /// target GPU's real limit.
        std::int64_t smem_capacity_bytes = 96 * 1024;
        /// Keep per-launch stats in `history()` (used by Table II).
        bool record_history = true;
        /// Host threads used to execute independent blocks concurrently.
        /// 0 = std::thread::hardware_concurrency(); 1 reproduces the
        /// historical strictly sequential engine.  Counters and outputs
        /// are bit-identical for every value (see header comment).
        int num_threads = 0;
        /// Attach a ProfileReport (phase ranges, hotspot tables, virtual
        /// timeline) to every LaunchStats.  Off by default: kernels pay a
        /// thread-local null check per memory access and nothing else.
        bool profile = false;
        /// Virtual execution slots for the timeline's greedy schedule.
        /// Fixed (never derived from the host) so traces are identical on
        /// every machine and thread count.
        int profile_timeline_tracks = 8;
        /// Rows kept per hotspot table (ranked by excess transactions).
        int profile_top_sites = 10;
        /// Run the warp-synchronous hazard checker (racecheck/synccheck
        /// analog, hazard_checker.hpp) and attach a HazardReport to every
        /// LaunchStats.  Purely observational: outputs and counters are
        /// bit-identical with the checker on or off.  Off by default:
        /// kernels pay a thread-local null check per access and nothing
        /// else.
        bool check = false;
    };

    Engine();
    explicit Engine(Options opt);
    ~Engine();
    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;

    /// Execute `program` for every warp of every block in `cfg`.  Not
    /// reentrant: one launch at a time per Engine (kernels inside a launch
    /// run concurrently, but the launch call itself is the host's
    /// synchronization point, like a cudaDeviceSynchronize'd launch).
    LaunchStats launch(const KernelInfo& info, LaunchConfig cfg,
                       const WarpProgram& program);

    [[nodiscard]] const std::vector<LaunchStats>& history() const noexcept
    {
        return history_;
    }
    void clear_history() { history_.clear(); }

    [[nodiscard]] const Options& options() const noexcept { return opt_; }

    /// The persistent executor this engine's launches run blocks on
    /// (block_executor.hpp): Options::num_threads slots -- the launching
    /// thread plus num_threads - 1 worker threads, started on first use
    /// (the first multi-threaded simulator launch or the first native
    /// launch) and joined when the engine is destroyed.
    [[nodiscard]] BlockExecutor& executor();

    /// executor()'s slot count -- Options::num_threads with 0 resolved to
    /// the hardware concurrency -- known without starting the executor.
    [[nodiscard]] int threads() const noexcept;

    /// Toggle the hazard checker for subsequent launches (Options::check).
    /// Not synchronized against an in-flight launch; callers flip it only
    /// between launches (see CheckScope).
    void set_check(bool on) noexcept { opt_.check = on; }

    /// Toggle the profiler for subsequent launches (Options::profile).
    /// Same contract as set_check: flipped only between launches (see
    /// ProfileEnableScope).  This is how per-request opt-ins -- the
    /// service's trace sink, PlanRequest::profile -- reach the engine
    /// without reconstructing it.
    void set_profile(bool on) noexcept { opt_.profile = on; }

    /// Ambient profiler phase for subsequent launches: while non-empty
    /// (see PhaseScope), every warp of every launch starts with this range
    /// name at the bottom of its ProfileRange stack, so whole launches
    /// attribute to a coarse host-side phase (e.g. the tiled executor's
    /// "tile.compute" / "tile.carry") without each kernel knowing about
    /// it.  Only observable when Options::profile is set.  The string is
    /// not owned and must outlive the launches (PhaseScope enforces this
    /// by construction for string literals).
    void set_phase_label(std::string_view label) noexcept { phase_ = label; }
    [[nodiscard]] std::string_view phase_label() const noexcept
    {
        return phase_;
    }

private:
    Options opt_;
    std::string_view phase_;
    std::vector<LaunchStats> history_;
    std::unique_ptr<BlockExecutor> executor_;
};

/// Scoped elevation of Engine::Options::check: enables the hazard checker
/// for launches performed during the scope's lifetime (it never disables
/// an engine-level setting) and restores the previous value on exit.  This
/// is how per-call opt-ins -- sat::Options::check, PlanRequest::check, the
/// CLI's --check -- reach the engine without reconstructing it.
class CheckScope {
public:
    CheckScope(Engine& eng, bool enable) noexcept
        : eng_(&eng), prev_(eng.options().check)
    {
        if (enable)
            eng_->set_check(true);
    }
    ~CheckScope() { eng_->set_check(prev_); }
    CheckScope(const CheckScope&) = delete;
    CheckScope& operator=(const CheckScope&) = delete;

private:
    Engine* eng_;
    bool prev_;
};

/// Scoped elevation of Engine::Options::profile, the profiler twin of
/// CheckScope: enables per-launch ProfileReports during the scope's
/// lifetime (never disables an engine-level setting) and restores the
/// previous value on exit.  Named ProfileEnableScope to stay clear of the
/// profiler's thread-local installation scope (simt::ProfilerScope).
class ProfileEnableScope {
public:
    ProfileEnableScope(Engine& eng, bool enable) noexcept
        : eng_(&eng), prev_(eng.options().profile)
    {
        if (enable)
            eng_->set_profile(true);
    }
    ~ProfileEnableScope() { eng_->set_profile(prev_); }
    ProfileEnableScope(const ProfileEnableScope&) = delete;
    ProfileEnableScope& operator=(const ProfileEnableScope&) = delete;

private:
    Engine* eng_;
    bool prev_;
};

/// Scoped ambient phase label (Engine::set_phase_label): launches inside
/// the scope attribute their whole execution to `label` in profiler
/// reports unless a kernel-level ProfileRange refines it.  Nests; restores
/// the enclosing label on exit.
class PhaseScope {
public:
    PhaseScope(Engine& eng, std::string_view label) noexcept
        : eng_(&eng), prev_(eng.phase_label())
    {
        eng_->set_phase_label(label);
    }
    ~PhaseScope() { eng_->set_phase_label(prev_); }
    PhaseScope(const PhaseScope&) = delete;
    PhaseScope& operator=(const PhaseScope&) = delete;

private:
    Engine* eng_;
    std::string_view prev_;
};

} // namespace satgpu::simt
