#include "simt/engine.hpp"

#include "core/check.hpp"
#include "simt/block_executor.hpp"
#include "simt/hazard_checker.hpp"
#include "simt/profiler.hpp"
#include "simt/shared_memory.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <optional>
#include <thread>

namespace satgpu::simt {

namespace {

struct WarpExec {
    WarpCtx ctx;
    KernelTask task;
    WarpRangeStack ranges; // ProfileRange stack, one per warp
};

/// Parks the profiler's active-warp pointer (and the hazard checker's
/// active-warp id) on scope exit, so that if a warp throws mid-resume the
/// coroutine frames (whose ProfileRange destructors touch the active
/// stack) are torn down against the profiler's own host stack rather than
/// a dangling WarpExec.
struct ActiveWarpReset {
    Profiler* prof;
    HazardChecker* chk;
    ~ActiveWarpReset()
    {
        if (prof)
            prof->switch_warp(nullptr);
        if (chk)
            chk->set_active_warp(-1);
    }
};

/// Run all warps of one block to completion under rendezvous barrier
/// semantics.  Returns the block's peak shared-memory allocation.
std::int64_t run_block(Dim3 block_idx, const LaunchConfig& cfg,
                       const WarpProgram& program,
                       std::int64_t smem_capacity, std::string_view phase,
                       PerfCounters& counters)
{
    SharedMemory smem(smem_capacity);
    const int warps = static_cast<int>(cfg.warps_per_block());
    Profiler* const prof = current_profiler();
    HazardChecker* const chk = current_hazard_checker();

    std::vector<WarpExec> execs;
    const ActiveWarpReset warp_reset{prof, chk}; // destroyed before execs
    execs.reserve(static_cast<std::size_t>(warps));
    for (int w = 0; w < warps; ++w) {
        execs.push_back(WarpExec{WarpCtx(block_idx, cfg, w, &smem), {}, {}});
        // Ambient phase (Engine::PhaseScope): qualifies this warp's range
        // attribution as "phase/range" in the profile report.
        execs.back().ranges.phase = phase;
        execs.back().task = program(execs.back().ctx);
        SATGPU_CHECK(execs.back().task.valid(),
                     "warp program must return a live coroutine");
    }

    std::size_t done = 0;
    while (done < execs.size()) {
        for (auto& e : execs) {
            if (e.task.done() || e.ctx.at_barrier())
                continue;
            // Tell the profiler which warp's ranges the following counter
            // increments belong to; park on the scheduler ("no warp")
            // after the resume so barrier releases stay unattributed.
            if (prof)
                prof->switch_warp(&e.ranges);
            if (chk)
                chk->set_active_warp(e.ctx.warp_id());
            e.task.resume(); // rethrows what the warp threw
            if (prof)
                prof->switch_warp(nullptr);
            if (chk)
                chk->set_active_warp(-1);
            if (e.task.done()) {
                ++done;
            } else {
                SATGPU_CHECK(e.ctx.at_barrier(),
                             "warp suspended outside a barrier");
            }
        }
        if (done == execs.size())
            break;
        // Barrier release: every live warp is suspended at a sync point.
        if (chk) {
            if (done > 0) {
                // synccheck's "thread exited without executing barrier":
                // some warp already returned, yet its siblings reached a
                // __syncthreads().  Attribute the finding to the barrier
                // the lowest-id waiting warp is suspended at, and name the
                // lowest-id finished warp as the diverged one.
                int finished = -1;
                const WarpExec* waiting = nullptr;
                for (const auto& e : execs) {
                    if (e.task.done()) {
                        if (finished < 0)
                            finished = e.ctx.warp_id();
                    } else if (waiting == nullptr) {
                        waiting = &e;
                    }
                }
                if (finished >= 0 && waiting != nullptr)
                    chk->record_barrier_divergence(
                        finished, waiting->ctx.warp_id(),
                        waiting->ctx.barrier_site());
            }
            chk->barrier_release();
        }
        counters.barriers += 1;
        for (auto& e : execs)
            e.ctx.clear_barrier();
    }
    counters.blocks += 1;
    counters.warps += static_cast<std::uint64_t>(warps);
    return smem.bytes_used();
}

[[nodiscard]] Dim3 block_from_linear(std::int64_t lin, Dim3 grid) noexcept
{
    return Dim3{lin % grid.x, (lin / grid.x) % grid.y, lin / (grid.x * grid.y)};
}

/// Options::num_threads resolved: 0 = hardware concurrency (at least 1).
[[nodiscard]] int resolve_threads(int requested) noexcept
{
    if (requested > 0)
        return requested;
    return static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
}

/// Installs the block identity for the overlap detector and writes the
/// "while executing block (x,y,z)" context line that check_failed appends
/// to abort reports raised from inside this block.
class BlockExecutionScope {
public:
    BlockExecutionScope(std::int64_t linear, std::uint64_t epoch, Dim3 block,
                        const std::string& kernel)
        : block_scope_({linear, epoch})
    {
        std::snprintf(check_context(), 96,
                      "block (%lld,%lld,%lld) of kernel '%s'",
                      static_cast<long long>(block.x),
                      static_cast<long long>(block.y),
                      static_cast<long long>(block.z), kernel.c_str());
    }
    ~BlockExecutionScope() { check_context()[0] = '\0'; }
    BlockExecutionScope(const BlockExecutionScope&) = delete;
    BlockExecutionScope& operator=(const BlockExecutionScope&) = delete;

private:
    BlockScope block_scope_;
};

[[noreturn]] void rethrow_as_block_fault(std::int64_t lin, Dim3 grid,
                                         const std::string& kernel,
                                         std::exception_ptr ep)
{
    try {
        std::rethrow_exception(ep);
    } catch (const BlockFault&) {
        throw; // already attributed (nested launch)
    } catch (const std::exception& e) {
        throw BlockFault(block_from_linear(lin, grid), kernel, e.what(), ep);
    } catch (...) {
        std::rethrow_exception(ep); // non-std payloads pass through raw
    }
}

} // namespace

Engine::Engine() = default;

Engine::Engine(Options opt) : opt_(opt) {}

Engine::~Engine() = default;

int Engine::threads() const noexcept
{
    return resolve_threads(opt_.num_threads);
}

BlockExecutor& Engine::executor()
{
    if (!executor_)
        executor_ = std::make_unique<BlockExecutor>(
            threads(), opt_.smem_capacity_bytes);
    return *executor_;
}

LaunchStats Engine::launch(const KernelInfo& info, LaunchConfig cfg,
                           const WarpProgram& program)
{
    SATGPU_EXPECTS(cfg.grid.x > 0 && cfg.grid.y > 0 && cfg.grid.z > 0);
    SATGPU_EXPECTS(cfg.block.count() > 0 &&
                   cfg.block.count() % kWarpSize == 0);
    SATGPU_EXPECTS(cfg.warps_per_block() <= kMaxWarpsPerBlock);

    LaunchStats stats;
    stats.info = info;
    stats.config = cfg;

    const std::int64_t total = cfg.total_blocks();
    const int threads = static_cast<int>(
        std::min<std::int64_t>(this->threads(), total));

    const std::uint64_t epoch = new_launch_epoch();

    auto run_one = [&](std::int64_t lin, PerfCounters& sink) {
        const Dim3 b = block_from_linear(lin, cfg.grid);
        BlockExecutionScope scope(lin, epoch, b, info.name);
        Profiler* const prof = current_profiler();
        HazardChecker* const chk = current_hazard_checker();
        if (prof)
            prof->begin_block(lin, b);
        if (chk)
            chk->begin_block(lin);
        const std::int64_t used = run_block(
            b, cfg, program, opt_.smem_capacity_bytes, phase_, sink);
        if (chk)
            chk->end_block();
        if (prof)
            prof->end_block();
        return used;
    };

    auto attach_report = [&](Profiler& prof) {
        stats.profile = std::make_shared<const ProfileReport>(
            prof.build_report(opt_.profile_timeline_tracks,
                              opt_.profile_top_sites));
    };

    auto attach_hazards = [&](const HazardChecker& chk) {
        stats.hazards =
            std::make_shared<const HazardReport>(chk.build_report());
    };

    if (threads <= 1) {
        Profiler prof;
        HazardChecker chk;
        CounterScope scope(stats.counters);
        {
            // ProfilerScope after CounterScope: its destructor flushes the
            // profiler's tail delta against the still-installed sink.
            ProfilerScope pscope(opt_.profile ? &prof : nullptr);
            HazardCheckerScope hscope(opt_.check ? &chk : nullptr);
            for (std::int64_t lin = 0; lin < total; ++lin) {
                std::int64_t used = 0;
                try {
                    used = run_one(lin, stats.counters);
                } catch (...) {
                    rethrow_as_block_fault(lin, cfg.grid, info.name,
                                           std::current_exception());
                }
                stats.smem_used_bytes =
                    std::max(stats.smem_used_bytes, used);
            }
        }
        if (opt_.profile)
            attach_report(prof);
        if (opt_.check)
            attach_hazards(chk);
    } else {
        // Dynamic work-stealing over linear block indices.  Each worker
        // accumulates into a private sink; per-block counts are schedule
        // independent and the merge is a commutative sum, so the totals are
        // bit-identical to the sequential engine no matter which worker ran
        // which block.
        struct alignas(64) Worker {
            PerfCounters counters;
            Profiler prof;
            HazardChecker check;
            std::int64_t smem_peak = 0;
        };
        std::vector<Worker> workers(static_cast<std::size_t>(threads));
        std::atomic<std::int64_t> next{0};

        struct Fault {
            std::int64_t linear;
            std::exception_ptr error;
        };
        std::optional<Fault> fault;
        std::mutex fault_mu;

        // The scopes are the job's own: the executor's contract is that a
        // worker has no sink installed between jobs (block_executor.hpp).
        executor().run(threads, [&](int index) {
            Worker& w = workers[static_cast<std::size_t>(index)];
            CounterScope scope(w.counters);
            ProfilerScope pscope(opt_.profile ? &w.prof : nullptr);
            HazardCheckerScope hscope(opt_.check ? &w.check : nullptr);
            for (;;) {
                const std::int64_t lin =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (lin >= total)
                    break;
                try {
                    const std::int64_t used = run_one(lin, w.counters);
                    w.smem_peak = std::max(w.smem_peak, used);
                } catch (...) {
                    const std::lock_guard<std::mutex> lk(fault_mu);
                    if (!fault || lin < fault->linear)
                        fault = Fault{lin, std::current_exception()};
                }
            }
        });

        if (fault)
            rethrow_as_block_fault(fault->linear, cfg.grid, info.name,
                                   fault->error);

        // Deterministic merge: worker-index order (the sums are commutative
        // anyway, but fixing the order keeps this robust to future
        // non-additive stats).  The profiler merge is keyed sums plus a
        // post-merge sort of the block records, so it is worker-order
        // invariant too.
        Profiler merged_prof;
        HazardChecker merged_chk;
        for (const auto& worker : workers) {
            stats.counters.merge(worker.counters);
            stats.smem_used_bytes =
                std::max(stats.smem_used_bytes, worker.smem_peak);
            if (opt_.profile)
                merged_prof.merge(worker.prof);
            if (opt_.check)
                merged_chk.merge(worker.check);
        }
        if (opt_.profile)
            attach_report(merged_prof);
        if (opt_.check)
            attach_hazards(merged_chk);
    }

    if (opt_.record_history)
        history_.push_back(stats);
    return stats;
}

} // namespace satgpu::simt
