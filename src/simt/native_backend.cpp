#include "simt/native_backend.hpp"

#include "simt/block_executor.hpp"
#include "simt/hazard_checker.hpp"
#include "simt/perf_counters.hpp"
#include "simt/profiler.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <optional>
#include <utility>

namespace satgpu::simt {

namespace {

[[nodiscard]] Dim3 block_from_linear(std::int64_t lin, Dim3 grid) noexcept
{
    return Dim3{lin % grid.x, (lin / grid.x) % grid.y,
                lin / (grid.x * grid.y)};
}

/// Hides the calling thread's instrumentation -- counter sink, profiler,
/// hazard checker, block identity -- for the scope's lifetime.
class Uninstrumented {
public:
    Uninstrumented() noexcept
        : counters_(std::exchange(detail::g_counter_sink, nullptr))
    {
    }
    ~Uninstrumented() { detail::g_counter_sink = counters_; }
    Uninstrumented(const Uninstrumented&) = delete;
    Uninstrumented& operator=(const Uninstrumented&) = delete;

private:
    PerfCounters* counters_;
    ProfilerScope profiler_{nullptr};
    HazardCheckerScope checker_{nullptr};
    BlockScope block_{BlockIdentity{}};
};

} // namespace

LaunchStats native_launch(Engine& eng, const KernelInfo& info,
                          LaunchConfig cfg, const NativeBlockProgram& program)
{
    SATGPU_EXPECTS(cfg.grid.x > 0 && cfg.grid.y > 0 && cfg.grid.z > 0);
    SATGPU_EXPECTS(cfg.warps_per_block() > 0);
    SATGPU_EXPECTS(cfg.warps_per_block() <= kMaxWarpsPerBlock);
    const std::int64_t total = cfg.total_blocks();
    BlockExecutor& exec = eng.executor();
    const int workers =
        static_cast<int>(std::min<std::int64_t>(exec.size(), total));

    // First-fault bookkeeping (lowest linear block wins, as in the
    // simulator's scheduler, so fault reports stay deterministic).
    struct Fault {
        std::int64_t linear;
        std::exception_ptr ep;
    };
    std::mutex mu;
    std::optional<Fault> fault;
    std::int64_t smem_peak = 0;

    std::atomic<std::int64_t> next{0};
    exec.run(workers, [&](int slot) {
        // The no-instrumentation guarantee (see header): slot 0 is the
        // launching thread, whose sinks are hidden for the job; every other
        // slot is an executor worker, which never has one installed.
        std::optional<Uninstrumented> hide;
        if (slot == 0)
            hide.emplace();
        SATGPU_CHECK(current_counters() == nullptr &&
                         current_profiler() == nullptr &&
                         current_hazard_checker() == nullptr &&
                         current_block().linear < 0,
                     "native block executor worker has instrumentation "
                     "installed");
        NativeBlockCtx& blk = exec.native_ctx(slot);
        std::int64_t local_peak = 0;
        for (;;) {
            const std::int64_t lin =
                next.fetch_add(1, std::memory_order_relaxed);
            if (lin >= total)
                break;
            try {
                blk.reset(block_from_linear(lin, cfg.grid), cfg);
                program(blk);
                local_peak = std::max(local_peak, blk.smem_bytes_used());
            } catch (...) {
                const std::lock_guard<std::mutex> lock(mu);
                if (!fault || lin < fault->linear)
                    fault = Fault{lin, std::current_exception()};
            }
        }
        const std::lock_guard<std::mutex> lock(mu);
        smem_peak = std::max(smem_peak, local_peak);
    });

    if (fault) {
        try {
            std::rethrow_exception(fault->ep);
        } catch (const BlockFault&) {
            throw; // already wrapped (nested native launches don't re-wrap)
        } catch (const std::exception& e) {
            throw BlockFault(block_from_linear(fault->linear, cfg.grid),
                             info.name, e.what(), fault->ep);
        } catch (...) {
            throw BlockFault(block_from_linear(fault->linear, cfg.grid),
                             info.name, "unknown exception", fault->ep);
        }
    }

    LaunchStats stats;
    stats.info = info;
    stats.config = cfg;
    stats.smem_used_bytes = smem_peak;
    // The native path is uninstrumented by construction: every event
    // counter stays zero except the geometry-derived pair.
    stats.counters.blocks = static_cast<std::uint64_t>(total);
    stats.counters.warps = static_cast<std::uint64_t>(cfg.total_warps());
    return stats;
}

} // namespace satgpu::simt
