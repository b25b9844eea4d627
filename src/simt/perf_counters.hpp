// Event counters recorded by the SIMT simulator.
//
// These play the role nvprof metrics play in the paper: every simulated
// kernel launch produces a PerfCounters snapshot (data-path arithmetic per
// active lane, warp shuffles, shared-memory transactions after bank-conflict
// serialization, global-memory 32-byte sectors after coalescing) which the
// timing model (model/timing.hpp) converts into an estimated execution time.
//
// Counting conventions (chosen to match the paper's Sec. V accounting):
//  * arithmetic   - one count per ACTIVE lane (predicated-off lanes free),
//                   matching e.g. N_KoggeStone_add = (31+30+28+24+16)*C;
//  * shuffle      - one count per warp-wide instruction, matching
//                   N_scan_row_sfl = 160 for a 32x32 register matrix;
//  * shared mem   - requests (warp-wide instructions) and transactions
//                   (requests x serialization passes from bank conflicts);
//  * global mem   - requests and 32-byte sectors actually touched.
#pragma once

#include <cstdint>

namespace satgpu::simt {

struct PerfCounters {
    // Data-path arithmetic, per active lane.
    std::uint64_t lane_add = 0;
    std::uint64_t lane_mul = 0;
    std::uint64_t lane_bool = 0;   // boolean/AND ops (LF-scan predicate)
    std::uint64_t lane_select = 0; // predicated select

    // Warp-level shuffle instructions.
    std::uint64_t warp_shfl = 0;

    // Shared memory.
    std::uint64_t smem_ld_req = 0;
    std::uint64_t smem_st_req = 0;
    std::uint64_t smem_ld_trans = 0; // after bank-conflict serialization
    std::uint64_t smem_st_trans = 0;
    std::uint64_t smem_bytes_ld = 0;
    std::uint64_t smem_bytes_st = 0;

    // Global memory.
    std::uint64_t gmem_ld_req = 0;
    std::uint64_t gmem_st_req = 0;
    std::uint64_t gmem_ld_sectors = 0; // 32-byte sectors
    std::uint64_t gmem_st_sectors = 0;
    std::uint64_t gmem_bytes_ld = 0; // useful bytes (active lanes only)
    std::uint64_t gmem_bytes_st = 0;
    std::uint64_t gmem_atomics = 0; // lane-level atomic RMW operations

    // Control flow.
    std::uint64_t barriers = 0; // block-wide __syncthreads releases
    std::uint64_t blocks = 0;
    std::uint64_t warps = 0;

    void merge(const PerfCounters& o) noexcept;

    /// Field-wise equality: every counter is a plain sum over blocks, so two
    /// launches of the same kernel must compare equal regardless of how many
    /// host threads executed them (the determinism tests rely on this).
    friend bool operator==(const PerfCounters&,
                           const PerfCounters&) noexcept = default;

    [[nodiscard]] std::uint64_t smem_trans() const noexcept
    {
        return smem_ld_trans + smem_st_trans;
    }
    [[nodiscard]] std::uint64_t gmem_sectors() const noexcept
    {
        return gmem_ld_sectors + gmem_st_sectors;
    }
    [[nodiscard]] std::uint64_t gmem_bytes() const noexcept
    {
        return gmem_bytes_ld + gmem_bytes_st;
    }
    [[nodiscard]] std::uint64_t smem_bytes() const noexcept
    {
        return smem_bytes_ld + smem_bytes_st;
    }
    [[nodiscard]] std::uint64_t lane_arith() const noexcept
    {
        return lane_add + lane_mul + lane_bool + lane_select;
    }

    /// Average bank-conflict serialization (1.0 = conflict free).
    [[nodiscard]] double smem_conflict_factor() const noexcept
    {
        const std::uint64_t req = smem_ld_req + smem_st_req;
        return req == 0 ? 1.0
                        : static_cast<double>(smem_trans()) /
                              static_cast<double>(req);
    }
};

/// Field-wise difference `now - then`, used by the profiler to attribute
/// counter increments between two attribution points.  `then` must be an
/// earlier snapshot of the same monotonically growing sink.
[[nodiscard]] PerfCounters counters_delta(const PerfCounters& now,
                                          const PerfCounters& then) noexcept;

namespace detail {
inline constinit thread_local PerfCounters* g_counter_sink = nullptr;
} // namespace detail

/// The simulator routes counts through a scoped thread-local sink so that
/// kernel code stays free of instrumentation plumbing.  The engine installs
/// a sink for the duration of each launch; code running outside any launch
/// (unit tests poking at primitives directly) may install its own.  Inline
/// so the uninstrumented path's null check is one TLS load, not a call.
[[nodiscard]] inline PerfCounters* current_counters() noexcept
{
    return detail::g_counter_sink;
}

class CounterScope {
public:
    explicit CounterScope(PerfCounters& sink) noexcept;
    ~CounterScope();
    CounterScope(const CounterScope&) = delete;
    CounterScope& operator=(const CounterScope&) = delete;

private:
    PerfCounters* prev_;
};

/// Identity of the simulated block currently executing on this host thread.
/// The engine installs one around each block it runs (on whichever worker
/// thread picked the block up); `linear < 0` means "outside any block".
/// `launch_epoch` is a process-wide monotone launch id, which lets
/// per-buffer write trackers distinguish launches without a reset pass.
struct BlockIdentity {
    std::int64_t linear = -1;
    std::uint64_t launch_epoch = 0;
};

[[nodiscard]] BlockIdentity current_block() noexcept;

class BlockScope {
public:
    explicit BlockScope(BlockIdentity id) noexcept;
    ~BlockScope();
    BlockScope(const BlockScope&) = delete;
    BlockScope& operator=(const BlockScope&) = delete;

private:
    BlockIdentity prev_;
};

/// Allocate a fresh launch epoch (called once per Engine::launch).
[[nodiscard]] std::uint64_t new_launch_epoch() noexcept;

} // namespace satgpu::simt
