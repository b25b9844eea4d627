// Launch-scoped profiler: phase ranges, hotspot attribution, and a
// deterministic virtual timeline for the SIMT engine.
//
// Layered on the thread-local counter sink (perf_counters.hpp), the
// profiler plays the role nvprof + NVTX play in the paper: it attributes
// every counter increment of a launch to the innermost open ProfileRange
// (the kernels' load / scan / transpose / carry / store phases), keeps
// per-`file:line` tables of bank-conflict serialization and uncoalesced
// sector traffic, and records per-block begin/end events on VIRTUAL
// timestamps derived from the block's own counters -- never wall clock --
// so every serialized byte of output is bit-identical for any
// Engine::Options::num_threads.
//
// Attribution model (exact, not sampled):
//  * Each warp carries its own range stack (WarpRangeStack); the block
//    scheduler tells the profiler which warp is about to run
//    (switch_warp), and the profiler folds the counter delta since the
//    previous attribution point into the range that was open across that
//    interval.  Because warps of a block interleave only at barriers and
//    the switch hooks bracket every resume, a range that spans
//    `co_await w.sync()` still charges exactly its own warp's events.
//  * Counts outside any range (scheduler barrier releases, un-annotated
//    kernel code) land in the `unattributed` bucket, so
//    sum(ranges) + unattributed == LaunchStats::counters, field for field
//    (tests/test_profiler.cpp pins this identity).
//  * Per-worker Profiler instances merge in worker-index order; every
//    merge is a keyed commutative sum, so reports are schedule invariant.
#pragma once

#include "simt/dim3.hpp"
#include "simt/perf_counters.hpp"

#include <cstdint>
#include <iosfwd>
#include <map>
#include <source_location>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace satgpu::simt {

struct LaunchStats; // engine.hpp

/// Call-site capture for the hotspot tables.  Memory-layer entry points
/// take a defaulted std::source_location parameter, so every existing
/// kernel call site is attributed automatically; SATGPU_SITE exists for
/// forwarding a caller's site through a helper layer explicitly.
#define SATGPU_SITE (::std::source_location::current())

/// The range stack of one simulated warp.  Owned by the scheduler (one per
/// warp coroutine) and manipulated only through ProfileRange push/pop on
/// the worker thread running the block, so it needs no synchronization.
struct WarpRangeStack {
    std::vector<std::string_view> names;
    /// Ambient phase label (Engine::PhaseScope), set by the scheduler at
    /// warp creation.  Attribution qualifies every range as
    /// "phase/range" and catches counters outside any range under the
    /// bare phase name, so a multi-launch composite (e.g. tiled
    /// execution's "tile.compute" / "tile.carry") is separable in the
    /// report without touching kernel code.
    std::string_view phase;
};

/// Per-(phase range) counter deltas, merged across warps/blocks/workers.
struct RangeStats {
    std::string name;
    PerfCounters counters;
};

/// One memory-instruction call site in the hotspot tables.
struct SiteStats {
    std::string site;  ///< "src/sat/brlt.hpp:57" (path trimmed to the repo)
    std::string kind;  ///< "smem-ld" | "smem-st" | "gmem-ld" | "gmem-st"
    std::uint64_t requests = 0;
    /// Shared memory: transactions after bank-conflict serialization.
    /// Global memory: 32-byte sectors touched after coalescing.
    std::uint64_t transactions = 0;
    std::uint64_t bytes = 0; ///< useful bytes (active lanes only)
    /// Serialization/uncoalescing overhead: transactions beyond the
    /// conflict-free (smem: one per request) or perfectly coalesced
    /// (gmem: ceil(bytes/32)) floor.  The hotspot tables rank by this.
    std::uint64_t excess = 0;
};

/// One block's slice on the virtual timeline.  `track` is a virtual
/// execution slot assigned by a deterministic greedy schedule over the
/// per-block virtual durations -- NOT the host worker that happened to run
/// the block (that would be schedule dependent).
struct BlockSlice {
    std::int64_t linear = 0;
    Dim3 block;
    int track = 0;
    std::uint64_t t_begin = 0; ///< virtual cycles
    std::uint64_t t_end = 0;
    std::uint64_t gmem_sectors = 0;
    std::uint64_t smem_trans = 0;
    std::uint64_t barriers = 0;
};

/// Everything the profiler learned about one launch.
struct ProfileReport {
    std::vector<RangeStats> ranges; ///< sorted by range name
    PerfCounters unattributed;      ///< counts outside every range
    std::vector<SiteStats> smem_hotspots; ///< top-N by excess transactions
    std::vector<SiteStats> gmem_hotspots; ///< top-N by excess sectors
    std::vector<BlockSlice> timeline;     ///< sorted by linear block index
    int timeline_tracks = 0;
    std::uint64_t total_virtual_cycles = 0; ///< makespan of the timeline
};

/// Coarse per-block virtual duration in "cycles", derived purely from the
/// block's counter delta (echoing the latency weights of model/timing.hpp,
/// but integer and model-independent so the simt layer stays self
/// contained).  Deterministic by construction.
[[nodiscard]] std::uint64_t block_virtual_cycles(const PerfCounters& c) noexcept;

/// Per-worker collection sink.  The engine owns one per worker thread when
/// Options::profile is set, installs it via ProfilerScope for the worker's
/// lifetime, and merges the workers in index order after joining them.
class Profiler {
public:
    Profiler() = default;
    Profiler(Profiler&&) = default;
    Profiler& operator=(Profiler&&) = default;

    // -- scheduler hooks (engine.cpp) ---------------------------------------
    /// Attribute the counter delta since the last attribution point to the
    /// currently open range, then make `next` the active warp stack
    /// (nullptr = "between warps": subsequent counts are scheduler work).
    void switch_warp(WarpRangeStack* next);
    void begin_block(std::int64_t linear, Dim3 block);
    void end_block();
    /// Final flush on the owning thread (ProfilerScope destructor calls
    /// this); afterwards the Profiler may be read from another thread.
    void finish();

    // -- instrumentation entry points ---------------------------------------
    void range_push(std::string_view name);
    void range_pop(std::string_view name);
    void record_smem(const std::source_location& site, bool is_store,
                     std::uint64_t passes, std::uint64_t bytes);
    void record_gmem(const std::source_location& site, bool is_store,
                     std::uint64_t sectors, std::uint64_t bytes);

    // -- merge + report -----------------------------------------------------
    void merge(const Profiler& o);
    /// Build the deterministic report: name-sorted ranges, top-N hotspot
    /// tables, greedy virtual-track timeline over `timeline_tracks` slots.
    [[nodiscard]] ProfileReport build_report(int timeline_tracks,
                                             int top_sites) const;

private:
    struct SiteKey {
        const char* file;
        std::uint32_t line;
        std::uint8_t kind; // 0 smem-ld, 1 smem-st, 2 gmem-ld, 3 gmem-st
        friend bool operator<(const SiteKey& a, const SiteKey& b) noexcept
        {
            if (a.file != b.file)
                return std::less<const char*>{}(a.file, b.file);
            if (a.line != b.line)
                return a.line < b.line;
            return a.kind < b.kind;
        }
    };
    struct SiteAccum {
        std::uint64_t requests = 0;
        std::uint64_t transactions = 0;
        std::uint64_t bytes = 0;
    };
    struct BlockRecord {
        std::int64_t linear = 0;
        Dim3 block;
        PerfCounters delta;
    };

    void flush();

    // Ranges are keyed by the (static-storage) name literal's contents;
    // merging across workers and TUs re-keys by value, so duplicate
    // literal instances collapse.
    std::map<std::string, PerfCounters, std::less<>> ranges_;
    PerfCounters unattributed_;
    std::map<SiteKey, SiteAccum> sites_;
    std::vector<BlockRecord> blocks_;

    PerfCounters last_snap_;   // sink state at the last attribution point
    PerfCounters block_snap_;  // sink state at begin_block
    WarpRangeStack* cur_ = nullptr; // active warp stack (null = scheduler)
    WarpRangeStack host_stack_;     // ranges opened outside any warp
    std::int64_t open_block_ = -1;
    Dim3 open_block_idx_;
};

namespace detail {
inline constinit thread_local Profiler* g_profiler = nullptr;
} // namespace detail

/// Thread-local profiler installation, mirroring CounterScope.  Installing
/// nullptr is a no-op scope (profiling disabled on this thread).
[[nodiscard]] inline Profiler* current_profiler() noexcept
{
    return detail::g_profiler;
}

class ProfilerScope {
public:
    explicit ProfilerScope(Profiler* p) noexcept;
    ~ProfilerScope();
    ProfilerScope(const ProfilerScope&) = delete;
    ProfilerScope& operator=(const ProfilerScope&) = delete;

private:
    Profiler* prev_;
};

/// NVTX-style scoped phase marker:
///
///   { ProfileRange r{"scan-row"};  scan::serial_scan_registers(d); }
///
/// `name` must outlive the range (use a string literal).  Safe across
/// barrier suspensions (the scheduler's switch_warp hooks keep attribution
/// exact) and free when no profiler is installed.  Ranges nest; a parent
/// is charged only for counts outside its children (self accounting).
class ProfileRange {
public:
    explicit ProfileRange(std::string_view name) noexcept
        : prof_(current_profiler()), name_(name)
    {
        if (prof_)
            prof_->range_push(name_);
    }
    ~ProfileRange()
    {
        if (prof_)
            prof_->range_pop(name_);
    }
    ProfileRange(const ProfileRange&) = delete;
    ProfileRange& operator=(const ProfileRange&) = delete;

private:
    Profiler* prof_;
    std::string_view name_;
};

// -- serialization ----------------------------------------------------------

/// Structured per-launch report document:
/// {"schema":"satgpu-profile-v1","launches":[...]}.  Launches without a
/// profile (Options::profile off) serialize counters only.
void write_profile_json(std::ostream& os, std::span<const LaunchStats> ls);

/// chrome://tracing / Perfetto "trace event" document.  Launches are laid
/// out back to back on the virtual clock; pid = launch index, tid =
/// virtual track, one complete ("X") event per block.
void write_chrome_trace_json(std::ostream& os,
                             std::span<const LaunchStats> ls);

/// One named group of launches for a merged multi-source trace -- e.g.
/// "worker 0" for a service worker's engine history, or "request 17" for
/// the launches attributed to one request.
struct TraceGroup {
    std::string_view name;
    std::span<const LaunchStats> launches;
};

/// Merged chrome trace over several launch sources.  Before this overload,
/// multiple Runtimes in one process had no collision-safe way to emit
/// traces: each wrote its own document with pids starting at 0, so dumping
/// them to one file was last-writer-wins.  Here pids are allocated
/// CONTINUOUSLY across groups in argument order (callers pass groups in
/// worker-index order for determinism) and every process name is prefixed
/// with its group's name, so launches from different workers/requests
/// never collide.  The ungrouped overload is exactly `{{"", history}}`.
void write_chrome_trace_json(std::ostream& os,
                             std::span<const TraceGroup> groups);

/// Trim an absolute __FILE__ to a repo-relative "src/..." style path (the
/// longest suffix starting at a known top-level directory).
[[nodiscard]] std::string trim_source_path(std::string_view file);

} // namespace satgpu::simt
