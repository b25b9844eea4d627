#include "simt/profiler.hpp"

#include "core/json_writer.hpp"
#include "core/math.hpp"
#include "simt/engine.hpp"

#include <algorithm>
#include <ostream>

namespace satgpu::simt {

namespace {

constexpr std::string_view kSiteKindNames[] = {"smem-ld", "smem-st",
                                               "gmem-ld", "gmem-st"};

} // namespace

ProfilerScope::ProfilerScope(Profiler* p) noexcept
    : prev_(detail::g_profiler)
{
    detail::g_profiler = p;
}

ProfilerScope::~ProfilerScope()
{
    if (detail::g_profiler)
        detail::g_profiler->finish();
    detail::g_profiler = prev_;
}

std::uint64_t block_virtual_cycles(const PerfCounters& c) noexcept
{
    // Issue-cost weights echoing model/timing.hpp's latency constants,
    // folded to small integers: arithmetic issues once per warp
    // instruction (32 lanes), shared transactions and global requests pay
    // a pipeline slot each, sector traffic stands in for DRAM time, and
    // barriers for the __syncthreads latency.  Only relative magnitudes
    // matter -- the timeline is a Gantt chart, not a clock.
    const std::uint64_t arith_instr = ceil_div(c.lane_arith(), std::uint64_t{kWarpSize});
    return arith_instr + c.warp_shfl + 4 * c.smem_trans() +
           4 * (c.gmem_ld_req + c.gmem_st_req) + 8 * c.gmem_sectors() +
           8 * c.gmem_atomics + 40 * c.barriers + 25;
}

void Profiler::flush()
{
    const PerfCounters* sink = current_counters();
    if (!sink)
        return;
    const PerfCounters delta = counters_delta(*sink, last_snap_);
    last_snap_ = *sink;
    if (delta == PerfCounters{})
        return;
    const WarpRangeStack* s = cur_ ? cur_ : &host_stack_;
    if (s->names.empty() && s->phase.empty()) {
        unattributed_.merge(delta);
        return;
    }
    std::string key;
    if (s->names.empty())
        key = s->phase;
    else if (s->phase.empty())
        key = s->names.back();
    else
        key.append(s->phase).append("/").append(s->names.back());
    auto it = ranges_.find(key);
    if (it == ranges_.end())
        it = ranges_.emplace(std::move(key), PerfCounters{}).first;
    it->second.merge(delta);
}

void Profiler::switch_warp(WarpRangeStack* next)
{
    flush();
    cur_ = next;
}

void Profiler::begin_block(std::int64_t linear, Dim3 block)
{
    if (const PerfCounters* sink = current_counters())
        block_snap_ = *sink;
    open_block_ = linear;
    open_block_idx_ = block;
}

void Profiler::end_block()
{
    const PerfCounters* sink = current_counters();
    if (!sink || open_block_ < 0)
        return;
    blocks_.push_back(BlockRecord{open_block_, open_block_idx_,
                                  counters_delta(*sink, block_snap_)});
    open_block_ = -1;
}

void Profiler::finish()
{
    flush();
    cur_ = nullptr;
}

void Profiler::range_push(std::string_view name)
{
    flush();
    (cur_ ? cur_ : &host_stack_)->names.push_back(name);
}

void Profiler::range_pop(std::string_view name)
{
    // Pop only a matching top.  In the normal flow scopes are strictly
    // LIFO per warp; the guard makes late coroutine-frame destruction on
    // a faulted launch (whose report is discarded anyway) harmless.
    WarpRangeStack* s = cur_ ? cur_ : &host_stack_;
    if (s->names.empty() || s->names.back() != name)
        return;
    flush();
    s->names.pop_back();
}

void Profiler::record_smem(const std::source_location& site, bool is_store,
                           std::uint64_t passes, std::uint64_t bytes)
{
    if (bytes == 0)
        return; // fully masked access: no lanes, no traffic to attribute
    SiteAccum& a = sites_[SiteKey{site.file_name(), site.line(),
                                  static_cast<std::uint8_t>(is_store ? 1 : 0)}];
    a.requests += 1;
    a.transactions += passes;
    a.bytes += bytes;
}

void Profiler::record_gmem(const std::source_location& site, bool is_store,
                           std::uint64_t sectors, std::uint64_t bytes)
{
    if (bytes == 0)
        return; // fully masked access: no lanes, no traffic to attribute
    SiteAccum& a = sites_[SiteKey{site.file_name(), site.line(),
                                  static_cast<std::uint8_t>(is_store ? 3 : 2)}];
    a.requests += 1;
    a.transactions += sectors;
    a.bytes += bytes;
}

void Profiler::merge(const Profiler& o)
{
    for (const auto& [name, counters] : o.ranges_) {
        auto it = ranges_.find(name);
        if (it == ranges_.end())
            it = ranges_.emplace(name, PerfCounters{}).first;
        it->second.merge(counters);
    }
    unattributed_.merge(o.unattributed_);
    for (const auto& [key, accum] : o.sites_) {
        SiteAccum& a = sites_[key];
        a.requests += accum.requests;
        a.transactions += accum.transactions;
        a.bytes += accum.bytes;
    }
    blocks_.insert(blocks_.end(), o.blocks_.begin(), o.blocks_.end());
}

std::string trim_source_path(std::string_view file)
{
    // Longest suffix anchored at a repo top-level directory; keeps the
    // report machine independent (build trees put absolute paths in
    // __FILE__).
    std::size_t best = std::string_view::npos;
    for (const std::string_view dir :
         {"/src/", "/bench/", "/tools/", "/tests/", "/examples/"}) {
        const std::size_t pos = file.rfind(dir);
        if (pos != std::string_view::npos &&
            (best == std::string_view::npos || pos > best))
            best = pos;
    }
    if (best == std::string_view::npos)
        return std::string(file);
    return std::string(file.substr(best + 1));
}

ProfileReport Profiler::build_report(int timeline_tracks,
                                     int top_sites) const
{
    ProfileReport r;

    // Ranges: the map is already name sorted.
    r.ranges.reserve(ranges_.size());
    for (const auto& [name, counters] : ranges_)
        r.ranges.push_back(RangeStats{name, counters});
    r.unattributed = unattributed_;

    // Hotspots: re-key by trimmed path string (collapsing duplicate
    // __FILE__ literal instances across translation units), compute the
    // excess over the conflict-free / perfectly coalesced floor, rank by
    // excess.
    std::map<std::pair<std::string, std::uint8_t>, SiteAccum> by_name;
    for (const auto& [key, accum] : sites_) {
        SiteAccum& a = by_name[{trim_source_path(key.file) + ":" +
                                    std::to_string(key.line),
                                key.kind}];
        a.requests += accum.requests;
        a.transactions += accum.transactions;
        a.bytes += accum.bytes;
    }
    std::vector<SiteStats> smem, gmem;
    for (const auto& [key, a] : by_name) {
        SiteStats s;
        s.site = key.first;
        s.kind = kSiteKindNames[key.second];
        s.requests = a.requests;
        s.transactions = a.transactions;
        s.bytes = a.bytes;
        const bool is_smem = key.second < 2;
        const std::uint64_t floor =
            is_smem ? a.requests
                    : ceil_div(a.bytes, std::uint64_t{kGmemSectorBytes});
        s.excess = a.transactions > floor ? a.transactions - floor : 0;
        (is_smem ? smem : gmem).push_back(std::move(s));
    }
    const auto rank = [](const SiteStats& a, const SiteStats& b) {
        if (a.excess != b.excess)
            return a.excess > b.excess;
        if (a.transactions != b.transactions)
            return a.transactions > b.transactions;
        if (a.site != b.site)
            return a.site < b.site;
        return a.kind < b.kind;
    };
    std::sort(smem.begin(), smem.end(), rank);
    std::sort(gmem.begin(), gmem.end(), rank);
    const auto n = static_cast<std::size_t>(std::max(0, top_sites));
    if (smem.size() > n)
        smem.resize(n);
    if (gmem.size() > n)
        gmem.resize(n);
    r.smem_hotspots = std::move(smem);
    r.gmem_hotspots = std::move(gmem);

    // Timeline: sort blocks by linear index (the order is worker
    // dependent before this), then run a deterministic greedy schedule
    // over `timeline_tracks` virtual execution slots.
    std::vector<BlockRecord> blocks = blocks_;
    std::sort(blocks.begin(), blocks.end(),
              [](const BlockRecord& a, const BlockRecord& b) {
                  return a.linear < b.linear;
              });
    const int tracks = static_cast<int>(std::min<std::int64_t>(
        std::max(1, timeline_tracks),
        std::max<std::int64_t>(1,
                               static_cast<std::int64_t>(blocks.size()))));
    std::vector<std::uint64_t> avail(static_cast<std::size_t>(tracks), 0);
    r.timeline.reserve(blocks.size());
    for (const auto& b : blocks) {
        std::size_t t = 0;
        for (std::size_t i = 1; i < avail.size(); ++i)
            if (avail[i] < avail[t])
                t = i;
        BlockSlice s;
        s.linear = b.linear;
        s.block = b.block;
        s.track = static_cast<int>(t);
        s.t_begin = avail[t];
        s.t_end = s.t_begin + std::max<std::uint64_t>(
                                  1, block_virtual_cycles(b.delta));
        s.gmem_sectors = b.delta.gmem_sectors();
        s.smem_trans = b.delta.smem_trans();
        s.barriers = b.delta.barriers;
        avail[t] = s.t_end;
        r.timeline.push_back(s);
    }
    r.timeline_tracks = tracks;
    for (const std::uint64_t t : avail)
        r.total_virtual_cycles = std::max(r.total_virtual_cycles, t);
    return r;
}

// ---------------------------------------------------------------- JSON -----

namespace {

void write_counters(JsonWriter& j, const PerfCounters& c)
{
    j.begin_object();
    j.key("lane_add"), j.value(c.lane_add);
    j.key("lane_mul"), j.value(c.lane_mul);
    j.key("lane_bool"), j.value(c.lane_bool);
    j.key("lane_select"), j.value(c.lane_select);
    j.key("warp_shfl"), j.value(c.warp_shfl);
    j.key("smem_ld_req"), j.value(c.smem_ld_req);
    j.key("smem_st_req"), j.value(c.smem_st_req);
    j.key("smem_ld_trans"), j.value(c.smem_ld_trans);
    j.key("smem_st_trans"), j.value(c.smem_st_trans);
    j.key("smem_bytes_ld"), j.value(c.smem_bytes_ld);
    j.key("smem_bytes_st"), j.value(c.smem_bytes_st);
    j.key("gmem_ld_req"), j.value(c.gmem_ld_req);
    j.key("gmem_st_req"), j.value(c.gmem_st_req);
    j.key("gmem_ld_sectors"), j.value(c.gmem_ld_sectors);
    j.key("gmem_st_sectors"), j.value(c.gmem_st_sectors);
    j.key("gmem_bytes_ld"), j.value(c.gmem_bytes_ld);
    j.key("gmem_bytes_st"), j.value(c.gmem_bytes_st);
    j.key("gmem_atomics"), j.value(c.gmem_atomics);
    j.key("barriers"), j.value(c.barriers);
    j.key("blocks"), j.value(c.blocks);
    j.key("warps"), j.value(c.warps);
    j.end_object();
}

void write_dim3(JsonWriter& j, Dim3 d)
{
    j.begin_array();
    j.value(d.x);
    j.value(d.y);
    j.value(d.z);
    j.end_array();
}

void write_sites(JsonWriter& j, const std::vector<SiteStats>& sites)
{
    j.begin_array();
    for (const auto& s : sites) {
        j.begin_object();
        j.key("site"), j.value(s.site);
        j.key("kind"), j.value(s.kind);
        j.key("requests"), j.value(s.requests);
        j.key("transactions"), j.value(s.transactions);
        j.key("bytes"), j.value(s.bytes);
        j.key("excess"), j.value(s.excess);
        j.end_object();
    }
    j.end_array();
}

} // namespace

void write_profile_json(std::ostream& os, std::span<const LaunchStats> ls)
{
    JsonWriter j(os);
    j.begin_object();
    j.key("schema"), j.value("satgpu-profile-v1");
    j.key("launches");
    j.begin_array();
    for (const auto& l : ls) {
        j.begin_object();
        j.key("kernel"), j.value(l.info.name);
        j.key("grid");
        write_dim3(j, l.config.grid);
        j.key("block");
        write_dim3(j, l.config.block);
        j.key("smem_used_bytes"), j.value(l.smem_used_bytes);
        j.key("counters");
        write_counters(j, l.counters);
        if (l.profile) {
            const ProfileReport& r = *l.profile;
            j.key("virtual_cycles"), j.value(r.total_virtual_cycles);
            j.key("ranges");
            j.begin_array();
            for (const auto& range : r.ranges) {
                j.begin_object();
                j.key("name"), j.value(range.name);
                j.key("counters");
                write_counters(j, range.counters);
                j.end_object();
            }
            j.end_array();
            j.key("unattributed");
            write_counters(j, r.unattributed);
            j.key("smem_hotspots");
            write_sites(j, r.smem_hotspots);
            j.key("gmem_hotspots");
            write_sites(j, r.gmem_hotspots);
            j.key("timeline");
            j.begin_object();
            j.key("tracks"), j.value(r.timeline_tracks);
            j.key("blocks"),
                j.value(static_cast<std::uint64_t>(r.timeline.size()));
            j.end_object();
        }
        j.end_object();
    }
    j.end_array();
    j.end_object();
    os << '\n';
}

void write_chrome_trace_json(std::ostream& os,
                             std::span<const LaunchStats> ls)
{
    const TraceGroup group{{}, ls};
    write_chrome_trace_json(os, std::span<const TraceGroup>(&group, 1));
}

void write_chrome_trace_json(std::ostream& os,
                             std::span<const TraceGroup> groups)
{
    JsonWriter j(os);
    j.begin_object();
    j.key("displayTimeUnit"), j.value("ms");
    j.key("traceEvents");
    j.begin_array();
    std::uint64_t offset = 0;
    int pid = 0; // continuous across groups: no collisions in the merge
    for (const auto& g : groups) {
        int launch_idx = 0;
        for (const auto& l : g.launches) {
            const int k = launch_idx++;
            if (!l.profile) {
                ++pid;
                continue;
            }
            const ProfileReport& r = *l.profile;
            j.begin_object();
            j.key("ph"), j.value("M");
            j.key("pid"), j.value(pid);
            j.key("name"), j.value("process_name");
            j.key("args");
            j.begin_object();
            j.key("name"),
                j.value((g.name.empty() ? std::string{}
                                        : std::string(g.name) + ": ") +
                        "launch " + std::to_string(k) + ": " + l.info.name);
            j.end_object();
            j.end_object();
            for (const auto& s : r.timeline) {
                j.begin_object();
                j.key("ph"), j.value("X");
                j.key("pid"), j.value(pid);
                j.key("tid"), j.value(s.track);
                j.key("ts"), j.value(offset + s.t_begin);
                j.key("dur"), j.value(s.t_end - s.t_begin);
                j.key("name"),
                    j.value("block (" + std::to_string(s.block.x) + "," +
                            std::to_string(s.block.y) + "," +
                            std::to_string(s.block.z) + ")");
                j.key("cat"), j.value("block");
                j.key("args");
                j.begin_object();
                j.key("linear"), j.value(s.linear);
                j.key("gmem_sectors"), j.value(s.gmem_sectors);
                j.key("smem_trans"), j.value(s.smem_trans);
                j.key("barriers"), j.value(s.barriers);
                j.end_object();
                j.end_object();
            }
            offset += r.total_virtual_cycles;
            ++pid;
        }
    }
    j.end_array();
    j.end_object();
    os << '\n';
}

} // namespace satgpu::simt
