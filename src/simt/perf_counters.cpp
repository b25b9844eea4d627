#include "simt/perf_counters.hpp"

#include <atomic>

namespace satgpu::simt {

namespace {
thread_local BlockIdentity g_block;
std::atomic<std::uint64_t> g_launch_epoch{0};
} // namespace

void PerfCounters::merge(const PerfCounters& o) noexcept
{
    lane_add += o.lane_add;
    lane_mul += o.lane_mul;
    lane_bool += o.lane_bool;
    lane_select += o.lane_select;
    warp_shfl += o.warp_shfl;
    smem_ld_req += o.smem_ld_req;
    smem_st_req += o.smem_st_req;
    smem_ld_trans += o.smem_ld_trans;
    smem_st_trans += o.smem_st_trans;
    smem_bytes_ld += o.smem_bytes_ld;
    smem_bytes_st += o.smem_bytes_st;
    gmem_ld_req += o.gmem_ld_req;
    gmem_st_req += o.gmem_st_req;
    gmem_ld_sectors += o.gmem_ld_sectors;
    gmem_st_sectors += o.gmem_st_sectors;
    gmem_bytes_ld += o.gmem_bytes_ld;
    gmem_bytes_st += o.gmem_bytes_st;
    gmem_atomics += o.gmem_atomics;
    barriers += o.barriers;
    blocks += o.blocks;
    warps += o.warps;
}

PerfCounters counters_delta(const PerfCounters& now,
                            const PerfCounters& then) noexcept
{
    PerfCounters d;
    d.lane_add = now.lane_add - then.lane_add;
    d.lane_mul = now.lane_mul - then.lane_mul;
    d.lane_bool = now.lane_bool - then.lane_bool;
    d.lane_select = now.lane_select - then.lane_select;
    d.warp_shfl = now.warp_shfl - then.warp_shfl;
    d.smem_ld_req = now.smem_ld_req - then.smem_ld_req;
    d.smem_st_req = now.smem_st_req - then.smem_st_req;
    d.smem_ld_trans = now.smem_ld_trans - then.smem_ld_trans;
    d.smem_st_trans = now.smem_st_trans - then.smem_st_trans;
    d.smem_bytes_ld = now.smem_bytes_ld - then.smem_bytes_ld;
    d.smem_bytes_st = now.smem_bytes_st - then.smem_bytes_st;
    d.gmem_ld_req = now.gmem_ld_req - then.gmem_ld_req;
    d.gmem_st_req = now.gmem_st_req - then.gmem_st_req;
    d.gmem_ld_sectors = now.gmem_ld_sectors - then.gmem_ld_sectors;
    d.gmem_st_sectors = now.gmem_st_sectors - then.gmem_st_sectors;
    d.gmem_bytes_ld = now.gmem_bytes_ld - then.gmem_bytes_ld;
    d.gmem_bytes_st = now.gmem_bytes_st - then.gmem_bytes_st;
    d.gmem_atomics = now.gmem_atomics - then.gmem_atomics;
    d.barriers = now.barriers - then.barriers;
    d.blocks = now.blocks - then.blocks;
    d.warps = now.warps - then.warps;
    return d;
}

CounterScope::CounterScope(PerfCounters& sink) noexcept
    : prev_(detail::g_counter_sink)
{
    detail::g_counter_sink = &sink;
}

CounterScope::~CounterScope() { detail::g_counter_sink = prev_; }

BlockIdentity current_block() noexcept { return g_block; }

BlockScope::BlockScope(BlockIdentity id) noexcept : prev_(g_block)
{
    g_block = id;
}

BlockScope::~BlockScope() { g_block = prev_; }

std::uint64_t new_launch_epoch() noexcept
{
    return g_launch_epoch.fetch_add(1, std::memory_order_relaxed) + 1;
}

} // namespace satgpu::simt
