// Warp shuffle instructions (CUDA __shfl_*_sync semantics).
//
// Shuffles are the only inter-thread communication channel the paper's
// kernels use inside a warp (Sec. IV-1).  Each call counts as one warp-wide
// shuffle instruction, matching the paper's N_scan_row_sfl accounting.
//
// Every shuffle takes an `active` participation mask (defaulting to the
// full warp, like the kernels' unconditional __shfl_*_sync(0xffffffff, ...)
// calls).  On hardware a lane that sources a non-participating lane reads
// an undefined value; here the value is still deterministic (the simulator
// keeps all 32 register lanes live), but when a HazardChecker is installed
// (Engine::Options::check) such a read is flagged as a
// shuffle-inactive-source hazard at the call's file:line.
#pragma once

#include "simt/hazard_checker.hpp"
#include "simt/lane_vec.hpp"

#include <source_location>
#include <span>

namespace satgpu::simt {

namespace detail {
inline void count_shfl() noexcept
{
    if (PerfCounters* c = current_counters())
        c->warp_shfl += 1;
}

/// Hazard hook: active lane `dest` is about to read lane `src`, which is
/// outside the call's active mask.
inline void check_shfl_source(HazardChecker* hc, LaneMask active, int dest,
                              int src, const std::source_location& site)
{
    if (hc && lane_active(active, dest) && !lane_active(active, src))
        hc->record_shuffle_source(dest, src, site);
}
} // namespace detail

/// __shfl_up_sync: lane l receives the value of lane l - delta within its
/// width-sized segment; lanes with segment index < delta keep their own
/// value.  `width` must be a power of two <= 32.
template <typename T>
[[nodiscard]] LaneVec<T> shfl_up(const LaneVec<T>& v, int delta,
                                 int width = kWarpSize,
                                 LaneMask active = kFullMask,
                                 std::source_location site = SATGPU_SITE)
{
    SATGPU_EXPECTS(width > 0 && width <= kWarpSize &&
                   (width & (width - 1)) == 0);
    SATGPU_EXPECTS(delta >= 0);
    detail::count_shfl();
    HazardChecker* const hc = current_hazard_checker();
    // width is a power of two, so l % width == l & seg_mask and the
    // segment base survives in l's high bits -- no per-lane divisions on
    // this hot path (the native backend is nothing but these loops).
    const int seg_mask = width - 1;
    LaneVec<T> r;
    for (int l = 0; l < kWarpSize; ++l) {
        const int from = (l & seg_mask) >= delta ? l - delta : l;
        if (hc)
            detail::check_shfl_source(hc, active, l, from, site);
        r.set(l, v.get(from));
    }
    return r;
}

/// __shfl_down_sync: lane l receives lane l + delta within its segment.
template <typename T>
[[nodiscard]] LaneVec<T> shfl_down(const LaneVec<T>& v, int delta,
                                   int width = kWarpSize,
                                   LaneMask active = kFullMask,
                                   std::source_location site = SATGPU_SITE)
{
    SATGPU_EXPECTS(width > 0 && width <= kWarpSize &&
                   (width & (width - 1)) == 0);
    SATGPU_EXPECTS(delta >= 0);
    detail::count_shfl();
    HazardChecker* const hc = current_hazard_checker();
    const int seg_mask = width - 1; // see shfl_up
    LaneVec<T> r;
    for (int l = 0; l < kWarpSize; ++l) {
        const int from = (l & seg_mask) + delta < width ? l + delta : l;
        if (hc)
            detail::check_shfl_source(hc, active, l, from, site);
        r.set(l, v.get(from));
    }
    return r;
}

/// __shfl_sync: every lane receives the value of srcLane within its own
/// segment.  CUDA defines an out-of-range srcLane as srcLane mod width
/// (PTX masks the unsigned lane id); a NEGATIVE srcLane has no defined
/// meaning on hardware, so it is rejected as a contract violation rather
/// than silently wrapped by the signed bit-mask.
template <typename T>
[[nodiscard]] LaneVec<T> shfl(const LaneVec<T>& v, int src_lane,
                              int width = kWarpSize,
                              LaneMask active = kFullMask,
                              std::source_location site = SATGPU_SITE)
{
    SATGPU_EXPECTS(width > 0 && width <= kWarpSize &&
                   (width & (width - 1)) == 0);
    SATGPU_EXPECTS(src_lane >= 0);
    detail::count_shfl();
    const int seg_mask = width - 1;          // see shfl_up
    const int src_in_seg = src_lane & seg_mask; // == src_lane % width
    HazardChecker* const hc = current_hazard_checker();
    LaneVec<T> r;
    for (int l = 0; l < kWarpSize; ++l) {
        const int from = (l & ~seg_mask) | src_in_seg;
        if (hc)
            detail::check_shfl_source(hc, active, l, from, site);
        r.set(l, v.get(from));
    }
    return r;
}

/// Every lane of `v` broadcast across the warp: out[s] = shfl(v, s) for
/// each s < 32 (e.g. a per-row carry spread over its row's lanes).
/// Instrumented, it IS those 32 full-warp shfl calls (same counters and
/// hazard checks); uninstrumented, 32 LaneVec::broadcast of v's lanes.
template <typename T>
void shfl_each_lane(const LaneVec<T>& v,
                    std::span<LaneVec<T>, kWarpSize> out,
                    std::source_location site = SATGPU_SITE)
{
    if (current_counters() == nullptr &&
        current_hazard_checker() == nullptr) {
        for (int s = 0; s < kWarpSize; ++s)
            out[static_cast<std::size_t>(s)] =
                LaneVec<T>::broadcast(v.get(s));
        return;
    }
    for (int s = 0; s < kWarpSize; ++s)
        out[static_cast<std::size_t>(s)] =
            shfl(v, s, kWarpSize, kFullMask, site);
}

/// __shfl_xor_sync: lane l receives lane l ^ lane_mask within its segment.
template <typename T>
[[nodiscard]] LaneVec<T> shfl_xor(const LaneVec<T>& v, int lane_mask,
                                  int width = kWarpSize,
                                  LaneMask active = kFullMask,
                                  std::source_location site = SATGPU_SITE)
{
    SATGPU_EXPECTS(width > 0 && width <= kWarpSize &&
                   (width & (width - 1)) == 0);
    SATGPU_EXPECTS(lane_mask >= 0);
    detail::count_shfl();
    HazardChecker* const hc = current_hazard_checker();
    const int seg_mask = width - 1; // see shfl_up
    LaneVec<T> r;
    for (int l = 0; l < kWarpSize; ++l) {
        const int src = l ^ lane_mask;
        const int from =
            src < kWarpSize && (src & ~seg_mask) == (l & ~seg_mask) ? src
                                                                    : l;
        if (hc)
            detail::check_shfl_source(hc, active, l, from, site);
        r.set(l, v.get(from));
    }
    return r;
}

/// Broadcast of one lane's scalar to the host side (reads lane `src`).
template <typename T>
[[nodiscard]] T lane_value(const LaneVec<T>& v, int src) noexcept
{
    return v.get(src);
}

} // namespace satgpu::simt
