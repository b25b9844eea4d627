// OpenCV-3.4.1-style scan-scan SAT (paper Sec. VI-B2).
//
// Two kernels, mirroring cv::cuda::integral's structure:
//  * horizontal_pass (generic T): one 256-thread block per row; each
//    256-column chunk is scanned with per-warp Kogge-Stone scans stitched
//    through shared memory, with a running row carry across chunks.
//  * horisontal_pass_8u_shfl (8u input only): one warp per row; each thread
//    loads 16 pixels as a uint4, serial-scans them in registers, and a
//    single warp scan stitches the thread totals -- OpenCV's specialized
//    fast path that the paper highlights.
//  * vertical_pass: one thread per column walking down the rows (coalesced
//    across the warp), the same for all types.
#pragma once

#include "core/check.hpp"
#include "sat/launch_params.hpp"
#include "sat/tile_io.hpp"
#include "scan/block_scan.hpp"
#include "scan/warp_scan.hpp"
#include "simt/engine.hpp"
#include "simt/native_backend.hpp"

#include <span>
#include <tuple>

namespace satgpu::baselines {

using satgpu::ceil_div;
using sat::cols_in_range;
using simt::kWarpSize;
using simt::LaneVec;

/// Threads per block of the block-scanned passes (OpenCV's horizontal
/// pass, NPP's scanRow and scanCol): each scans 256-element chunks.
inline constexpr std::int64_t kScanBlock = 256;

/// Generic horizontal pass over grid.z = K images: block (0, y, k) scans
/// row y of image k in 256-column chunks, each block-scanned, with a
/// running row carry across chunks.
template <typename Tout, typename Tsrc>
[[nodiscard]] auto opencv_horizontal_phases(
    std::span<const simt::DeviceBuffer<Tsrc>* const> ins, std::int64_t width,
    std::span<simt::DeviceBuffer<Tout>* const> outs)
{
    using State = scan::BlockScanState<Tout>;
    // Warp w's 32 columns of chunk c: image, first element, lanes in range.
    const auto slice = [width](const auto& w, std::int64_t c) {
        const std::int64_t col0 =
            c * kScanBlock + std::int64_t{w.warp_id()} * kWarpSize;
        return std::tuple{static_cast<std::size_t>(w.block_idx().z),
                          w.block_idx().y * width + col0,
                          cols_in_range(col0, width)};
    };
    const auto lane = LaneVec<std::int64_t>::lane_index();
    return simt::phase_list<State>(
        [width](simt::Dim3) { return ceil_div(width, kScanBlock); },
        [=](auto& w, State& st, std::int64_t c) {
            const auto [z, first, m] = slice(w, c);
            st.v = ins[z]->load(lane + first, m).template cast<Tout>();
        },
        scan::block_scan_steps<Tout>(),
        [=](auto& w, State& st, std::int64_t c) {
            const auto [z, first, m] = slice(w, c);
            st.v = simt::vadd(st.v, st.carry);
            outs[z]->store(lane + first, st.v, m);
            st.carry = simt::vadd(st.carry, st.total);
        });
}

/// OpenCV's 8u fast path: one warp per row, uint4 (16-pixel) loads,
/// in-thread serial scan + one warp scan per 512-pixel chunk.
template <typename Tout, typename W>
void opencv_horizontal_8u_warp(W& w,
                               const simt::DeviceBuffer<std::uint8_t>& in,
                               std::int64_t height, std::int64_t width,
                               simt::DeviceBuffer<Tout>& out)
{
    constexpr int kPix = 16; // pixels per thread (one uint4)
    const std::int64_t row =
        w.block_idx().y * w.warps_per_block() + w.warp_id();
    if (row >= height)
        return; // warp-independent kernel: no barriers

    const auto lane = LaneVec<std::int64_t>::lane_index();
    const std::int64_t chunk_w = kWarpSize * kPix; // 512 pixels
    LaneVec<Tout> carry{};

    std::int64_t c0 = 0;
    for (; c0 + chunk_w <= width; c0 += chunk_w) {
        const auto base = lane * kPix + (row * width + c0);
        const auto pix = in.template load_vec<kPix>(base);

        // In-thread serial scan of the 16 pixels (15 adds per lane).
        std::array<LaneVec<Tout>, kPix> v;
        v[0] = pix[0].template cast<Tout>();
        for (int k = 1; k < kPix; ++k)
            v[static_cast<std::size_t>(k)] =
                simt::vadd(v[static_cast<std::size_t>(k - 1)],
                           pix[static_cast<std::size_t>(k)]
                               .template cast<Tout>());

        // Warp scan of thread totals -> exclusive offsets per thread.
        const auto inclusive = scan::kogge_stone_scan(v[kPix - 1]);
        auto exclusive = simt::shfl_up(inclusive, 1);
        exclusive.set(0, Tout{});
        const auto offset = simt::vadd(exclusive, carry);
        for (auto& reg : v)
            reg = simt::vadd(reg, offset);
        carry = simt::vadd(carry, simt::shfl(inclusive, kWarpSize - 1));

        // Store as four 128-bit vectors per thread (int4 stores).
        const auto out_base = lane * kPix + (row * width + c0);
        for (int g = 0; g < kPix / 4; ++g) {
            const std::array<LaneVec<Tout>, 4> grp{
                v[static_cast<std::size_t>(g * 4 + 0)],
                v[static_cast<std::size_t>(g * 4 + 1)],
                v[static_cast<std::size_t>(g * 4 + 2)],
                v[static_cast<std::size_t>(g * 4 + 3)]};
            out.template store_vec<4>(out_base + std::int64_t{g} * 4, grp);
        }
    }
    // Ragged tail: plain 32-element groups with masked accesses.
    for (; c0 < width; c0 += kWarpSize) {
        const auto m = cols_in_range(c0, width);
        auto v = in.load(lane + (row * width + c0), m)
                     .template cast<Tout>();
        v = scan::kogge_stone_scan(v);
        v = simt::vadd(v, carry);
        carry = simt::shfl(v, kWarpSize - 1);
        out.store(lane + (row * width + c0), v, m);
    }
}

/// Vertical pass: thread-per-column serial walk, coalesced across the warp.
template <typename Tout, typename W>
void opencv_vertical_warp(W& w, simt::DeviceBuffer<Tout>& data,
                          std::int64_t height, std::int64_t width)
{
    const std::int64_t col0 =
        w.block_idx().x * w.block_dim().x + std::int64_t{w.warp_id()} *
                                                kWarpSize;
    const auto m = cols_in_range(col0, width);
    if (m == 0)
        return;
    const auto lane = LaneVec<std::int64_t>::lane_index();
    LaneVec<Tout> carry{};
    for (std::int64_t y = 0; y < height; ++y) {
        const auto idx = lane + (y * width + col0);
        const auto v = data.load(idx, m);
        carry = simt::vadd(carry, v);
        data.store(idx, carry, m);
    }
}

// ---------------------------------------------------------------- launches
//
// Each pass launches in a fused K-image "wave" form: grid.z = K and block
// (x, y, k) runs image k's buffers.  The kernels read block_idx().z only to
// pick the buffers, so outputs are bit-identical to K separate launches.

template <typename Tout, typename Tsrc>
simt::LaunchStats launch_opencv_horizontal_wave(
    simt::Engine& eng, std::span<const simt::DeviceBuffer<Tsrc>* const> ins,
    std::int64_t height, std::int64_t width,
    std::span<simt::DeviceBuffer<Tout>* const> outs)
{
    SATGPU_EXPECTS(!ins.empty() && ins.size() == outs.size());
    const simt::LaunchConfig cfg{
        {1, height, static_cast<std::int64_t>(ins.size())},
        {kScanBlock, 1, 1}};
    const simt::KernelInfo info{
        "opencv_horisontal_pass", 24,
        static_cast<std::int64_t>(8 * sizeof(Tout))};
    return simt::launch_phases(
        eng, info, cfg, false,
        opencv_horizontal_phases<Tout, Tsrc>(ins, width, outs));
}

template <typename Tout>
simt::LaunchStats launch_opencv_horizontal_8u_wave(
    simt::Engine& eng,
    std::span<const simt::DeviceBuffer<std::uint8_t>* const> ins,
    std::int64_t height, std::int64_t width,
    std::span<simt::DeviceBuffer<Tout>* const> outs)
{
    SATGPU_EXPECTS(!ins.empty() && ins.size() == outs.size());
    const int rows_per_block = 4; // 128-thread blocks, one warp per row
    const simt::LaunchConfig cfg{
        {1, ceil_div(height, rows_per_block),
         static_cast<std::int64_t>(ins.size())},
        {rows_per_block * kWarpSize, 1, 1}};
    const simt::KernelInfo info{"opencv_horisontal_pass_8u_shfl", 40, 0};
    return simt::launch_warps(eng, info, cfg, false, [&](auto& w) {
        const auto z = static_cast<std::size_t>(w.block_idx().z);
        opencv_horizontal_8u_warp<Tout>(w, *ins[z], height, width, *outs[z]);
    });
}

template <typename Tout>
simt::LaunchStats launch_opencv_vertical_wave(
    simt::Engine& eng, std::span<simt::DeviceBuffer<Tout>* const> datas,
    std::int64_t height, std::int64_t width)
{
    SATGPU_EXPECTS(!datas.empty());
    const simt::LaunchConfig cfg{
        {ceil_div(width, 256), 1, static_cast<std::int64_t>(datas.size())},
        {256, 1, 1}};
    const simt::KernelInfo info{"opencv_vertical_pass", 16, 0};
    return simt::launch_warps(eng, info, cfg, false, [&](auto& w) {
        const auto z = static_cast<std::size_t>(w.block_idx().z);
        opencv_vertical_warp<Tout>(w, *datas[z], height, width);
    });
}

} // namespace satgpu::baselines
