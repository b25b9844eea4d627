// GPU-efficient first-order recursive (IIR) filtering, after Nehab et
// al. [9] -- the causal smoothing pass
//     y(i) = x(i) + a * y(i-1)
// applied along rows and then columns.  (With feedback a=1 this degenerates
// to the SAT's prefix sums, which is why [9] treats summed-area tables and
// recursive filters uniformly.)
//
//  * Row kernel: one warp per row (the Fig. 4 mapping); each 32-element
//    group is solved with the affine warp scan, and the carry crosses
//    groups as y0 (exact, no approximation).
//  * Column kernel: one warp per 32-column strip walking down the image in
//    32-row register tiles; the recurrence is evaluated serially inside
//    each thread (the paper's intra-thread serial pattern) with a
//    per-thread carry across tiles.
#pragma once

#include "sat/launch_params.hpp"
#include "sat/tile_io.hpp"
#include "scan/affine_scan.hpp"
#include "simt/engine.hpp"
#include "simt/native_backend.hpp"

#include <vector>

namespace satgpu::transforms {

namespace detail {

using satgpu::ceil_div;
using sat::cols_in_range;
using simt::kWarpSize;
using simt::LaneVec;

template <typename T, typename W>
void iir_rows_warp(W& w, const simt::DeviceBuffer<T>& in, std::int64_t height,
                   std::int64_t width, T feedback, simt::DeviceBuffer<T>& out)
{
    const std::int64_t row =
        w.block_idx().y * w.warps_per_block() + w.warp_id();
    if (row >= height)
        return;
    const auto lane = LaneVec<std::int64_t>::lane_index();
    LaneVec<T> carry{}; // y(-1) = 0

    for (std::int64_t c0 = 0; c0 < width; c0 += kWarpSize) {
        const auto m = cols_in_range(c0, width);
        auto x = in.load(lane + (row * width + c0), m);
        // Lane l's map: y -> feedback*y + x_l.  Out-of-range lanes get the
        // identity-ish (m=feedback, b=0) which is never stored.
        scan::AffineLanes<T> maps{LaneVec<T>::broadcast(feedback), x};
        const auto scanned = scan::affine_warp_scan(maps);
        const auto y = scan::affine_apply(scanned, carry);
        out.store(lane + (row * width + c0), y, m);
        carry = LaneVec<T>::broadcast(simt::lane_value(y, kWarpSize - 1));
    }
}

template <typename T, typename W>
void iir_cols_warp(W& w, const simt::DeviceBuffer<T>& in, std::int64_t height,
                   std::int64_t width, T feedback, simt::DeviceBuffer<T>& out)
{
    const std::int64_t col0 =
        (w.block_idx().x * w.warps_per_block() + w.warp_id()) * kWarpSize;
    const auto m = cols_in_range(col0, width);
    if (m == 0)
        return;
    LaneVec<T> carry{};
    sat::RegTile<T> tile;

    for (std::int64_t row0 = 0; row0 < height; row0 += kWarpSize) {
        sat::load_tile_rows(in, height, width, row0, col0, tile);
        // Intra-thread serial recurrence down the 32-row band.
        for (int j = 0; j < kWarpSize; ++j) {
            auto& r = tile[static_cast<std::size_t>(j)];
            r = simt::vadd(r, simt::vmul(LaneVec<T>::broadcast(feedback),
                                         carry));
            carry = r;
        }
        sat::store_tile_rows(out, height, width, row0, col0, tile);
    }
}

} // namespace detail

template <typename T>
struct FilterResult {
    Matrix<T> filtered;
    std::vector<simt::LaunchStats> launches;
};

/// Causal 2-D recursive filter: rows then columns, y = x + a*y_prev.
/// Floating-point T only (the recurrence multiplies).
template <typename T>
[[nodiscard]] FilterResult<T> recursive_filter_2d(simt::Engine& eng,
                                                  const Matrix<T>& image,
                                                  T feedback)
{
    static_assert(std::is_floating_point_v<T>);
    const std::int64_t h = image.height(), w = image.width();
    auto in = simt::DeviceBuffer<T>::from_matrix(image);
    simt::DeviceBuffer<T> mid(h * w), out(h * w);
    FilterResult<T> res;

    const std::int64_t row_wc = 8; // 256-thread blocks
    res.launches.push_back(simt::launch_warps(
        eng, {"iir_rows", 24, 0},
        {{1, ceil_div(h, row_wc), 1}, {row_wc * simt::kWarpSize, 1, 1}},
        false, [&](auto& wc) {
            detail::iir_rows_warp<T>(wc, in, h, w, feedback, mid);
        }));
    res.launches.push_back(simt::launch_warps(
        eng, {"iir_cols", sat::regs_per_thread<T>(), 0},
        {{ceil_div(w, row_wc * simt::kWarpSize), 1, 1},
         {row_wc * simt::kWarpSize, 1, 1}},
        false, [&](auto& wc) {
            detail::iir_cols_warp<T>(wc, mid, h, w, feedback, out);
        }));
    res.filtered = std::move(out).release_matrix(h, w);
    return res;
}

/// CPU reference.
template <typename T>
[[nodiscard]] Matrix<T> recursive_filter_2d_reference(const Matrix<T>& image,
                                                      T feedback)
{
    Matrix<T> out(image.height(), image.width());
    for (std::int64_t y = 0; y < image.height(); ++y) {
        T prev{};
        for (std::int64_t x = 0; x < image.width(); ++x) {
            prev = static_cast<T>(image(y, x) + feedback * prev);
            out(y, x) = prev;
        }
    }
    for (std::int64_t x = 0; x < image.width(); ++x) {
        T prev{};
        for (std::int64_t y = 0; y < image.height(); ++y) {
            prev = static_cast<T>(out(y, x) + feedback * prev);
            out(y, x) = prev;
        }
    }
    return out;
}

} // namespace satgpu::transforms
