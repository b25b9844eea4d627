// Device-side box filter from a SAT: every thread produces one output pixel
// from four table lookups (paper Fig. 1), entirely on the simulated GPU.
// Complements the host-side loop in examples/box_filter.cpp and serves as a
// realistic *consumer* workload for the SAT tables (gather-heavy reads).
#pragma once

#include "sat/launch_params.hpp"
#include "sat/sat.hpp"

namespace satgpu::sat {

namespace detail {

template <typename Tsat>
simt::KernelTask box_filter_warp(simt::WarpCtx& w,
                                 const simt::DeviceBuffer<Tsat>& table,
                                 std::int64_t height, std::int64_t width,
                                 std::int64_t radius,
                                 simt::DeviceBuffer<f32>& out)
{
    const std::int64_t y = w.block_idx().y;
    const std::int64_t x0 =
        (w.block_idx().x * w.warps_per_block() + w.warp_id()) *
        simt::kWarpSize;
    const auto m = cols_in_range(x0, width);
    if (m == 0 || y >= height)
        co_return;

    // Clamped window corners, per lane.
    simt::LaneVec<std::int64_t> xa, xb;
    const std::int64_t ya = std::max<std::int64_t>(0, y - radius) - 1;
    const std::int64_t yb = std::min(height - 1, y + radius);
    for (int l = 0; l < simt::kWarpSize; ++l) {
        const std::int64_t x = x0 + l;
        xa.set(l, std::max<std::int64_t>(0, x - radius) - 1);
        xb.set(l, std::min(width - 1, x + radius));
    }

    // Gather a, b, c, d (out-of-table corners contribute zero).
    auto corner = [&](std::int64_t yy,
                      const simt::LaneVec<std::int64_t>& xx)
        -> simt::LaneVec<Tsat> {
        if (yy < 0)
            return {};
        simt::LaneMask valid = 0;
        simt::LaneVec<std::int64_t> idx{};
        for (int l = 0; l < simt::kWarpSize; ++l) {
            if (!simt::lane_active(m, l) || xx.get(l) < 0)
                continue;
            valid |= (1u << l);
            idx.set(l, yy * width + xx.get(l));
        }
        return valid ? table.load(idx, valid) : simt::LaneVec<Tsat>{};
    };
    const auto a = corner(ya, xa);
    const auto b = corner(ya, xb);
    const auto c = corner(yb, xa);
    const auto d = corner(yb, xb);

    simt::LaneVec<f32> mean{};
    for (int l = 0; l < simt::kWarpSize; ++l) {
        if (!simt::lane_active(m, l))
            continue;
        const auto sum = static_cast<double>(d.get(l)) + a.get(l) -
                         b.get(l) - c.get(l);
        const auto area = static_cast<double>(yb - ya) *
                          static_cast<double>(xb.get(l) - xa.get(l));
        mean.set(l, static_cast<f32>(sum / area));
    }
    // a+d-b-c: three adds per ACTIVE lane.  Charging all 32 lanes here used
    // to overcount ragged right-edge warps (width % 32 != 0) and skew the
    // profiler's hotspot tables.
    simt::detail::count_adds(
        3 * static_cast<std::uint64_t>(simt::active_lane_count(m)));
    out.store_row(y * width + x0, mean, m);
}

} // namespace detail

/// Blur on the simulated GPU: table is the inclusive SAT of the image.
///
/// `radius <= 0` is a defined no-op: the window degenerates to the pixel
/// itself (area 1), so the output is a copy of the image the table
/// integrates.  A negative radius used to produce a reversed window whose
/// signed area could reach zero -- a divide-by-zero feeding NaNs downstream.
template <typename Tsat>
[[nodiscard]] Matrix<f32> box_filter_device(simt::Engine& eng,
                                            const Matrix<Tsat>& table,
                                            std::int64_t radius,
                                            simt::LaunchStats* stats = nullptr)
{
    const std::int64_t h = table.height(), w = table.width();
    radius = std::max<std::int64_t>(0, radius);
    auto dev_table = simt::DeviceBuffer<Tsat>::from_matrix(table);
    simt::DeviceBuffer<f32> out(h * w);
    // Launch shape comes from launch_params.hpp like every other kernel
    // touching Tsat-sized accumulators (1024 threads for 4-byte tables, 512
    // for 8-byte), instead of the hard-coded 256-thread block this wrapper
    // used to pin.
    const std::int64_t block_w =
        std::int64_t{warps_per_block<Tsat>()} * simt::kWarpSize;
    const auto s = eng.launch(
        {"box_filter", 24, 0},
        {{ceil_div(w, block_w), h, 1}, {block_w, 1, 1}},
        [&](simt::WarpCtx& wc) {
            return detail::box_filter_warp<Tsat>(wc, dev_table, h, w, radius,
                                                 out);
        });
    if (stats)
        *stats = s;
    return out.to_matrix(h, w);
}

} // namespace satgpu::sat
