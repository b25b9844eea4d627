// One-level 2-D Haar wavelet transform via BRLT -- the paper's future-work
// claim made concrete (Sec. VII: "The BRLT method is general and can be
// applied to optimize many other algorithms, such as FFT, Wavelet
// Transform, DCT").
//
// The unnormalized Haar analysis step maps each row's pairs (x0,x1) to a
// low-pass sum x0+x1 (left half) and a high-pass difference x0-x1 (right
// half).  Like the SAT row scan, this is a HORIZONTAL-neighbour operation;
// after BRLT each thread owns a whole tile row in registers, so the pair
// butterflies are pure intra-thread arithmetic with zero shuffles.  One
// transposing pass per dimension -- the same two-launch structure as
// BRLT-ScanRow, minus the carries (the transform is local).
//
// Restrictions: height and width must be multiples of 64 (pairs must not
// straddle warp tiles).
#pragma once

#include "sat/brlt.hpp"
#include "sat/launch_params.hpp"
#include "simt/engine.hpp"

#include <vector>

namespace satgpu::transforms {

using sat::RegTile;
using simt::kWarpSize;
using simt::LaneVec;

/// One warp of the transposing Haar row pass: in (height x width) ->
/// out (width x height) holding [low | high] per row, transposed.
template <typename T>
simt::KernelTask haar_rows_warp(simt::WarpCtx& w,
                                const simt::DeviceBuffer<T>& in,
                                std::int64_t height, std::int64_t width,
                                simt::DeviceBuffer<T>& out, bool padded_smem)
{
    const std::int64_t row0 = w.block_idx().y * kWarpSize;
    const std::int64_t chunk_w =
        std::int64_t{w.warps_per_block()} * kWarpSize;
    const std::int64_t chunks = ceil_div(width, chunk_w);
    const auto lane = LaneVec<std::int64_t>::lane_index();
    RegTile<T> data;

    for (std::int64_t c = 0; c < chunks; ++c) {
        const std::int64_t col0 =
            c * chunk_w + std::int64_t{w.warp_id()} * kWarpSize;
        sat::load_tile_rows(in, height, width, row0, col0, data);
        co_await sat::brlt_transpose(w, data, padded_smem);

        // Intra-thread butterflies: register pairs (2j, 2j+1) -> (sum, diff).
        std::array<LaneVec<T>, kWarpSize / 2> low, high;
        for (int j = 0; j < kWarpSize / 2; ++j) {
            const auto& a = data[static_cast<std::size_t>(2 * j)];
            const auto& b = data[static_cast<std::size_t>(2 * j + 1)];
            low[static_cast<std::size_t>(j)] = simt::vadd(a, b);
            high[static_cast<std::size_t>(j)] = LaneVec<T>::zip(
                a, b, [](T x, T y) { return static_cast<T>(x - y); });
            simt::detail::count_adds(kWarpSize); // the subtraction
        }

        // Transposed store: low coefficients land at output rows
        // col0/2 + j, high at width/2 + col0/2 + j.
        if (col0 >= width)
            continue;
        const simt::LaneMask rows = sat::cols_in_range(row0, height);
        for (int j = 0; j < kWarpSize / 2; ++j) {
            const std::int64_t lo_row = col0 / 2 + j;
            const std::int64_t hi_row = width / 2 + col0 / 2 + j;
            out.store(lane + (lo_row * height + row0),
                      low[static_cast<std::size_t>(j)], rows);
            out.store(lane + (hi_row * height + row0),
                      high[static_cast<std::size_t>(j)], rows);
        }
    }
}

template <typename T>
simt::LaunchStats launch_haar_rows_pass(simt::Engine& eng,
                                        const simt::DeviceBuffer<T>& in,
                                        std::int64_t height,
                                        std::int64_t width,
                                        simt::DeviceBuffer<T>& out,
                                        bool padded_smem = true)
{
    const int wc = sat::warps_per_block<T>();
    const simt::LaunchConfig cfg{
        {1, ceil_div(height, kWarpSize), 1},
        {std::int64_t{wc} * kWarpSize, 1, 1}};
    const simt::KernelInfo info{"haar_rows_brlt",
                                sat::regs_per_thread<T>(),
                                sat::brlt_smem_bytes<T>(padded_smem)};
    return eng.launch(info, cfg, [&](simt::WarpCtx& w) {
        return haar_rows_warp<T>(w, in, height, width, out, padded_smem);
    });
}

template <typename T>
struct DwtResult {
    Matrix<T> coeffs; // [LL LH; HL HH] quadrants
    std::vector<simt::LaunchStats> launches;
};

/// One-level 2-D Haar DWT on the simulated GPU (two transposing passes).
template <typename T>
[[nodiscard]] DwtResult<T> haar_dwt_2d(simt::Engine& eng,
                                       const Matrix<T>& image,
                                       bool padded_smem = true)
{
    const std::int64_t h = image.height(), w = image.width();
    SATGPU_CHECK(h % 64 == 0 && w % 64 == 0,
                 "haar_dwt_2d requires multiples of 64");
    auto in = simt::DeviceBuffer<T>::from_matrix(image);
    simt::DeviceBuffer<T> mid(w * h), out(h * w);
    DwtResult<T> res;
    res.launches.push_back(
        launch_haar_rows_pass<T>(eng, in, h, w, mid, padded_smem));
    res.launches.push_back(
        launch_haar_rows_pass<T>(eng, mid, w, h, out, padded_smem));
    res.coeffs = std::move(out).release_matrix(h, w);
    return res;
}

/// CPU reference: row step then column step of the unnormalized Haar
/// analysis transform.
template <typename T>
[[nodiscard]] Matrix<T> haar_dwt_2d_reference(const Matrix<T>& image)
{
    const std::int64_t h = image.height(), w = image.width();
    SATGPU_EXPECTS(h % 2 == 0 && w % 2 == 0);
    Matrix<T> rows(h, w);
    for (std::int64_t y = 0; y < h; ++y)
        for (std::int64_t x = 0; x < w / 2; ++x) {
            rows(y, x) = static_cast<T>(image(y, 2 * x) + image(y, 2 * x + 1));
            rows(y, w / 2 + x) =
                static_cast<T>(image(y, 2 * x) - image(y, 2 * x + 1));
        }
    Matrix<T> out(h, w);
    for (std::int64_t y = 0; y < h / 2; ++y)
        for (std::int64_t x = 0; x < w; ++x) {
            out(y, x) = static_cast<T>(rows(2 * y, x) + rows(2 * y + 1, x));
            out(h / 2 + y, x) =
                static_cast<T>(rows(2 * y, x) - rows(2 * y + 1, x));
        }
    return out;
}

/// CPU inverse (synthesis), exact for the unnormalized transform up to the
/// factor 4 gain: reconstruct(haar(x)) == 4*x, so we divide back out.
template <typename T>
[[nodiscard]] Matrix<T> haar_idwt_2d_reference(const Matrix<T>& coeffs)
{
    const std::int64_t h = coeffs.height(), w = coeffs.width();
    Matrix<T> rows(h, w);
    for (std::int64_t y = 0; y < h / 2; ++y)
        for (std::int64_t x = 0; x < w; ++x) {
            const T s = coeffs(y, x);
            const T d = coeffs(h / 2 + y, x);
            rows(2 * y, x) = static_cast<T>((s + d) / 2);
            rows(2 * y + 1, x) = static_cast<T>((s - d) / 2);
        }
    Matrix<T> out(h, w);
    for (std::int64_t y = 0; y < h; ++y)
        for (std::int64_t x = 0; x < w / 2; ++x) {
            const T s = rows(y, x);
            const T d = rows(y, w / 2 + x);
            out(y, 2 * x) = static_cast<T>((s + d) / 2);
            out(y, 2 * x + 1) = static_cast<T>((s - d) / 2);
        }
    return out;
}

} // namespace satgpu::transforms
