// Blockwise 8x8 2-D DCT-II via BRLT -- the third of the paper's Sec. VII
// future-work targets (JPEG-style transform coding).
//
// The separable DCT needs an 8-point transform along rows, then along
// columns.  As with the SAT and the Haar DWT, the row direction is the
// expensive one on a GPU; after BRLT each thread owns a full tile row in
// registers, so each of its four 8-point segments is a small intra-thread
// matrix-vector product -- no shuffles, no shared-memory round trips beyond
// the transpose itself.  Two transposing passes produce the 2-D transform
// with the block grid preserved.
#pragma once

#include "sat/brlt.hpp"
#include "sat/launch_params.hpp"
#include "simt/engine.hpp"
#include "simt/native_backend.hpp"

#include <array>
#include <cmath>
#include <utility>
#include <vector>

namespace satgpu::transforms {

/// Orthonormal DCT-II basis: kDct8[k][n] = c_k cos((2n+1) k pi / 16).
[[nodiscard]] inline const std::array<std::array<double, 8>, 8>& dct8_basis()
{
    static const auto basis = [] {
        std::array<std::array<double, 8>, 8> b{};
        const double pi = std::acos(-1.0);
        for (int k = 0; k < 8; ++k)
            for (int n = 0; n < 8; ++n)
                b[static_cast<std::size_t>(k)][static_cast<std::size_t>(n)] =
                    (k == 0 ? std::sqrt(1.0 / 8.0) : std::sqrt(2.0 / 8.0)) *
                    std::cos((2 * n + 1) * k * pi / 16.0);
        return b;
    }();
    return basis;
}

namespace detail {

/// In-thread 8-point DCT of registers [seg*8, seg*8+8) for all four
/// segments of the register row: 64 multiplies + 56 adds per segment.
template <typename T>
void dct8_registers(sat::RegTile<T>& data)
{
    const auto& basis = dct8_basis();
    sat::RegTile<T> out;
    for (int seg = 0; seg < 4; ++seg) {
        for (int k = 0; k < 8; ++k) {
            simt::LaneVec<T> acc = simt::vmul(
                data[static_cast<std::size_t>(seg * 8)],
                simt::LaneVec<T>::broadcast(static_cast<T>(
                    basis[static_cast<std::size_t>(k)][0])));
            for (int n = 1; n < 8; ++n)
                acc = simt::vadd(
                    acc,
                    simt::vmul(
                        data[static_cast<std::size_t>(seg * 8 + n)],
                        simt::LaneVec<T>::broadcast(static_cast<T>(
                            basis[static_cast<std::size_t>(k)]
                                 [static_cast<std::size_t>(n)]))));
            out[static_cast<std::size_t>(seg * 8 + k)] = acc;
        }
    }
    data = out;
}

/// One transposing row pass (height x width -> width x height): block
/// (0, y) owns rows [y*32, y*32+32); warp i holds the tile at column
/// c*chunk_w + 32*i of chunk c, transposes it, and after the 8-point DCTs
/// of its register rows stores it transposed, as the other BRLT passes do.
template <typename T>
simt::LaunchStats launch_dct8_rows_pass(simt::Engine& eng,
                                        const simt::DeviceBuffer<T>& in,
                                        std::int64_t height,
                                        std::int64_t width,
                                        simt::DeviceBuffer<T>& out)
{
    using simt::kWarpSize;
    const int wc = sat::warps_per_block<T>();
    const simt::LaunchConfig cfg{
        {1, ceil_div(height, kWarpSize), 1},
        {std::int64_t{wc} * kWarpSize, 1, 1}};
    const simt::KernelInfo info{"dct8_rows_brlt",
                                sat::regs_per_thread<T>() + 32,
                                sat::brlt_smem_bytes<T>()};
    struct State {
        sat::RegTile<T> data;
    };
    const std::int64_t chunk_w = std::int64_t{wc} * kWarpSize;
    const auto lane = simt::LaneVec<std::int64_t>::lane_index();
    const auto corner = [&](const auto& w, std::int64_t c) {
        return std::pair{w.block_idx().y * kWarpSize,
                         c * chunk_w + std::int64_t{w.warp_id()} * kWarpSize};
    };
    return simt::launch_phases(
        eng, info, cfg, false,
        simt::phase_list<State>(
            [&](simt::Dim3) { return ceil_div(width, chunk_w); },
            [&](auto& w, State& st, std::int64_t c) {
                const auto [row0, col0] = corner(w, c);
                sat::load_tile_rows(in, height, width, row0, col0, st.data);
            },
            sat::brlt_transpose_rounds<T>(wc, true),
            [&](auto& w, State& st, std::int64_t c) {
                const auto [row0, col0] = corner(w, c);
                dct8_registers(st.data);
                // Transposed store, same layout as the other BRLT passes.
                if (col0 >= width)
                    return;
                const simt::LaneMask rows = sat::cols_in_range(row0, height);
                for (int j = 0; j < kWarpSize; ++j)
                    out.store(lane + ((col0 + j) * height + row0),
                              st.data[static_cast<std::size_t>(j)], rows);
            }));
}

} // namespace detail

template <typename T>
struct DctResult {
    Matrix<T> coeffs;
    std::vector<simt::LaunchStats> launches;
};

/// Blockwise 8x8 2-D DCT-II on the simulated GPU.  Requires height and
/// width to be multiples of 64 (whole warp tiles of whole 8-blocks).
template <typename T>
[[nodiscard]] DctResult<T> dct8x8_2d(simt::Engine& eng,
                                     const Matrix<T>& image)
{
    static_assert(std::is_floating_point_v<T>);
    const std::int64_t h = image.height(), w = image.width();
    SATGPU_CHECK(h % 64 == 0 && w % 64 == 0,
                 "dct8x8_2d requires multiples of 64");
    auto in = simt::DeviceBuffer<T>::from_matrix(image);
    simt::DeviceBuffer<T> mid(w * h), out(h * w);
    DctResult<T> res;

    res.launches.push_back(detail::launch_dct8_rows_pass(eng, in, h, w, mid));
    res.launches.push_back(detail::launch_dct8_rows_pass(eng, mid, w, h, out));
    res.coeffs = std::move(out).release_matrix(h, w);
    return res;
}

/// CPU reference: direct O(8^4)-per-block 2-D DCT.
template <typename T>
[[nodiscard]] Matrix<T> dct8x8_2d_reference(const Matrix<T>& image)
{
    const auto& basis = dct8_basis();
    Matrix<T> out(image.height(), image.width());
    for (std::int64_t by = 0; by < image.height(); by += 8)
        for (std::int64_t bx = 0; bx < image.width(); bx += 8)
            for (int u = 0; u < 8; ++u)
                for (int v = 0; v < 8; ++v) {
                    double acc = 0;
                    for (int y = 0; y < 8; ++y)
                        for (int x = 0; x < 8; ++x)
                            acc += static_cast<double>(
                                       image(by + y, bx + x)) *
                                   basis[static_cast<std::size_t>(u)]
                                        [static_cast<std::size_t>(y)] *
                                   basis[static_cast<std::size_t>(v)]
                                        [static_cast<std::size_t>(x)];
                    out(by + u, bx + v) = static_cast<T>(acc);
                }
    return out;
}

/// CPU inverse (orthonormal basis: the transpose).
template <typename T>
[[nodiscard]] Matrix<T> idct8x8_2d_reference(const Matrix<T>& coeffs)
{
    const auto& basis = dct8_basis();
    Matrix<T> out(coeffs.height(), coeffs.width());
    for (std::int64_t by = 0; by < coeffs.height(); by += 8)
        for (std::int64_t bx = 0; bx < coeffs.width(); bx += 8)
            for (int y = 0; y < 8; ++y)
                for (int x = 0; x < 8; ++x) {
                    double acc = 0;
                    for (int u = 0; u < 8; ++u)
                        for (int v = 0; v < 8; ++v)
                            acc += static_cast<double>(
                                       coeffs(by + u, bx + v)) *
                                   basis[static_cast<std::size_t>(u)]
                                        [static_cast<std::size_t>(y)] *
                                   basis[static_cast<std::size_t>(v)]
                                        [static_cast<std::size_t>(x)];
                    out(by + y, bx + x) = static_cast<T>(acc);
                }
    return out;
}

} // namespace satgpu::transforms
