// CPU reference implementations of the Summed Area Table.
//
// These serve three roles: the correctness oracle for every simulated GPU
// kernel (paper Alg. 1), a realistic host baseline for the wall-clock
// benchmarks (bench_cpu_host), and the reference semantics for the
// inclusive/exclusive conversion the paper describes in Sec. III-A.
#pragma once

#include "core/matrix.hpp"

#include <algorithm>
#include <span>
#include <thread>
#include <vector>

namespace satgpu::sat {

/// Paper Alg. 1: naive serial inclusive SAT.  J(x,y) = sum of I over the
/// rectangle [0,x] x [0,y].  2*H*W additions, single pass.
template <typename Tout, typename Tin>
[[nodiscard]] Matrix<Tout> sat_serial(const Matrix<Tin>& in)
{
    Matrix<Tout> out(in.height(), in.width());
    const std::int64_t h = in.height();
    const std::int64_t w = in.width();
    if (h == 0 || w == 0)
        return out;

    out(0, 0) = static_cast<Tout>(in(0, 0));
    for (std::int64_t x = 1; x < w; ++x)
        out(0, x) = static_cast<Tout>(static_cast<Tout>(in(0, x)) +
                                      out(0, x - 1));
    for (std::int64_t y = 1; y < h; ++y) {
        Tout row_sum{};
        for (std::int64_t x = 0; x < w; ++x) {
            row_sum = static_cast<Tout>(row_sum +
                                        static_cast<Tout>(in(y, x)));
            out(y, x) = static_cast<Tout>(out(y - 1, x) + row_sum);
        }
    }
    return out;
}

/// Two-pass SAT: row scan into a temporary, then column scan.  This is the
/// scan-scan decomposition all the GPU algorithms build on (Sec. III) and a
/// useful second oracle (different summation order than Alg. 1).
template <typename Tout, typename Tin>
[[nodiscard]] Matrix<Tout> sat_two_pass(const Matrix<Tin>& in)
{
    Matrix<Tout> out(in.height(), in.width());
    for (std::int64_t y = 0; y < in.height(); ++y) {
        Tout acc{};
        for (std::int64_t x = 0; x < in.width(); ++x) {
            acc = static_cast<Tout>(acc + static_cast<Tout>(in(y, x)));
            out(y, x) = acc;
        }
    }
    for (std::int64_t y = 1; y < in.height(); ++y)
        for (std::int64_t x = 0; x < in.width(); ++x)
            out(y, x) = static_cast<Tout>(out(y, x) + out(y - 1, x));
    return out;
}

/// Multi-threaded two-pass SAT: rows are scanned in parallel strips, then
/// columns in parallel strips.  The host-side analogue of the GPU kernels'
/// independent-rows/independent-columns parallelism.
template <typename Tout, typename Tin>
[[nodiscard]] Matrix<Tout> sat_parallel(const Matrix<Tin>& in,
                                        unsigned threads = 0)
{
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    Matrix<Tout> out(in.height(), in.width());
    const std::int64_t h = in.height();
    const std::int64_t w = in.width();
    if (h == 0 || w == 0)
        return out;

    const auto run_strips = [&](std::int64_t n, auto&& body) {
        const std::int64_t per =
            (n + static_cast<std::int64_t>(threads) - 1) /
            static_cast<std::int64_t>(threads);
        std::vector<std::jthread> pool;
        for (std::int64_t lo = 0; lo < n; lo += per)
            pool.emplace_back(body, lo, std::min(lo + per, n));
    };

    run_strips(h, [&](std::int64_t y0, std::int64_t y1) {
        for (std::int64_t y = y0; y < y1; ++y) {
            Tout acc{};
            for (std::int64_t x = 0; x < w; ++x) {
                acc = static_cast<Tout>(acc + static_cast<Tout>(in(y, x)));
                out(y, x) = acc;
            }
        }
    });
    run_strips(w, [&](std::int64_t x0, std::int64_t x1) {
        for (std::int64_t y = 1; y < h; ++y)
            for (std::int64_t x = x0; x < x1; ++x)
                out(y, x) = static_cast<Tout>(out(y, x) + out(y - 1, x));
    });
    return out;
}

/// Inclusive -> exclusive SAT (Eq. 2): shifts the table by one in both
/// dimensions with a zero top row / left column.
template <typename T>
[[nodiscard]] Matrix<T> to_exclusive(const Matrix<T>& inc)
{
    Matrix<T> out(inc.height(), inc.width());
    for (std::int64_t y = 1; y < inc.height(); ++y)
        for (std::int64_t x = 1; x < inc.width(); ++x)
            out(y, x) = inc(y - 1, x - 1);
    return out;
}

/// Fig. 1 over a rectangle that may reach outside the table: the sum of
/// the image over the intersection of the inclusive rectangle
/// [x0, x1] x [y0, y1] with the table, from the INCLUSIVE height x width
/// SAT held row-major in `sat` (read in place, four lookups), as
/// a + d - b - c.  An empty intersection -- a reversed rectangle, or one
/// wholly outside -- sums to 0.
template <typename T>
[[nodiscard]] T clamped_rect_sum(std::span<const T> sat, std::int64_t height,
                                 std::int64_t width, std::int64_t y0,
                                 std::int64_t x0, std::int64_t y1,
                                 std::int64_t x1)
{
    SATGPU_EXPECTS(height >= 0 && width >= 0 &&
                   static_cast<std::int64_t>(sat.size()) >= height * width);
    y0 = std::max<std::int64_t>(y0, 0);
    x0 = std::max<std::int64_t>(x0, 0);
    y1 = std::min(y1, height - 1);
    x1 = std::min(x1, width - 1);
    if (y0 > y1 || x0 > x1)
        return T{};
    const auto at = [&](std::int64_t y, std::int64_t x) {
        return sat[static_cast<std::size_t>(y * width + x)];
    };
    const T d = at(y1, x1);
    const T a = (y0 > 0 && x0 > 0) ? at(y0 - 1, x0 - 1) : T{};
    const T b = (y0 > 0) ? at(y0 - 1, x1) : T{};
    const T c = (x0 > 0) ? at(y1, x0 - 1) : T{};
    return static_cast<T>(static_cast<T>(a + d) - static_cast<T>(b + c));
}

/// Fig. 1: sum of the image over the inclusive rectangle
/// [x0, x1] x [y0, y1], which must lie inside the INCLUSIVE SAT.
template <typename T>
[[nodiscard]] T rect_sum(const Matrix<T>& sat, std::int64_t y0,
                         std::int64_t x0, std::int64_t y1, std::int64_t x1)
{
    SATGPU_EXPECTS(0 <= y0 && y0 <= y1 && y1 < sat.height());
    SATGPU_EXPECTS(0 <= x0 && x0 <= x1 && x1 < sat.width());
    return clamped_rect_sum(sat.flat(), sat.height(), sat.width(), y0, x0,
                            y1, x1);
}

} // namespace satgpu::sat
