// LaneVec<T>: the per-lane register value of one warp.
//
// The simulator executes warps in lockstep (SIMT): a kernel-visible scalar
// variable is modelled as a 32-wide vector holding the value in each lane.
// The paper's register cache -- "T data[32]" per thread, a 32x32 register
// matrix per warp (Sec. IV, Alg. 5 line 1) -- becomes an array of 32
// LaneVec<T> values.
//
// Counting convention: DATA-PATH arithmetic that the paper's performance
// model accounts for must go through the v*() free functions (vadd, vmul,
// vband, vselect, vadd_where), which report active-lane counts to the
// current PerfCounters sink.  Ordinary operators (+, *, %, ...) are provided
// for ADDRESS/INDEX computation and are deliberately uncounted, matching the
// paper's model which counts only the scan data path.
//
// Lane arithmetic, comparisons and casts run as whole-vector operations
// (simt/simd.hpp) in every lowering: the instrumented and native paths
// share them, and only the counting differs.
#pragma once

#include "core/check.hpp"
#include "simt/dim3.hpp"
#include "simt/perf_counters.hpp"
#include "simt/simd.hpp"

#include <array>
#include <bit>
#include <cstdint>
#include <type_traits>

namespace satgpu::simt {

/// One bit per lane; lane 0 is the LSB (CUDA __ballot convention).
using LaneMask = std::uint32_t;
inline constexpr LaneMask kFullMask = 0xffffffffu;

[[nodiscard]] constexpr bool lane_active(LaneMask m, int lane) noexcept
{
    return ((m >> lane) & 1u) != 0;
}

[[nodiscard]] constexpr int active_lane_count(LaneMask m) noexcept
{
    return std::popcount(m);
}

/// Mask of lanes l with first + l < limit: THE range predicate for ragged
/// segment edges (a warp covering elements [first, first+32) of a run of
/// `limit`).  Branch-free, and the single source of truth for every
/// "columns/rows still in range" mask -- sat::cols_in_range and the
/// per-kernel row masks all delegate here so they cannot drift on the
/// 31/32/33 edge cases.  Lane 0 is the LSB, like every LaneMask.
[[nodiscard]] constexpr LaneMask lanes_in_range(std::int64_t first,
                                                std::int64_t limit) noexcept
{
    const std::int64_t n = limit - first;
    if (n <= 0)
        return 0;
    if (n >= kWarpSize)
        return kFullMask;
    return (LaneMask{1} << n) - 1u;
}

template <typename T>
class LaneVec {
public:
    using value_type = T;

    LaneVec() = default;

    [[nodiscard]] static LaneVec broadcast(T v)
    {
        LaneVec r;
        r.v_.fill(v);
        return r;
    }

    /// {0, 1, ..., 31} -- the laneId vector.
    [[nodiscard]] static LaneVec lane_index()
        requires std::is_arithmetic_v<T>
    {
        LaneVec r;
        for (int l = 0; l < kWarpSize; ++l)
            r.v_[static_cast<std::size_t>(l)] = static_cast<T>(l);
        return r;
    }

    [[nodiscard]] T& operator[](int lane)
    {
        SATGPU_EXPECTS(lane >= 0 && lane < kWarpSize);
        return v_[static_cast<std::size_t>(lane)];
    }
    [[nodiscard]] const T& operator[](int lane) const
    {
        SATGPU_EXPECTS(lane >= 0 && lane < kWarpSize);
        return v_[static_cast<std::size_t>(lane)];
    }

    /// Unchecked hot-path access.
    [[nodiscard]] T get(int lane) const noexcept
    {
        return v_[static_cast<std::size_t>(lane)];
    }
    void set(int lane, T v) noexcept
    {
        v_[static_cast<std::size_t>(lane)] = v;
    }

    /// Lane-wise static_cast<U>, as one vector conversion.
    template <typename U>
    [[nodiscard]] LaneVec<U> cast() const
    {
        return __builtin_bit_cast(LaneVec<U>, __builtin_convertvector(
            __builtin_bit_cast(simd::Vec<T>, *this), simd::Vec<U>));
    }

    // ---- Uncounted index/address arithmetic -------------------------------
    // Integer lanes wrap (they compute in the unsigned type).
    friend LaneVec operator+(const LaneVec& a, const LaneVec& b)
    {
        using V = simd::ArithVec<T>;
        return __builtin_bit_cast(LaneVec, __builtin_bit_cast(V, a) +
                                               __builtin_bit_cast(V, b));
    }
    friend LaneVec operator-(const LaneVec& a, const LaneVec& b)
    {
        using V = simd::ArithVec<T>;
        return __builtin_bit_cast(LaneVec, __builtin_bit_cast(V, a) -
                                               __builtin_bit_cast(V, b));
    }
    friend LaneVec operator*(const LaneVec& a, const LaneVec& b)
    {
        using V = simd::ArithVec<T>;
        return __builtin_bit_cast(LaneVec, __builtin_bit_cast(V, a) *
                                               __builtin_bit_cast(V, b));
    }
    friend LaneVec operator+(const LaneVec& a, T s)
    {
        return a + broadcast(s);
    }
    friend LaneVec operator-(const LaneVec& a, T s)
    {
        return a - broadcast(s);
    }
    friend LaneVec operator*(const LaneVec& a, T s)
    {
        return a * broadcast(s);
    }
    friend LaneVec operator*(T s, const LaneVec& a)
    {
        return a * broadcast(s);
    }

    // ---- Lane-wise comparisons to masks -----------------------------------
    [[nodiscard]] friend LaneMask operator<(const LaneVec& a, const LaneVec& b)
    {
        return simd::compare<simd::Cmp::kLess, T>(a, b);
    }
    [[nodiscard]] friend LaneMask operator>=(const LaneVec& a,
                                             const LaneVec& b)
    {
        return simd::compare<simd::Cmp::kGreaterEqual, T>(a, b);
    }
    [[nodiscard]] friend LaneMask operator==(const LaneVec& a,
                                             const LaneVec& b)
    {
        return simd::compare<simd::Cmp::kEqual, T>(a, b);
    }

    template <typename F>
    [[nodiscard]] static LaneVec zip(const LaneVec& a, const LaneVec& b, F f)
    {
        LaneVec r;
        for (int l = 0; l < kWarpSize; ++l)
            r.set(l, f(a.get(l), b.get(l)));
        return r;
    }

private:
    std::array<T, kWarpSize> v_{};
};

/// A warp's 32x32 register matrix (Alg. 5 line 1's "T data[32]").
template <typename T>
using LaneTile = std::array<LaneVec<T>, kWarpSize>;

/// Transpose a register matrix in place: afterwards tile[l] lane j holds
/// what tile[j] lane l held.  Pure data movement, uncounted (the native
/// lowering's change of layout, not a kernel instruction).
template <typename T>
void transpose_lanes(LaneTile<T>& tile) noexcept
{
    static_assert(sizeof(LaneTile<T>) == kWarpSize * kWarpSize * sizeof(T));
    simd::transpose_tile_in_place<T>(
        reinterpret_cast<std::byte*>(tile.data()));
}

namespace detail {
inline void count_adds(std::uint64_t n) noexcept
{
    if (PerfCounters* c = current_counters())
        c->lane_add += n;
}
inline void count_muls(std::uint64_t n) noexcept
{
    if (PerfCounters* c = current_counters())
        c->lane_mul += n;
}
inline void count_bools(std::uint64_t n) noexcept
{
    if (PerfCounters* c = current_counters())
        c->lane_bool += n;
}
inline void count_selects(std::uint64_t n) noexcept
{
    if (PerfCounters* c = current_counters())
        c->lane_select += n;
}

} // namespace detail

// ---- Counted data-path operations (the paper's accounting) ----------------

/// Warp-wide add; all 32 lanes execute.
template <typename T>
[[nodiscard]] LaneVec<T> vadd(const LaneVec<T>& a, const LaneVec<T>& b)
{
    detail::count_adds(kWarpSize);
    return a + b;
}

/// Predicated add: lanes in `m` compute a+b, others keep a.  Counts only
/// active lanes (the paper's N_add accounting for Algs. 3 and 4).
/// Branch-free: every lane adds (integer lanes wrap, so the speculative
/// add on a predicated-off lane is defined), then a bitwise blend keeps a
/// where the mask bit is clear -- the inner step of every warp scan.
template <typename T>
[[nodiscard]] LaneVec<T> vadd_where(LaneMask m, const LaneVec<T>& a,
                                    const LaneVec<T>& b)
{
    detail::count_adds(static_cast<std::uint64_t>(active_lane_count(m)));
    const auto s = a + b;
    // All lanes active: no blend (the serial register scans hit this case
    // every step).
    return m == kFullMask ? s : simd::blend(m, s, a);
}

/// Predicated subtract: lanes in `m` compute a-b, others keep a.  A
/// subtract is an add on the data path, so it shares vadd_where's
/// accounting (the sliding-window update kernel's `-old` term).
template <typename T>
[[nodiscard]] LaneVec<T> vsub_where(LaneMask m, const LaneVec<T>& a,
                                    const LaneVec<T>& b)
{
    detail::count_adds(static_cast<std::uint64_t>(active_lane_count(m)));
    const auto s = a - b;
    return m == kFullMask ? s : simd::blend(m, s, a);
}

template <typename T>
[[nodiscard]] LaneVec<T> vmul(const LaneVec<T>& a, const LaneVec<T>& b)
{
    detail::count_muls(kWarpSize);
    return a * b;
}

/// Counted boolean AND on integer lanes (LF-scan's predicate, Alg. 4 l.4).
template <typename T>
[[nodiscard]] LaneVec<T> vband(const LaneVec<T>& a, const LaneVec<T>& b)
    requires std::is_integral_v<T>
{
    detail::count_bools(kWarpSize);
    using V = simd::ArithVec<T>;
    return __builtin_bit_cast(LaneVec<T>, __builtin_bit_cast(V, a) &
                                              __builtin_bit_cast(V, b));
}

/// Lane-wise select: m ? a : b.
template <typename T>
[[nodiscard]] LaneVec<T> vselect(LaneMask m, const LaneVec<T>& a,
                                 const LaneVec<T>& b)
{
    detail::count_selects(kWarpSize);
    return simd::blend(m, a, b);
}

} // namespace satgpu::simt
