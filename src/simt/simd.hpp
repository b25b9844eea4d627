// Portable SIMD for the warp primitives: GCC/Clang generic vectors.
//
// A warp's register row (LaneVec<T>, 32 lanes) is exactly one generic
// vector of 32 T (`__attribute__((vector_size))`), so whole-warp lane
// arithmetic is one vector expression that the compiler splits into
// whatever width the target has.  There is no intrinsics header, no CPUID
// dispatch and no build flag: the same source compiles to SSE2 on a
// baseline x86-64 build and to wider units where the target allows.
//
// Bit-exactness rules every user of this header keeps:
//  * integer lanes compute in the unsigned type of the same width
//    (Arith<T>), so wrapping is defined and signed overflow cannot occur;
//  * float lanes do the same IEEE operation, in the same operand order,
//    as the per-lane form -- vectors never reassociate;
//  * predication is a bitwise blend on a lane mask (never a vector ?:), so
//    a lane that keeps its old value keeps its exact bits (-0.0, NaN
//    payloads);
//  * data crosses between LaneVec storage and vectors only by
//    __builtin_bit_cast or std::memcpy, never through a cast pointer.
#pragma once

#include "simt/dim3.hpp"

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace satgpu::simt::simd {

/// Element types a generic vector can carry: integers other than bool,
/// float and double.
template <typename T>
concept Lane = (std::is_integral_v<T> && !std::is_same_v<T, bool>) ||
               std::is_same_v<T, float> || std::is_same_v<T, double>;

template <typename T, int N>
struct VecOf {
    typedef T type __attribute__((vector_size(N * sizeof(T))));
};

/// N lanes of T as one generic vector (a warp row by default).
template <Lane T, int N = kWarpSize>
using Vec = typename VecOf<T, N>::type;

/// The type lane arithmetic on T runs in: the unsigned type of the same
/// width for integers (defined wrap-around), T itself for floats.
template <typename T>
using Arith = typename std::conditional_t<std::is_integral_v<T>,
                                          std::make_unsigned<T>,
                                          std::type_identity<T>>::type;

/// The unsigned integer as wide as T: the bitwise view blends run in.
template <std::size_t Bytes>
using UintOf = std::conditional_t<
    Bytes == 1, std::uint8_t,
    std::conditional_t<Bytes == 2, std::uint16_t,
                       std::conditional_t<Bytes == 4, std::uint32_t,
                                          std::uint64_t>>>;
template <typename T>
using Bits = UintOf<sizeof(T)>;

/// The vector lane arithmetic on T runs in.
template <typename T>
using ArithVec = Vec<Arith<T>>;

// No function here takes or returns a vector by value (that would make
// its ABI depend on the target's vector width, -Wpsabi): vectors live in
// locals, and values cross function boundaries as 32-lane objects such as
// LaneVec<T>, reinterpreted by __builtin_bit_cast -- the builtin behind
// std::bit_cast, which unlike the library function is no call.

namespace detail {
/// Lane l holds bit l alone: the pattern that spreads a LaneMask (lane 0
/// = LSB) over the lanes of a vector.
inline constexpr std::array<std::uint32_t, kWarpSize> kLaneBits = [] {
    std::array<std::uint32_t, kWarpSize> b{};
    for (std::size_t l = 0; l < b.size(); ++l)
        b[l] = std::uint32_t{1} << l;
    return b;
}();
} // namespace detail

/// Lanes of the 32-lane values x, y (e.g. LaneVec<T>) in mask `m` take x,
/// the others y: a bitwise blend on the lanes' bits.
template <typename L>
[[nodiscard]] inline L blend(std::uint32_t m, const L& x, const L& y) noexcept
{
    using B = Vec<UintOf<sizeof(L) / static_cast<std::size_t>(kWarpSize)>>;
    using U32 = Vec<std::uint32_t>;
    const U32 hit = __builtin_bit_cast(U32, detail::kLaneBits) & (U32{} + m);
    const B k = __builtin_convertvector(hit != U32{}, B);
    return __builtin_bit_cast(L, (__builtin_bit_cast(B, x) & k) |
                                     (__builtin_bit_cast(B, y) & ~k));
}

enum class Cmp { kLess, kGreaterEqual, kEqual };

/// The LaneMask of a lane-wise comparison of the 32-lane values a, b
/// read as E: bit l is set iff a[l] `op` b[l].
template <Cmp op, Lane E, typename L>
[[nodiscard]] inline std::uint32_t compare(const L& a, const L& b) noexcept
{
    using V = Vec<E>;
    using I32 = Vec<std::int32_t>;
    using U32 = Vec<std::uint32_t>;
    const V x = __builtin_bit_cast(V, a), y = __builtin_bit_cast(V, b);
    I32 hit{};
    if constexpr (op == Cmp::kLess)
        hit = __builtin_convertvector(x < y, I32);
    else if constexpr (op == Cmp::kGreaterEqual)
        hit = __builtin_convertvector(x >= y, I32);
    else
        hit = __builtin_convertvector(x == y, I32);
    const U32 bits = __builtin_bit_cast(U32, hit) &
                     __builtin_bit_cast(U32, detail::kLaneBits);
    // OR-fold the 32 lanes in halves.
    const auto b16 =
        __builtin_shufflevector(bits, bits, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                                10, 11, 12, 13, 14, 15) |
        __builtin_shufflevector(bits, bits, 16, 17, 18, 19, 20, 21, 22, 23,
                                24, 25, 26, 27, 28, 29, 30, 31);
    const auto b8 = __builtin_shufflevector(b16, b16, 0, 1, 2, 3, 4, 5, 6, 7) |
                    __builtin_shufflevector(b16, b16, 8, 9, 10, 11, 12, 13,
                                            14, 15);
    const auto b4 = __builtin_shufflevector(b8, b8, 0, 1, 2, 3) |
                    __builtin_shufflevector(b8, b8, 4, 5, 6, 7);
    const auto b2 = __builtin_shufflevector(b4, b4, 0, 1) |
                    __builtin_shufflevector(b4, b4, 2, 3);
    return b2[0] | b2[1];
}

// ---- 32x32 tile transposes ------------------------------------------------
//
// A tile is 32 rows of 32 T at a fixed element stride, addressed as bytes
// so callers can hand over any trivially copyable storage (a RegTile, a
// shared-memory arena).  Both transposes move 4x4 blocks: four unaligned
// 4-lane row loads, two rounds of two-input shuffles, four 4-lane stores.
// The block's rows are named locals so they stay in registers.

/// The four rows of a 4x4 block.
template <Lane T>
struct Block4 {
    Vec<T, 4> r0, r1, r2, r3;
};

template <Lane T>
inline void load_block(const std::byte* p, std::ptrdiff_t stride,
                       Block4<T>& b) noexcept
{
    const std::ptrdiff_t s = stride * static_cast<std::ptrdiff_t>(sizeof(T));
    std::memcpy(&b.r0, p, sizeof b.r0);
    std::memcpy(&b.r1, p + s, sizeof b.r1);
    std::memcpy(&b.r2, p + 2 * s, sizeof b.r2);
    std::memcpy(&b.r3, p + 3 * s, sizeof b.r3);
}

template <Lane T>
inline void store_block(std::byte* p, std::ptrdiff_t stride,
                        const Block4<T>& b) noexcept
{
    const std::ptrdiff_t s = stride * static_cast<std::ptrdiff_t>(sizeof(T));
    std::memcpy(p, &b.r0, sizeof b.r0);
    std::memcpy(p + s, &b.r1, sizeof b.r1);
    std::memcpy(p + 2 * s, &b.r2, sizeof b.r2);
    std::memcpy(p + 3 * s, &b.r3, sizeof b.r3);
}

template <Lane T>
inline void transpose_block(Block4<T>& b) noexcept
{
    const auto t0 = __builtin_shufflevector(b.r0, b.r1, 0, 4, 1, 5);
    const auto t1 = __builtin_shufflevector(b.r0, b.r1, 2, 6, 3, 7);
    const auto t2 = __builtin_shufflevector(b.r2, b.r3, 0, 4, 1, 5);
    const auto t3 = __builtin_shufflevector(b.r2, b.r3, 2, 6, 3, 7);
    b.r0 = __builtin_shufflevector(t0, t2, 0, 1, 4, 5);
    b.r1 = __builtin_shufflevector(t0, t2, 2, 3, 6, 7);
    b.r2 = __builtin_shufflevector(t1, t3, 0, 1, 4, 5);
    b.r3 = __builtin_shufflevector(t1, t3, 2, 3, 6, 7);
}

/// dst(j, l) = src(l, j) for j, l < 32, rows `src_stride` / `dst_stride`
/// elements apart.  The two tiles must not overlap.
template <Lane T>
inline void transpose_tile(const std::byte* src, std::ptrdiff_t src_stride,
                           std::byte* dst, std::ptrdiff_t dst_stride) noexcept
{
    constexpr auto kT = static_cast<std::ptrdiff_t>(sizeof(T));
    for (std::ptrdiff_t i = 0; i < kWarpSize; i += 4)
        for (std::ptrdiff_t j = 0; j < kWarpSize; j += 4) {
            Block4<T> b;
            load_block<T>(src + (i * src_stride + j) * kT, src_stride, b);
            transpose_block<T>(b);
            store_block<T>(dst + (j * dst_stride + i) * kT, dst_stride, b);
        }
}

/// Four rows of a dense 32x32 tile (stride 32), lane-major: lane l of rows
/// [r0, r0 + 4) as one 4-vector.
template <Lane T>
using RowQuad = std::array<Vec<T, 4>, kWarpSize>;

/// q[l] = {tile(r0, l), ..., tile(r0 + 3, l)}: the eight 4x4 blocks of
/// rows [r0, r0 + 4) transposed.
template <Lane T>
inline void load_row_quad(const std::byte* p, int r0, RowQuad<T>& q) noexcept
{
    constexpr std::ptrdiff_t kS = kWarpSize;
    constexpr auto kT = static_cast<std::ptrdiff_t>(sizeof(T));
    for (std::size_t j = 0; j < kWarpSize; j += 4) {
        Block4<T> b;
        load_block<T>(p + (r0 * kS + static_cast<std::ptrdiff_t>(j)) * kT,
                      kS, b);
        transpose_block<T>(b);
        q[j] = b.r0;
        q[j + 1] = b.r1;
        q[j + 2] = b.r2;
        q[j + 3] = b.r3;
    }
}

/// The inverse of load_row_quad for rows r0 + k with k < live; the
/// other rows are left untouched.
template <Lane T>
inline void store_row_quad(std::byte* p, int r0, int live,
                           const RowQuad<T>& q) noexcept
{
    constexpr std::ptrdiff_t kS = kWarpSize;
    constexpr auto kT = static_cast<std::ptrdiff_t>(sizeof(T));
    for (std::size_t j = 0; j < kWarpSize; j += 4) {
        Block4<T> b{q[j], q[j + 1], q[j + 2], q[j + 3]};
        transpose_block<T>(b);
        std::byte* const at =
            p + (r0 * kS + static_cast<std::ptrdiff_t>(j)) * kT;
        if (live >= 4) {
            store_block<T>(at, kS, b);
        } else {
            const Vec<T, 4>* const r[] = {&b.r0, &b.r1, &b.r2};
            for (int k = 0; k < live; ++k)
                std::memcpy(at + k * kS * kT, r[k], sizeof b.r0);
        }
    }
}

/// Transpose a dense 32x32 tile (stride 32) in place: each pair of
/// mirrored 4x4 blocks is loaded whole before either is stored.
template <Lane T>
inline void transpose_tile_in_place(std::byte* p) noexcept
{
    constexpr std::ptrdiff_t kS = kWarpSize;
    constexpr auto kT = static_cast<std::ptrdiff_t>(sizeof(T));
    for (std::ptrdiff_t i = 0; i < kS; i += 4)
        for (std::ptrdiff_t j = i; j < kS; j += 4) {
            std::byte* const pa = p + (i * kS + j) * kT;
            std::byte* const pb = p + (j * kS + i) * kT;
            Block4<T> a, b;
            load_block<T>(pa, kS, a);
            load_block<T>(pb, kS, b);
            transpose_block<T>(a);
            transpose_block<T>(b);
            store_block<T>(pb, kS, a);
            store_block<T>(pa, kS, b);
        }
}

} // namespace satgpu::simt::simd
