// Native-backend battery (docs/backends.md): the warp primitives' edge
// cases under the UNINSTRUMENTED lowering (no PerfCounters / HazardChecker
// in TLS -- the exact state every native block runs in), bit-identity
// between that lowering and the instrumented one (shared-memory row ops
// included), the block executor's contract, the Runtime's certification
// gate (including refusal of a deliberately broken fixture), and the
// Service's per-backend plan-cache separation.
//
// The primitive tests matter because the fast paths are separate code: a
// shuffle, scan or predicated add that diverges from the instrumented form
// by one bit would silently break the certification contract everywhere.
#include "core/random_fill.hpp"
#include "sat/broken_kernels.hpp"
#include "sat/integral_video.hpp"
#include "sat/runtime.hpp"
#include "sat/service.hpp"
#include "scan/warp_scan.hpp"
#include "simt/native_backend.hpp"
#include "simt/shuffle.hpp"
#include "simt/vote.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <source_location>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <typeinfo>
#include <vector>

namespace sat = satgpu::sat;
namespace scan = satgpu::scan;
namespace simt = satgpu::simt;
using satgpu::Dtype;
using satgpu::DtypePair;
using simt::kWarpSize;
using simt::LaneMask;
using simt::LaneVec;

namespace {

LaneVec<int> iota_vec(int start = 0)
{
    LaneVec<int> v;
    for (int l = 0; l < kWarpSize; ++l)
        v.set(l, start + l);
    return v;
}

LaneVec<float> random_f32_vec(std::uint64_t seed)
{
    // Awkward fractions so any reassociation of the float sums shows up.
    LaneVec<float> v;
    for (int l = 0; l < kWarpSize; ++l)
        v.set(l, static_cast<float>((seed * 31 + static_cast<std::uint64_t>(l) * 2654435761u) % 1000) /
                     7.0f);
    return v;
}

/// Runs `f` with PerfCounters AND a HazardChecker installed -- the fully
/// instrumented slow path -- and returns its result.
template <typename F>
auto instrumented(F&& f)
{
    simt::PerfCounters c;
    simt::CounterScope cs(c);
    simt::HazardChecker hc;
    simt::HazardCheckerScope hs(&hc);
    return f();
}

template <typename T>
void expect_lanes_eq(const LaneVec<T>& a, const LaneVec<T>& b,
                     const char* what)
{
    for (int l = 0; l < kWarpSize; ++l)
        EXPECT_EQ(a.get(l), b.get(l)) << what << " lane " << l;
}

} // namespace

// --------------------------------------------- uninstrumented primitives --

// This binary's test threads carry no TLS instrumentation, so every warp
// primitive below exercises its native-backend fast path.  Assert that
// premise first: if a future harness installs ambient counters, these
// tests would silently test the wrong lowering.
TEST(NativeLowering, TestThreadIsUninstrumented)
{
    EXPECT_EQ(simt::current_counters(), nullptr);
    EXPECT_EQ(simt::current_hazard_checker(), nullptr);
}

TEST(NativeLowering, ShuffleSegmentEdgesAtAllWidths)
{
    const auto v = iota_vec();
    for (const int width : {4, 8, 16, 32}) {
        const auto up = simt::shfl_up(v, 2, width);
        const auto down = simt::shfl_down(v, 2, width);
        const auto xo = simt::shfl_xor(v, width / 2, width);
        const auto bc = simt::shfl(v, width - 1, width);
        const auto wrapped = simt::shfl(v, width + 1, width); // srcLane mod
        for (int l = 0; l < kWarpSize; ++l) {
            EXPECT_EQ(up.get(l), l % width < 2 ? l : l - 2)
                << "up width " << width << " lane " << l;
            EXPECT_EQ(down.get(l), l % width >= width - 2 ? l : l + 2)
                << "down width " << width << " lane " << l;
            EXPECT_EQ(xo.get(l), l ^ (width / 2))
                << "xor width " << width << " lane " << l;
            EXPECT_EQ(bc.get(l), (l / width) * width + width - 1)
                << "shfl width " << width << " lane " << l;
            EXPECT_EQ(wrapped.get(l), (l / width) * width + 1)
                << "shfl-wrap width " << width << " lane " << l;
        }
    }
}

TEST(NativeLowering, ShuffleDeltaBeyondSegmentKeepsOwnValue)
{
    const auto v = iota_vec();
    for (const int width : {4, 8, 16, 32}) {
        const auto up = simt::shfl_up(v, width, width);
        const auto down = simt::shfl_down(v, width, width);
        for (int l = 0; l < kWarpSize; ++l) {
            EXPECT_EQ(up.get(l), l) << "width " << width;
            EXPECT_EQ(down.get(l), l) << "width " << width;
        }
    }
}

// An inactive-source read is deterministic in both lowerings (all 32
// register lanes stay live); the mask only drives hazard REPORTING, which
// is structurally absent here.  The returned values must not depend on it.
TEST(NativeLowering, ShuffleInactiveLaneMasksDoNotPerturbValues)
{
    const auto v = iota_vec(100);
    for (const LaneMask active :
         {LaneMask{0x0000ffffu}, LaneMask{0xaaaaaaaau}, LaneMask{0x1u}}) {
        expect_lanes_eq(simt::shfl_up(v, 1, kWarpSize, active),
                        simt::shfl_up(v, 1), "up/masked");
        expect_lanes_eq(simt::shfl_down(v, 3, kWarpSize, active),
                        simt::shfl_down(v, 3), "down/masked");
        expect_lanes_eq(simt::shfl(v, 5, kWarpSize, active),
                        simt::shfl(v, 5), "bcast/masked");
        expect_lanes_eq(simt::shfl_xor(v, 7, kWarpSize, active),
                        simt::shfl_xor(v, 7), "xor/masked");
    }
}

TEST(NativeLowering, ShufflesMatchInstrumentedLoweringBitExactly)
{
    const auto vi = iota_vec(-16);
    const auto vf = random_f32_vec(9);
    for (const int width : {4, 8, 16, 32}) {
        for (const int d : {0, 1, 2, width - 1, width, width + 1}) {
            const auto fast = simt::shfl_up(vi, d, width);
            const auto slow = instrumented(
                [&] { return simt::shfl_up(vi, d, width); });
            expect_lanes_eq(fast, slow, "up");

            const auto fast_d = simt::shfl_down(vf, d, width);
            const auto slow_d = instrumented(
                [&] { return simt::shfl_down(vf, d, width); });
            expect_lanes_eq(fast_d, slow_d, "down");

            const auto fast_b = simt::shfl(vf, d, width);
            const auto slow_b =
                instrumented([&] { return simt::shfl(vf, d, width); });
            expect_lanes_eq(fast_b, slow_b, "bcast");

            const auto fast_x = simt::shfl_xor(vi, d, width);
            const auto slow_x = instrumented(
                [&] { return simt::shfl_xor(vi, d, width); });
            expect_lanes_eq(fast_x, slow_x, "xor");
        }
    }
}

TEST(NativeLowering, VoteOpsIgnoreInactivePredicateBits)
{
    constexpr LaneMask active = 0x0000ffffu;
    constexpr LaneMask pred = 0xffff0f0fu; // bits outside `active` on purpose
    EXPECT_EQ(simt::ballot(pred, active), pred & active);
    EXPECT_TRUE(simt::any(pred, active));
    EXPECT_FALSE(simt::all(pred, active));
    EXPECT_TRUE(simt::all(0xffffffffu, active));
    EXPECT_FALSE(simt::any(0xffff0000u, active));
    EXPECT_EQ(simt::ballot(0u, active), 0u);
}

TEST(NativeLowering, VaddWhereMaskEdgeCases)
{
    const auto a = random_f32_vec(3);
    const auto b = random_f32_vec(4);
    for (const LaneMask m :
         {LaneMask{0u}, simt::kFullMask, LaneMask{0x55555555u},
          LaneMask{0x80000000u}, LaneMask{0x1u}}) {
        const auto fast = simt::vadd_where(m, a, b);
        const auto slow =
            instrumented([&] { return simt::vadd_where(m, a, b); });
        for (int l = 0; l < kWarpSize; ++l) {
            const float want = simt::lane_active(m, l)
                                   ? a.get(l) + b.get(l)
                                   : a.get(l);
            EXPECT_EQ(fast.get(l), want) << "mask " << m << " lane " << l;
            EXPECT_EQ(fast.get(l), slow.get(l))
                << "mask " << m << " lane " << l;
        }
    }
}

// ------------------------------------------ SIMD lowering of lane ops --
//
// LaneVec arithmetic, comparisons and casts are whole-vector operations
// (simt/simd.hpp).  Each is pinned bit for bit against the per-lane
// definition it replaced and against its instrumented form, on every lane
// type the kernels use, with full, partial and empty masks, integer wrap
// points and the float specials (signed zeros, infinities, NaN,
// subnormals).

namespace {

using satgpu::f32;
using satgpu::f64;
using satgpu::i32;
using satgpu::u32;
using satgpu::u8;
using i64 = std::int64_t;
using u64 = std::uint64_t;

template <typename T>
[[nodiscard]] simt::simd::Bits<T> bits_of(T v)
{
    simt::simd::Bits<T> b{};
    std::memcpy(&b, &v, sizeof v);
    return b;
}

/// Bit-for-bit lane equality: the sign of zero and NaN payloads count.
/// Lanes in `any_nan` only need to agree on being NaN: there both operands
/// of a float add/sub/mul were NaN, and which payload propagates depends
/// on the operand order the compiler picks for a commutative operation
/// (IEEE 754 leaves it unspecified), in the per-lane form as much as in
/// the vector one.
template <typename T>
void expect_lanes_bits_eq(const LaneVec<T>& got, const LaneVec<T>& want,
                          const std::string& what, LaneMask any_nan = 0)
{
    for (int l = 0; l < kWarpSize; ++l) {
        if constexpr (std::is_floating_point_v<T>)
            if (simt::lane_active(any_nan, l)) {
                EXPECT_TRUE(std::isnan(got.get(l)) && std::isnan(want.get(l)))
                    << what << " lane " << l;
                continue;
            }
        EXPECT_EQ(bits_of(got.get(l)), bits_of(want.get(l)))
            << what << " lane " << l;
    }
}

/// The lane-by-lane result of `f` -- the scalar definition of an op.
template <typename T, typename U = T, typename F>
[[nodiscard]] LaneVec<U> per_lane(const LaneVec<T>& a, const LaneVec<T>& b,
                                  F f)
{
    LaneVec<U> r;
    for (int l = 0; l < kWarpSize; ++l)
        r.set(l, f(a.get(l), b.get(l)));
    return r;
}

/// Lanes 0..15 hold T's edge values (rotated by `seed`, so two vectors
/// pair different edges), lanes 16..31 seeded random values: full-range
/// bits for integers, awkward fractions for floats.
template <typename T>
[[nodiscard]] LaneVec<T> edge_vec(std::uint64_t seed)
{
    using L = std::numeric_limits<T>;
    std::vector<T> edges;
    if constexpr (std::is_integral_v<T>)
        edges = {T{0},
                 T{1},
                 L::max(),
                 L::min(),
                 static_cast<T>(L::max() - 1),
                 static_cast<T>(L::min() + 1),
                 static_cast<T>(~T{0}),
                 static_cast<T>(L::max() / 2 + 1)};
    else
        edges = {T{0},          -T{0},          L::infinity(),
                 -L::infinity(), L::quiet_NaN(), -L::quiet_NaN(),
                 L::denorm_min(), -L::denorm_min(), L::min(),
                 L::min() / 2,  L::max(),       -L::max(),
                 T{1},          T{-1}};
    std::mt19937_64 rng(seed);
    LaneVec<T> v;
    for (int l = 0; l < kWarpSize; ++l) {
        if (l < 16) {
            v.set(l, edges[(static_cast<std::size_t>(l) + seed) %
                           edges.size()]);
        } else if constexpr (std::is_integral_v<T>) {
            v.set(l, static_cast<T>(rng()));
        } else {
            v.set(l, static_cast<T>(
                         std::uniform_real_distribution<double>(-3, 3)(rng)));
        }
    }
    return v;
}

/// Integer lanes add, subtract and multiply modulo 2^bits.
template <typename T>
[[nodiscard]] T wrap_add(T x, T y)
{
    if constexpr (std::is_integral_v<T>) {
        using U = std::make_unsigned_t<T>;
        return static_cast<T>(static_cast<U>(static_cast<U>(x) +
                                             static_cast<U>(y)));
    } else {
        return x + y;
    }
}
template <typename T>
[[nodiscard]] T wrap_sub(T x, T y)
{
    if constexpr (std::is_integral_v<T>) {
        using U = std::make_unsigned_t<T>;
        return static_cast<T>(static_cast<U>(static_cast<U>(x) -
                                             static_cast<U>(y)));
    } else {
        return x - y;
    }
}
template <typename T>
[[nodiscard]] T wrap_mul(T x, T y)
{
    if constexpr (std::is_integral_v<T>) {
        using U = std::make_unsigned_t<T>;
        // Widen before multiplying: u8 operands promote to int.
        using W = std::conditional_t<(sizeof(U) < sizeof(unsigned)),
                                     unsigned, U>;
        return static_cast<T>(static_cast<U>(static_cast<W>(x) *
                                             static_cast<W>(y)));
    } else {
        return x * y;
    }
}

[[nodiscard]] LaneMask mask_where(const std::vector<bool>& hit)
{
    LaneMask m = 0;
    for (int l = 0; l < kWarpSize; ++l)
        if (hit[static_cast<std::size_t>(l)])
            m |= LaneMask{1} << l;
    return m;
}

constexpr LaneMask kProbeMasks[] = {0u,          simt::kFullMask,
                                    0x55555555u, 0x80000000u,
                                    0x1u,        0x7fffffffu,
                                    0x0ff00f0fu};

/// Inputs static_cast<U> defines for every lane of T: anything for
/// integer sources and float-to-float; for float-to-integer, in-range
/// values with fractions to truncate.
template <typename T, typename U>
[[nodiscard]] LaneVec<T> cast_input(std::uint64_t seed)
{
    if constexpr (std::is_integral_v<T> || std::is_floating_point_v<U>) {
        return edge_vec<T>(seed);
    } else {
        LaneVec<T> v;
        for (int l = 0; l < kWarpSize; ++l) {
            const double x = std::is_signed_v<U> ? (l - 16) * 3.75
                                                 : l * 3.75 + 0.5;
            v.set(l, static_cast<T>(x));
        }
        return v;
    }
}

template <typename T, typename U>
void expect_cast_exact()
{
    const auto a = cast_input<T, U>(11);
    LaneVec<U> want;
    for (int l = 0; l < kWarpSize; ++l)
        want.set(l, static_cast<U>(a.get(l)));
    const std::string what = std::string("cast ") + typeid(T).name() +
                             " -> " + typeid(U).name();
    expect_lanes_bits_eq(a.template cast<U>(), want, what);
    expect_lanes_bits_eq(
        instrumented([&] { return a.template cast<U>(); }), want,
        what + " (instrumented)");
}

template <typename T>
class SimdLaneOps : public ::testing::Test {};
using SimdLaneTypes = ::testing::Types<u8, i32, u32, f32, i64, u64, f64>;
TYPED_TEST_SUITE(SimdLaneOps, SimdLaneTypes);

} // namespace

TYPED_TEST(SimdLaneOps, ArithmeticMatchesPerLaneDefinitionBitExactly)
{
    using T = TypeParam;
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        const auto a = edge_vec<T>(seed);
        const auto b = edge_vec<T>(seed * 5 + 3);
        LaneMask nan2 = 0; // both operands NaN (see expect_lanes_bits_eq)
        if constexpr (std::is_floating_point_v<T>)
            for (int l = 0; l < kWarpSize; ++l)
                if (std::isnan(a.get(l)) && std::isnan(b.get(l)))
                    nan2 |= LaneMask{1} << l;
        const auto add = per_lane(a, b, wrap_add<T>);
        const auto sub = per_lane(a, b, wrap_sub<T>);
        const auto mul = per_lane(a, b, wrap_mul<T>);
        expect_lanes_bits_eq(a + b, add, "operator+", nan2);
        expect_lanes_bits_eq(a - b, sub, "operator-", nan2);
        expect_lanes_bits_eq(a * b, mul, "operator*", nan2);
        expect_lanes_bits_eq(simt::vadd(a, b), add, "vadd", nan2);
        expect_lanes_bits_eq(simt::vmul(a, b), mul, "vmul", nan2);
        expect_lanes_bits_eq(instrumented([&] { return simt::vadd(a, b); }),
                             add, "vadd (instrumented)", nan2);
        expect_lanes_bits_eq(instrumented([&] { return simt::vmul(a, b); }),
                             mul, "vmul (instrumented)", nan2);
        if constexpr (std::is_integral_v<T>) {
            const auto band = per_lane(
                a, b, [](T x, T y) { return static_cast<T>(x & y); });
            expect_lanes_bits_eq(simt::vband(a, b), band, "vband");
        }
        for (const LaneMask m : kProbeMasks) {
            const auto where = [&](const LaneVec<T>& s,
                                   const LaneVec<T>& keep) {
                LaneVec<T> r;
                for (int l = 0; l < kWarpSize; ++l)
                    r.set(l, simt::lane_active(m, l) ? s.get(l)
                                                     : keep.get(l));
                return r;
            };
            const std::string tag = " mask " + std::to_string(m);
            expect_lanes_bits_eq(simt::vadd_where(m, a, b), where(add, a),
                                 "vadd_where" + tag, nan2 & m);
            expect_lanes_bits_eq(simt::vsub_where(m, a, b), where(sub, a),
                                 "vsub_where" + tag, nan2 & m);
            expect_lanes_bits_eq(simt::vselect(m, a, b), where(a, b),
                                 "vselect" + tag);
            expect_lanes_bits_eq(
                instrumented([&] { return simt::vadd_where(m, a, b); }),
                where(add, a), "vadd_where (instrumented)" + tag, nan2 & m);
            expect_lanes_bits_eq(
                instrumented([&] { return simt::vsub_where(m, a, b); }),
                where(sub, a), "vsub_where (instrumented)" + tag, nan2 & m);
            expect_lanes_bits_eq(
                instrumented([&] { return simt::vselect(m, a, b); }),
                where(a, b), "vselect (instrumented)" + tag);
        }
    }
}

TYPED_TEST(SimdLaneOps, IntegerLanesWrapAtTheTypesLimits)
{
    using T = TypeParam;
    if constexpr (std::is_integral_v<T>) {
        using L = std::numeric_limits<T>;
        const auto max = LaneVec<T>::broadcast(L::max());
        const auto min = LaneVec<T>::broadcast(L::min());
        const auto one = LaneVec<T>::broadcast(T{1});
        expect_lanes_bits_eq(simt::vadd(max, one), min, "max + 1");
        expect_lanes_bits_eq(simt::vadd_where(0x0000ffffu, max, one),
                             simt::vselect(0x0000ffffu, min, max),
                             "partial max + 1");
        expect_lanes_bits_eq(simt::vsub_where(simt::kFullMask, min, one),
                             max, "min - 1");
    }
}

TYPED_TEST(SimdLaneOps, ComparisonsMatchPerLaneDefinition)
{
    using T = TypeParam;
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        const auto a = edge_vec<T>(seed);
        // Every third lane equal, so == and the ties of < / >= show.
        auto b = edge_vec<T>(seed + 7);
        for (int l = 0; l < kWarpSize; l += 3)
            b.set(l, a.get(l));
        std::vector<bool> lt, ge, eq;
        for (int l = 0; l < kWarpSize; ++l) {
            lt.push_back(a.get(l) < b.get(l));
            ge.push_back(a.get(l) >= b.get(l));
            eq.push_back(a.get(l) == b.get(l));
        }
        EXPECT_EQ(a < b, mask_where(lt)) << "seed " << seed;
        EXPECT_EQ(a >= b, mask_where(ge)) << "seed " << seed;
        EXPECT_EQ(a == b, mask_where(eq)) << "seed " << seed;
    }
}

TYPED_TEST(SimdLaneOps, CastsMatchStaticCastBitExactly)
{
    using T = TypeParam;
    expect_cast_exact<T, u8>();
    expect_cast_exact<T, i32>();
    expect_cast_exact<T, u32>();
    expect_cast_exact<T, f32>();
    expect_cast_exact<T, i64>();
    expect_cast_exact<T, u64>();
    expect_cast_exact<T, f64>();
}

// The 31/32/33 segment edges: a warp covering elements [first, first+32)
// of a run whose length is one less than, exactly, and one more than the
// warp width.  lanes_in_range is the single source of truth every kernel
// mask delegates to.
TEST(NativeLowering, SegmentEdgeMasks31_32_33)
{
    EXPECT_EQ(simt::lanes_in_range(0, 31), 0x7fffffffu);
    EXPECT_EQ(simt::lanes_in_range(0, 32), simt::kFullMask);
    EXPECT_EQ(simt::lanes_in_range(0, 33), simt::kFullMask);
    EXPECT_EQ(simt::lanes_in_range(32, 33), 0x1u);
    EXPECT_EQ(simt::lanes_in_range(32, 31), 0u);
    EXPECT_EQ(simt::lanes_in_range(1, 33), simt::kFullMask);
}

TEST(NativeLowering, ContiguousRowIoHonorsSegmentEdgeMasks)
{
    for (const std::int64_t limit : {31, 32, 33}) {
        simt::DeviceBuffer<int> buf(64, /*fill=*/-1);
        const LaneMask m = simt::lanes_in_range(0, limit);

        simt::DeviceBuffer<int> src(64);
        for (std::int64_t i = 0; i < 64; ++i)
            src.host()[static_cast<std::size_t>(i)] =
                static_cast<int>(1000 + i);

        // Masked load: out-of-range lanes read zero.
        const auto r = src.load_row(0, m);
        for (int l = 0; l < kWarpSize; ++l)
            EXPECT_EQ(r.get(l), l < limit ? 1000 + l : 0)
                << "limit " << limit << " lane " << l;

        // Masked store: out-of-range elements stay untouched.
        buf.store_row(0, r, m);
        for (int l = 0; l < kWarpSize; ++l)
            EXPECT_EQ(buf.host()[static_cast<std::size_t>(l)],
                      l < limit ? 1000 + l : -1)
                << "limit " << limit << " lane " << l;

        // Contiguous row ops match the general gather/scatter lowering.
        const auto gather = src.load(
            LaneVec<std::int64_t>::lane_index() + std::int64_t{8}, m);
        expect_lanes_eq(src.load_row(8, m), gather, "row-vs-gather");
    }
}

TEST(NativeLowering, SegmentLoadMatchesItsLoadRowChunks)
{
    // load_segment moves [base, base + n) like the load_row chunk sequence
    // (32 lanes, the last chunk masked): same values either way, and when
    // instrumented, the same counted loads.
    simt::DeviceBuffer<int> src(200);
    for (std::int64_t i = 0; i < 200; ++i)
        src.host()[static_cast<std::size_t>(i)] = static_cast<int>(7 * i);
    for (const std::int64_t n : {0, 1, 31, 32, 33, 41, 64, 70}) {
        const std::int64_t base = 200 - n - 3;
        std::vector<int> native(static_cast<std::size_t>(n), -1);
        src.load_segment(base, native);

        simt::PerfCounters seg, rows;
        std::vector<int> instrumented(static_cast<std::size_t>(n), -1);
        {
            const simt::CounterScope scope(seg);
            src.load_segment(base, instrumented);
        }
        {
            const simt::CounterScope scope(rows);
            for (std::int64_t b = 0; b < n; b += kWarpSize)
                (void)src.load_row(base + b, simt::lanes_in_range(b, n));
        }
        for (std::int64_t i = 0; i < n; ++i) {
            const auto k = static_cast<std::size_t>(i);
            EXPECT_EQ(native[k], 7 * (base + i)) << "n " << n;
            EXPECT_EQ(instrumented[k], native[k]) << "n " << n;
        }
        EXPECT_EQ(seg.gmem_ld_req, rows.gmem_ld_req) << "n " << n;
        EXPECT_EQ(seg.gmem_ld_sectors, rows.gmem_ld_sectors) << "n " << n;
        EXPECT_EQ(seg.gmem_bytes_ld, rows.gmem_bytes_ld) << "n " << n;
    }
}

TEST(NativeLoweringDeathTest, SegmentLoadStillBoundsChecksOnFastPath)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const simt::DeviceBuffer<int> src(64);
    std::vector<int> dst(10);
    EXPECT_DEATH(src.load_segment(55, dst), "gmem load out of bounds");
    EXPECT_DEATH(src.load_segment(-1, dst), "gmem load out of bounds");
}

// ------------------------------------------------ shared-memory row ops --

namespace {

constexpr int kTileElems = 32 * 33;

/// A 32x33 int tile whose element i holds 5000 + i.
simt::SmemView<int> filled_tile(simt::SharedMemory& smem)
{
    auto v = smem.alloc<int>("tile", kTileElems);
    for (std::int64_t r = 0; r < kTileElems; r += kWarpSize)
        v.store(LaneVec<std::int64_t>::lane_index() + r,
                iota_vec(5000 + static_cast<int>(r)),
                simt::lanes_in_range(r, kTileElems));
    return v;
}

/// The BRLT traffic pattern once through the row ops and once through the
/// per-lane ops they claim to equal, at one shared call site so hazard
/// records and profiler sites can be compared field for field.  Warp 1
/// reads a column before anything is written (uninit reads), warp 0
/// stores rows, warp 1 reads columns back (RAW) and overwrites a row
/// (WAW).  Returns everything the loads saw.
std::vector<int> brlt_traffic(simt::SmemView<int> v, std::int64_t stride,
                              bool row_ops, std::source_location site)
{
    const auto lane = LaneVec<std::int64_t>::lane_index();
    std::vector<int> seen;
    const auto keep = [&](const LaneVec<int>& r) {
        for (int l = 0; l < kWarpSize; ++l)
            seen.push_back(r.get(l));
    };
    simt::HazardChecker* const hc = simt::current_hazard_checker();
    const auto as_warp = [&](int w) {
        if (hc)
            hc->set_active_warp(w);
    };
    as_warp(1);
    keep(row_ops ? v.load_strided(3, stride, simt::kFullMask, site)
                 : v.load(lane * stride + std::int64_t{3}, simt::kFullMask,
                          site));
    as_warp(0);
    for (int j = 0; j < kWarpSize; ++j) {
        const std::int64_t first = j * stride;
        const auto val = iota_vec(100 * j);
        if (row_ops)
            v.store_row(first, val, simt::kFullMask, site);
        else
            v.store(lane + first, val, simt::kFullMask, site);
    }
    as_warp(1);
    for (int j = 0; j < kWarpSize; ++j) {
        keep(row_ops ? v.load_strided(j, stride, simt::kFullMask, site)
                     : v.load(lane * stride + std::int64_t{j},
                              simt::kFullMask, site));
        keep(row_ops ? v.load_row(j * stride, simt::kFullMask, site)
                     : v.load(lane + std::int64_t{j} * stride,
                              simt::kFullMask, site));
    }
    if (row_ops)
        v.store_row(stride, iota_vec(-7), simt::kFullMask, site);
    else
        v.store(lane + stride, iota_vec(-7), simt::kFullMask, site);
    as_warp(-1);
    return seen;
}

void expect_same_hazards(const simt::HazardReport& a,
                         const simt::HazardReport& b)
{
    ASSERT_EQ(a.hazards.size(), b.hazards.size());
    for (std::size_t i = 0; i < a.hazards.size(); ++i) {
        const simt::Hazard& x = a.hazards[i];
        const simt::Hazard& y = b.hazards[i];
        EXPECT_EQ(x.kind, y.kind);
        EXPECT_EQ(x.site, y.site);
        EXPECT_EQ(x.other_site, y.other_site);
        EXPECT_EQ(x.note, y.note);
        EXPECT_EQ(x.count, y.count);
        EXPECT_EQ(x.first_block, y.first_block);
        EXPECT_EQ(x.detail, y.detail);
        EXPECT_EQ(x.warp, y.warp);
        EXPECT_EQ(x.other_warp, y.other_warp);
    }
}

} // namespace

TEST(NativeLowering, SmemRowOpsMatchPerLaneOpsOnFastPath)
{
    simt::SharedMemory smem(8 * 1024);
    const auto v = filled_tile(smem);
    const auto lane = LaneVec<std::int64_t>::lane_index();
    for (const std::int64_t first : {0, 1, 33, 500, kTileElems - 32}) {
        expect_lanes_eq(v.load_row(first), v.load(lane + first),
                        "load_row");
    }
    for (const std::int64_t stride : {0, 1, 32, 33}) {
        for (const std::int64_t first : {0, 5, 32}) {
            expect_lanes_eq(v.load_strided(first, stride),
                            v.load(lane * stride + first), "load_strided");
        }
    }

    simt::SharedMemory a(8 * 1024), b(8 * 1024);
    auto va = filled_tile(a);
    auto vb = filled_tile(b);
    for (const std::int64_t first : {0, 7, 33, kTileElems - 32}) {
        va.store_row(first, iota_vec(-static_cast<int>(first)));
        vb.store(lane + first, iota_vec(-static_cast<int>(first)));
    }
    for (std::int64_t r = 0; r + kWarpSize <= kTileElems; r += kWarpSize)
        expect_lanes_eq(va.load_row(r), vb.load_row(r), "store_row");
}

TEST(NativeLowering, SmemRowOpsMatchPerLaneCountersAndHazards)
{
    // Stride 33 is BRLT's conflict-free padding, 32 its 32-way-conflicted
    // ablation: the delegated path must report both exactly.
    for (const std::int64_t stride : {33, 32}) {
        const auto site = std::source_location::current();
        const auto run = [&](bool row_ops) {
            simt::PerfCounters c;
            simt::HazardChecker hc;
            std::vector<int> seen;
            {
                simt::CounterScope cs(c);
                simt::HazardCheckerScope hs(&hc);
                hc.begin_block(0);
                simt::SharedMemory smem(8 * 1024);
                seen = brlt_traffic(smem.alloc<int>("tile", kTileElems),
                                    stride, row_ops, site);
                hc.end_block();
            }
            return std::tuple{c, hc.build_report(), seen};
        };
        const auto [c_row, h_row, seen_row] = run(true);
        const auto [c_lane, h_lane, seen_lane] = run(false);
        EXPECT_EQ(seen_row, seen_lane) << "stride " << stride;
        EXPECT_TRUE(c_row == c_lane) << "stride " << stride;
        EXPECT_GT(c_row.smem_ld_req, 0u);
        EXPECT_EQ(c_row.smem_ld_trans > c_row.smem_ld_req, stride == 32);
        EXPECT_FALSE(h_row.clean());
        expect_same_hazards(h_row, h_lane);

        // The fast path moves the same data.
        simt::SharedMemory smem(8 * 1024);
        EXPECT_EQ(brlt_traffic(smem.alloc<int>("tile", kTileElems), stride,
                               /*row_ops=*/true, site),
                  seen_lane);
    }
}

TEST(NativeLowering, SmemRowOpsWithPartialMaskTakePerLanePath)
{
    simt::SharedMemory smem(8 * 1024);
    const auto v = filled_tile(smem);
    const auto lane = LaneVec<std::int64_t>::lane_index();
    for (const int limit : {0, 1, 31}) {
        const LaneMask m = simt::lanes_in_range(0, limit);
        // An inactive lane may point past the tile: only active lanes are
        // bounds checked, exactly as in load()/store().
        const std::int64_t first = kTileElems - limit;
        const auto r = v.load_row(first, m);
        expect_lanes_eq(r, v.load(lane + first, m), "masked load_row");
        for (int l = limit; l < kWarpSize; ++l)
            EXPECT_EQ(r.get(l), 0);
        expect_lanes_eq(v.load_strided(first, 1, m),
                        v.load(lane + first, m), "masked load_strided");
    }

    // Masked counts are the per-lane ones (active lanes only).
    simt::PerfCounters c_row, c_lane;
    const LaneMask m = simt::lanes_in_range(0, 5);
    {
        simt::CounterScope cs(c_row);
        simt::SharedMemory s(8 * 1024);
        auto t = s.alloc<int>("tile", kTileElems);
        t.store_row(10, iota_vec(), m);
        (void)t.load_strided(10, 33, m);
    }
    {
        simt::CounterScope cs(c_lane);
        simt::SharedMemory s(8 * 1024);
        auto t = s.alloc<int>("tile", kTileElems);
        t.store(lane + std::int64_t{10}, iota_vec(), m);
        (void)t.load(lane * std::int64_t{33} + std::int64_t{10}, m);
    }
    EXPECT_TRUE(c_row == c_lane);
    EXPECT_EQ(c_row.smem_bytes_st, 5 * sizeof(int));
}

TEST(NativeLoweringDeathTest, SmemRowOpsStillBoundsCheckOnFastPath)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    simt::SharedMemory smem(8 * 1024);
    auto v = smem.alloc<int>("tile", kTileElems);
    EXPECT_DEATH(v.store_row(kTileElems - 31, iota_vec()),
                 "smem store out of bounds");
    EXPECT_DEATH(v.store_row(-1, iota_vec()), "smem store out of bounds");
    EXPECT_DEATH((void)v.load_row(kTileElems - 31),
                 "smem load out of bounds");
    EXPECT_DEATH((void)v.load_strided(2, 34), "smem load out of bounds");
    EXPECT_DEATH((void)v.load_strided(-1, 1), "smem load out of bounds");
}

TEST(NativeLoweringDeathTest, OnDemandArenaStillEnforcesCapacity)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    simt::SharedMemory smem(1024);
    EXPECT_EQ(smem.bytes_used(), 0);
    (void)smem.alloc<int>("small", 8); // grows the arena to 32 bytes
    EXPECT_DEATH((void)smem.alloc<double>("big", 127), "capacity");
    (void)smem.alloc<double>("fits", 124); // 32 + 992 = 1024 exactly
    EXPECT_EQ(smem.bytes_used(), 1024);
}

TEST(NativeLowering, ResetArenaReadsZeroAgain)
{
    simt::SharedMemory smem(8 * 1024);
    auto a = smem.alloc<int>("a", 100);
    for (std::int64_t i = 0; i + kWarpSize <= 100; i += kWarpSize)
        a.store_row(i, iota_vec(1));
    smem.reset();
    EXPECT_EQ(smem.bytes_used(), 0);
    // A different layout over the dirtied bytes: all zero, and a name the
    // previous block declared with another type is free again.
    (void)smem.alloc<char>("pad", 3);
    auto b = smem.alloc<double>("a", 64);
    for (std::int64_t i = 0; i < 64; i += kWarpSize)
        expect_lanes_eq(b.load_row(i), LaneVec<double>{}, "after reset");
}

// ----------------------------------------------------------- warp scans --

TEST(NativeLowering, AllWarpScansMatchInstrumentedBitExactly)
{
    using scan::WarpScanKind;
    for (const WarpScanKind kind :
         {WarpScanKind::kKoggeStone, WarpScanKind::kLadnerFischer,
          WarpScanKind::kBrentKung, WarpScanKind::kHanCarlson}) {
        const auto vf = random_f32_vec(17);
        const auto fast = scan::warp_inclusive_scan(kind, vf);
        const auto slow = instrumented(
            [&] { return scan::warp_inclusive_scan(kind, vf); });
        expect_lanes_eq(fast, slow, scan::to_string(kind).data());

        // And the scan is actually a scan.
        const auto vi = iota_vec(1);
        const auto s = scan::warp_inclusive_scan(kind, vi);
        int acc = 0;
        for (int l = 0; l < kWarpSize; ++l) {
            acc += l + 1;
            EXPECT_EQ(s.get(l), acc)
                << scan::to_string(kind) << " lane " << l;
        }
    }
}

// --------------------------------------- tile transpose and tile scans --

namespace {

/// A 32x32 register matrix of seeded values: full-range bits for integer
/// lanes; for float lanes real values in [-1, 1) with -0.0 injected (row 3
/// is all -0.0, every 5th element elsewhere), so sums are inexact and any
/// reassociation or zero-filled shift would show.
template <typename T>
[[nodiscard]] simt::LaneTile<T> seeded_tile(std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    simt::LaneTile<T> t{};
    for (int j = 0; j < kWarpSize; ++j)
        for (int l = 0; l < kWarpSize; ++l) {
            T v{};
            if constexpr (std::is_integral_v<T>)
                v = static_cast<T>(rng());
            else if (j == 3 || (j * kWarpSize + l) % 5 == 0)
                v = -T{0};
            else
                v = static_cast<T>(
                    std::uniform_real_distribution<double>(-1, 1)(rng));
            t[static_cast<std::size_t>(j)].set(l, v);
        }
    return t;
}

template <typename T>
void expect_tiles_bits_eq(const simt::LaneTile<T>& got,
                          const simt::LaneTile<T>& want,
                          const std::string& what)
{
    for (int j = 0; j < kWarpSize; ++j)
        expect_lanes_bits_eq(got[static_cast<std::size_t>(j)],
                             want[static_cast<std::size_t>(j)],
                             what + " row " + std::to_string(j));
}

constexpr scan::WarpScanKind kAllScanKinds[] = {
    scan::WarpScanKind::kKoggeStone, scan::WarpScanKind::kLadnerFischer,
    scan::WarpScanKind::kBrentKung, scan::WarpScanKind::kHanCarlson};

template <typename T>
class SimdTile : public ::testing::Test {};
using SimdTileTypes = ::testing::Types<i32, u32, f32, i64, u64, f64>;
TYPED_TEST_SUITE(SimdTile, SimdTileTypes);

} // namespace

TYPED_TEST(SimdTile, TransposeLanesIsTheTranspose)
{
    using T = TypeParam;
    const auto orig = seeded_tile<T>(5);
    auto t = orig;
    simt::transpose_lanes(t);
    for (int j = 0; j < kWarpSize; ++j)
        for (int l = 0; l < kWarpSize; ++l)
            EXPECT_EQ(bits_of(t[static_cast<std::size_t>(l)].get(j)),
                      bits_of(orig[static_cast<std::size_t>(j)].get(l)))
                << j << "," << l;
    simt::transpose_lanes(t);
    expect_tiles_bits_eq(t, orig, "transpose twice");
}

TYPED_TEST(SimdTile, SmemTransposedLoadIsItsStridedLoads)
{
    using T = TypeParam;
    const auto src = seeded_tile<T>(9);
    for (const std::int64_t stride : {32, 33}) {
        for (const std::int64_t first : {0, 3}) {
            simt::SharedMemory smem(64 * 1024);
            auto v = smem.alloc<T>("tile", first + 32 * stride + 8);
            for (int j = 0; j < kWarpSize; ++j)
                v.store_row(first + j * stride,
                            src[static_cast<std::size_t>(j)]);
            simt::LaneTile<T> fast{}, slow{};
            v.load_transposed(first, stride, fast);
            for (int j = 0; j < kWarpSize; ++j)
                slow[static_cast<std::size_t>(j)] =
                    v.load_strided(first + j, stride);
            const std::string what = "stride " + std::to_string(stride) +
                                     " first " + std::to_string(first);
            expect_tiles_bits_eq(fast, slow, what);

            // Instrumented, the tile read IS the 32 strided loads.
            simt::PerfCounters c_tile, c_rows;
            {
                simt::CounterScope cs(c_tile);
                simt::LaneTile<T> t{};
                v.load_transposed(first, stride, t);
                expect_tiles_bits_eq(t, slow, what + " (instrumented)");
            }
            {
                simt::CounterScope cs(c_rows);
                for (int j = 0; j < kWarpSize; ++j)
                    (void)v.load_strided(first + j, stride);
            }
            EXPECT_TRUE(c_tile == c_rows) << what;
        }
    }
}

TYPED_TEST(SimdTile, TileScanMatchesPerRowScansBitExactly)
{
    using T = TypeParam;
    for (const auto kind : kAllScanKinds) {
        const std::string what(scan::to_string(kind));
        const auto src = seeded_tile<T>(21);
        auto tile = src;
        scan::warp_inclusive_scan_tile(kind, tile);
        simt::LaneTile<T> rows{};
        for (int j = 0; j < kWarpSize; ++j)
            rows[static_cast<std::size_t>(j)] = scan::warp_inclusive_scan(
                kind, src[static_cast<std::size_t>(j)]);
        expect_tiles_bits_eq(tile, rows, what);
        auto checked = src;
        instrumented([&] {
            scan::warp_inclusive_scan_tile(kind, checked);
            return 0;
        });
        expect_tiles_bits_eq(checked, rows, what + " (instrumented)");
        if constexpr (std::is_floating_point_v<T>) {
            // -0.0 + -0.0 = -0.0 on every lane of the all -0.0 row; a
            // zero-filled shift would have produced +0.0 somewhere.
            for (int l = 0; l < kWarpSize; ++l)
                EXPECT_TRUE(std::signbit(tile[3].get(l)) &&
                            tile[3].get(l) == T{0})
                    << what << " lane " << l;
        }
    }
}

TYPED_TEST(SimdTile, InstrumentedTileScanCountsLikeItsRowScans)
{
    using T = TypeParam;
    const auto src = seeded_tile<T>(33);
    for (const auto kind : kAllScanKinds)
        for (const int rows : {kWarpSize, 5}) {
            simt::PerfCounters c_tile, c_rows;
            {
                simt::CounterScope cs(c_tile);
                auto t = src;
                scan::warp_inclusive_scan_tile(kind, t, rows);
            }
            {
                simt::CounterScope cs(c_rows);
                for (int j = 0; j < rows; ++j)
                    (void)scan::warp_inclusive_scan(
                        kind, src[static_cast<std::size_t>(j)]);
            }
            EXPECT_TRUE(c_tile == c_rows)
                << scan::to_string(kind) << " rows " << rows;
            EXPECT_GT(c_tile.lane_add, 0u);
        }
}

// ------------------------------------------------------ block executor --

namespace {

/// True iff no instrumentation of any kind is installed on this thread.
bool thread_uninstrumented()
{
    return simt::current_counters() == nullptr &&
           simt::current_hazard_checker() == nullptr &&
           simt::current_profiler() == nullptr &&
           simt::current_block().linear < 0;
}

/// Native launch over `blocks` one-warp blocks; counts the blocks that ran
/// with any instrumentation visible.
int native_blocks_instrumented(simt::Engine& eng, std::int64_t blocks)
{
    std::atomic<int> bad{0};
    (void)simt::native_launch(
        eng, {"tls_probe", 8, 0}, {{blocks, 1, 1}, {kWarpSize, 1, 1}},
        [&](simt::NativeBlockCtx&) {
            if (!thread_uninstrumented())
                bad.fetch_add(1);
        });
    return bad.load();
}

} // namespace

TEST(NativeExecutor, BlocksSeeNoInstrumentationFromTheLaunchingThread)
{
    simt::PerfCounters c;
    simt::CounterScope cs(c);
    simt::HazardChecker hc;
    simt::HazardCheckerScope hs(&hc);
    simt::Profiler prof;
    simt::ProfilerScope ps(&prof);
    // One thread: every block runs on the caller; two: the caller shares
    // them with a worker thread.
    for (const int threads : {1, 2}) {
        simt::Engine eng({.num_threads = threads});
        EXPECT_EQ(native_blocks_instrumented(eng, 16), 0) << threads;
    }
    EXPECT_TRUE(c == simt::PerfCounters{}); // nothing reached the caller
    // The caller's sinks were hidden for the launch, not removed.
    EXPECT_EQ(simt::current_counters(), &c);
    EXPECT_EQ(simt::current_hazard_checker(), &hc);
    EXPECT_EQ(simt::current_profiler(), &prof);
}

TEST(NativeExecutor, BlocksSeeNoInstrumentationAfterCheckedProfiledSimLaunch)
{
    // The simulator's parallel branch installs counter, profiler and
    // checker scopes on the very workers the native launch reuses.
    simt::Engine eng({.num_threads = 3, .profile = true, .check = true});
    const auto stats = eng.launch(
        {"sim_first", 8, 128}, {{12, 1, 1}, {2 * kWarpSize, 1, 1}},
        [](simt::WarpCtx& w) -> simt::KernelTask {
            auto sm = w.smem_alloc<int>("t", 2 * kWarpSize);
            sm.store_row(std::int64_t{w.warp_id()} * kWarpSize, iota_vec());
            co_await w.sync();
            (void)sm.load_row(std::int64_t{1 - w.warp_id()} * kWarpSize);
        });
    ASSERT_NE(stats.profile, nullptr);
    ASSERT_NE(stats.hazards, nullptr);
    EXPECT_TRUE(stats.hazards->clean());
    EXPECT_GT(stats.counters.smem_st_req, 0u);
    EXPECT_EQ(native_blocks_instrumented(eng, 24), 0);
}

TEST(NativeExecutor, FaultRethrowsLowestBlockAndEngineRecovers)
{
    simt::Engine eng({.num_threads = 3});
    const simt::LaunchConfig cfg{{8, 4, 1}, {2 * kWarpSize, 1, 1}};
    const auto linear = [](simt::Dim3 b) { return b.y * 8 + b.x; };
    try {
        (void)simt::native_launch(
            eng, {"faulty", 8, 0}, cfg, [&](simt::NativeBlockCtx& blk) {
                auto sm = blk.warp(0).smem_alloc<int>("dirty", kWarpSize);
                sm.store_row(0, iota_vec(1));
                const std::int64_t lin = linear(blk.block_idx());
                if (lin == 29 || lin == 11 || lin == 17)
                    throw std::runtime_error("boom " + std::to_string(lin));
            });
        FAIL() << "expected BlockFault";
    } catch (const simt::BlockFault& f) {
        EXPECT_EQ(f.block_idx.x, 3);
        EXPECT_EQ(f.block_idx.y, 1);
        EXPECT_EQ(f.kernel_name, "faulty");
        EXPECT_NE(std::string(f.what()).find("boom 11"), std::string::npos);
    }

    // Every worker still serves, and every block starts from zeroed smem.
    std::atomic<int> ran{0}, dirty{0};
    const auto stats = simt::native_launch(
        eng, {"after", 8, 0}, cfg, [&](simt::NativeBlockCtx& blk) {
            auto sm = blk.warp(0).smem_alloc<int>("dirty", kWarpSize);
            if ((sm.load_row(0) == LaneVec<int>{}) != simt::kFullMask)
                dirty.fetch_add(1);
            ran.fetch_add(1);
        });
    EXPECT_EQ(ran.load(), 32);
    EXPECT_EQ(dirty.load(), 0);
    EXPECT_EQ(stats.counters.blocks, 32u);
    EXPECT_EQ(stats.smem_used_bytes, kWarpSize * 4);
}

TEST(NativeExecutor, ReusedWorkerArenaIsZeroedPerBlock)
{
    // One worker: every block reuses the previous block's context.  Each
    // block declares a different layout, checks it reads zero, then
    // dirties all of it.
    simt::Engine eng({.num_threads = 1});
    std::atomic<int> nonzero{0};
    std::int64_t peak = 0;
    for (int launch = 0; launch < 2; ++launch) {
        const auto stats = simt::native_launch(
            eng, {"dirty", 8, 0}, {{6, 1, 1}, {kWarpSize, 1, 1}},
            [&](simt::NativeBlockCtx& blk) {
                auto& w = blk.warp(0);
                const auto b = blk.block_idx().x;
                if (b % 2 == 1)
                    (void)w.smem_alloc<char>("skew", b);
                auto ints = w.smem_alloc<int>("ints", 32 * (b + 1));
                auto dbls = w.smem_alloc<double>("dbls", 32 * (6 - b));
                for (std::int64_t i = 0; i < ints.size(); i += kWarpSize) {
                    if ((ints.load_row(i) == LaneVec<int>{}) !=
                        simt::kFullMask)
                        nonzero.fetch_add(1);
                    ints.store_row(i, iota_vec(7));
                }
                for (std::int64_t i = 0; i < dbls.size(); i += kWarpSize) {
                    if ((dbls.load_row(i) == LaneVec<double>{}) !=
                        simt::kFullMask)
                        nonzero.fetch_add(1);
                    dbls.store_row(i, LaneVec<double>::broadcast(2.5));
                }
            });
        peak = std::max(peak, stats.smem_used_bytes);
    }
    EXPECT_EQ(nonzero.load(), 0);
    EXPECT_GT(peak, 0);
}

TEST(NativeExecutor, ConcurrentRuntimesStayBitExact)
{
    // The Service worker shape: each thread owns a Runtime (and so an
    // Engine and its executor) and launches native plans concurrently.
    const DtypePair pair{Dtype::u8_, Dtype::u32_};
    const sat::PlanRequest req{.height = 130,
                               .width = 97,
                               .dtypes = pair,
                               .algorithm = sat::Algorithm::kBrltScanRow,
                               .backend = sat::Backend::kNative};
    std::vector<sat::AnyMatrix> images;
    std::vector<sat::AnyMatrix> want;
    {
        sat::Runtime ref({.record_history = false, .num_threads = 1});
        auto sim_req = req;
        sim_req.backend = sat::Backend::kSim;
        const auto sim = ref.plan(sim_req);
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            images.push_back(sat::AnyMatrix::random(pair.in, 130, 97, seed));
            want.push_back(sim.execute(images.back()).table);
        }
    }
    std::atomic<int> mismatches{0}, not_native{0};
    const auto client = [&](int threads) {
        sat::Runtime rt({.record_history = false, .num_threads = threads});
        const auto plan = rt.plan(req);
        if (plan.backend() != sat::Backend::kNative)
            not_native.fetch_add(1);
        for (int round = 0; round < 6; ++round)
            for (std::size_t i = 0; i < images.size(); ++i)
                if (!(plan.execute(images[i]).table == want[i]))
                    mismatches.fetch_add(1);
    };
    std::thread a(client, 2);
    std::thread b(client, 3);
    a.join();
    b.join();
    EXPECT_EQ(not_native.load(), 0);
    EXPECT_EQ(mismatches.load(), 0);
}

// ------------------------------------------------- runtime certification --

namespace {

constexpr sat::Algorithm kNativeAlgos[] = {sat::Algorithm::kBrltScanRow,
                                           sat::Algorithm::kScanRowBrlt,
                                           sat::Algorithm::kScanRowColumn};

} // namespace

TEST(NativeBackend, BitExactWithSimulatorOnRaggedShapes)
{
    sat::Runtime rt({.record_history = false});
    const struct {
        std::int64_t h, w;
    } shapes[] = {{33, 17}, {64, 31}, {130, 97}};
    const DtypePair pairs[] = {{Dtype::u8_, Dtype::u32_},
                               {Dtype::f32_, Dtype::f32_}};
    for (const auto& pair : pairs)
        for (const auto algo : kNativeAlgos)
            for (const auto& s : shapes) {
                const auto image =
                    sat::AnyMatrix::random(pair.in, s.h, s.w, /*seed=*/7);
                const auto sim = rt.plan({.height = s.h,
                                          .width = s.w,
                                          .dtypes = pair,
                                          .algorithm = algo});
                const auto nat = rt.plan({.height = s.h,
                                          .width = s.w,
                                          .dtypes = pair,
                                          .algorithm = algo,
                                          .backend = sat::Backend::kNative});
                ASSERT_EQ(nat.backend(), sat::Backend::kNative)
                    << sat::to_string(algo);
                EXPECT_TRUE(nat.certified());
                EXPECT_EQ(sim.backend(), sat::Backend::kSim);
                EXPECT_FALSE(sim.certified()); // never probed for kSim
                const auto t_sim = sim.execute(image).table;
                const auto t_nat = nat.execute(image).table;
                EXPECT_TRUE(t_sim == t_nat)
                    << sat::to_string(algo) << " " << s.h << "x" << s.w;
            }
}

namespace {

/// Real-valued f32 image in [-1, 1) with -0.0 injected at every 7th
/// element.  Unlike AnyMatrix::random's small integers, its partial sums
/// round, so a lowering that reassociated a single add would differ.
[[nodiscard]] satgpu::Matrix<satgpu::f32>
real_f32_image(std::int64_t h, std::int64_t w, std::uint64_t seed)
{
    satgpu::Matrix<satgpu::f32> m(h, w);
    satgpu::fill_random(m, seed, -1.0f, 1.0f);
    for (std::size_t i = 0; i < m.flat().size(); i += 7)
        m.flat()[i] = -0.0f;
    return m;
}

template <typename T>
[[nodiscard]] bool same_bits(const satgpu::Matrix<T>& a,
                             const satgpu::Matrix<T>& b)
{
    return a.height() == b.height() && a.width() == b.width() &&
           std::memcmp(a.flat().data(), b.flat().data(),
                       a.flat().size() * sizeof(T)) == 0;
}

} // namespace

TEST(NativeBackend, BitExactWithSimulatorOnRealValuedF32)
{
    sat::Runtime rt({.record_history = false});
    const DtypePair f32f32{Dtype::f32_, Dtype::f32_};
    // 40 x 1100 spans two 1024-column chunks of the BRLT kernels.
    const struct {
        std::int64_t h, w;
    } shapes[] = {{33, 17}, {64, 31}, {130, 97}, {40, 1100}};
    for (const auto algo : kNativeAlgos)
        for (const auto& s : shapes) {
            const sat::AnyMatrix image{real_f32_image(s.h, s.w, 29)};
            const auto sim = rt.plan(
                {.height = s.h, .width = s.w, .dtypes = f32f32,
                 .algorithm = algo});
            const auto nat = rt.plan({.height = s.h,
                                      .width = s.w,
                                      .dtypes = f32f32,
                                      .algorithm = algo,
                                      .backend = sat::Backend::kNative});
            ASSERT_EQ(nat.backend(), sat::Backend::kNative);
            EXPECT_TRUE(same_bits(sim.execute(image).table.as<satgpu::f32>(),
                                  nat.execute(image).table.as<satgpu::f32>()))
                << sat::to_string(algo) << " " << s.h << "x" << s.w;
        }
}

TEST(NativeBackend, FusedF32QueryBitExactWithSimulatorOnRealValues)
{
    sat::Runtime rt({.record_history = false});
    const DtypePair f32f32{Dtype::f32_, Dtype::f32_};
    for (const auto& q :
         {sat::QuerySpec{sat::BoxFilterSpec{4}},
          sat::QuerySpec{sat::WindowSumSpec{5, 9}}})
        for (const auto& [h, w] :
             {std::pair<std::int64_t, std::int64_t>{97, 130}, {257, 65}}) {
            const sat::AnyMatrix image{real_f32_image(h, w, 31)};
            const auto req = [&](sat::Backend b) {
                return sat::PlanRequest{.height = h,
                                        .width = w,
                                        .dtypes = f32f32,
                                        .algorithm =
                                            sat::Algorithm::kBrltScanRow,
                                        .backend = b,
                                        .query = q,
                                        .query_mode =
                                            sat::QueryMode::kFused};
            };
            const auto sim = rt.plan_query(req(sat::Backend::kSim));
            const auto nat = rt.plan_query(req(sat::Backend::kNative));
            ASSERT_EQ(nat.backend(), sat::Backend::kNative);
            ASSERT_TRUE(nat.query_fused());
            EXPECT_TRUE(same_bits(sim.execute(image).table.as<satgpu::f32>(),
                                  nat.execute(image).table.as<satgpu::f32>()))
                << sat::query_label(q) << " " << h << "x" << w;
        }
}

TEST(NativeBackend, SlidingWindowF32BitExactWithSimulatorOnRealValues)
{
    constexpr std::int64_t kH = 45, kW = 70, kWindow = 3;
    for (const auto algo : kNativeAlgos) {
        simt::Engine eng({.record_history = false});
        using Window = sat::SlidingWindowSat<satgpu::f32, satgpu::f32>;
        Window sim(eng, kWindow, kH, kW, {.algorithm = algo});
        Window nat(eng, kWindow, kH, kW,
                   {.algorithm = algo, .backend = sat::Backend::kNative});
        for (std::uint64_t t = 0; t < 5; ++t) {
            const auto frame = real_f32_image(kH, kW, 100 + t);
            (void)sim.push(frame);
            (void)nat.push(frame);
            EXPECT_TRUE(same_bits(sim.window_table(), nat.window_table()))
                << sat::to_string(algo) << " push " << t;
        }
    }
}

TEST(NativeBackend, InstrumentedRequestsForceSimulator)
{
    sat::Runtime rt({.record_history = false});
    const sat::PlanRequest base{.height = 64,
                                .width = 64,
                                .dtypes = {Dtype::f32_, Dtype::f32_},
                                .algorithm = sat::Algorithm::kScanRowColumn,
                                .backend = sat::Backend::kNative};

    auto checked = base;
    checked.check = true;
    EXPECT_EQ(rt.plan(checked).backend(), sat::Backend::kSim);

    auto profiled = base;
    profiled.profile = true;
    EXPECT_EQ(rt.plan(profiled).backend(), sat::Backend::kSim);

    EXPECT_EQ(rt.plan(base).backend(), sat::Backend::kNative);
}

TEST(NativeBackend, AlgorithmWithoutNativeLoweringFallsBack)
{
    sat::Runtime rt({.record_history = false});
    const auto plan = rt.plan({.height = 64,
                               .width = 64,
                               .dtypes = {Dtype::u8_, Dtype::u32_},
                               .algorithm =
                                   sat::Algorithm::kScanTransposeScan,
                               .backend = sat::Backend::kNative});
    EXPECT_EQ(plan.backend(), sat::Backend::kSim);
    EXPECT_FALSE(plan.certified());
}

// Native kAuto is a fixed choice, not a ranking: every request that may
// run natively resolves to a certified ScanRowColumn, identically on fresh
// runtimes.  The shapes are the satgpu_serve mix, 1024^2 and a tiled plan.
TEST(NativeBackend, AutoPinsScanRowColumnOnNativeRequests)
{
    const sat::PlanRequest requests[] = {
        {.height = 128, .width = 128, .dtypes = {Dtype::u8_, Dtype::u32_}},
        {.height = 96, .width = 160, .dtypes = {Dtype::u8_, Dtype::i32_}},
        {.height = 256, .width = 256, .dtypes = {Dtype::u8_, Dtype::u32_}},
        {.height = 64, .width = 64, .dtypes = {Dtype::f32_, Dtype::f32_}},
        {.height = 160, .width = 96, .dtypes = {Dtype::u32_, Dtype::u32_}},
        {.height = 1024, .width = 1024, .dtypes = {Dtype::u8_, Dtype::u32_}},
        {.height = 1000,
         .width = 700,
         .dtypes = {Dtype::u8_, Dtype::u32_},
         .tile = {256, 256}},
    };
    for (int run = 0; run < 2; ++run) {
        sat::Runtime rt({.record_history = false});
        for (sat::PlanRequest req : requests) {
            req.algorithm = sat::Algorithm::kAuto;
            req.backend = sat::Backend::kNative;
            const auto plan = rt.plan(req);
            const std::string where = std::to_string(req.height) + "x" +
                                      std::to_string(req.width) + " run " +
                                      std::to_string(run);
            EXPECT_EQ(plan.algorithm(), sat::Algorithm::kScanRowColumn)
                << where;
            EXPECT_EQ(plan.backend(), sat::Backend::kNative) << where;
            EXPECT_TRUE(plan.certified()) << where;
            EXPECT_TRUE(plan.scores().empty()) << where;
        }
    }
}

// A refused certificate leaves the native kAuto choice on the simulator.
TEST(NativeBackend, AutoRunsOnSimulatorWhenCertificationIsRefused)
{
    sat::Runtime rt({.record_history = false});
    rt.set_certification_probe(
        [](sat::Algorithm, const sat::PlanRequest&) { return false; });
    const auto plan = rt.plan({.height = 128,
                               .width = 128,
                               .dtypes = {Dtype::u8_, Dtype::u32_},
                               .algorithm = sat::Algorithm::kAuto,
                               .backend = sat::Backend::kNative});
    EXPECT_EQ(plan.algorithm(), sat::Algorithm::kScanRowColumn);
    EXPECT_EQ(plan.backend(), sat::Backend::kSim);
    EXPECT_FALSE(plan.certified());
    const auto image =
        sat::AnyMatrix::random(Dtype::u8_, 128, 128, /*seed=*/5);
    EXPECT_TRUE(plan.execute(image).table ==
                rt.reference(image, Dtype::u32_));
}

// The acceptance-bar fixture: a certification probe wired to a kernel with
// a REAL missing barrier must refuse the native backend, and the refusal
// must not poison the cache once the default probe is restored.
TEST(NativeBackend, BrokenFixtureIsRefusedNativeExecution)
{
    sat::Runtime rt({.record_history = false});
    const sat::PlanRequest req{.height = 64,
                               .width = 64,
                               .dtypes = {Dtype::u8_, Dtype::u32_},
                               .algorithm = sat::Algorithm::kBrltScanRow,
                               .backend = sat::Backend::kNative};

    int probe_calls = 0;
    rt.set_certification_probe([&](sat::Algorithm, const sat::PlanRequest&) {
        ++probe_calls;
        simt::Engine::Options opt;
        opt.record_history = false;
        opt.check = true;
        simt::Engine eng(opt);
        const auto run = sat::broken::run_brlt_missing_barrier(eng);
        // The fixture's whole point: golden output stays correct, the
        // hazard checker still convicts -- so certification must look at
        // the hazards, not the table.
        EXPECT_TRUE(run.output_correct);
        EXPECT_TRUE(run.stats.hazards != nullptr &&
                    !run.stats.hazards->clean());
        return run.stats.hazards != nullptr && run.stats.hazards->clean();
    });

    const auto refused = rt.plan(req);
    EXPECT_EQ(refused.backend(), sat::Backend::kSim);
    EXPECT_FALSE(refused.certified());
    EXPECT_EQ(probe_calls, 1);

    // Verdicts are cached per configuration: a second plan re-uses it.
    (void)rt.plan(req);
    EXPECT_EQ(probe_calls, 1);

    // Restoring the default probe clears the cache; the shipped kernel
    // certifies clean again.
    rt.set_certification_probe(nullptr);
    const auto ok = rt.plan(req);
    EXPECT_EQ(ok.backend(), sat::Backend::kNative);
    EXPECT_TRUE(ok.certified());
}

TEST(NativeBackend, UnsyncedCarryFixtureAlsoConvicts)
{
    // Belt and braces for the other broken fixtures: both produce hazard
    // findings a certification probe would refuse on.
    simt::Engine::Options opt;
    opt.record_history = false;
    opt.check = true;
    simt::Engine eng(opt);
    const auto carry = sat::broken::run_unsynced_smem_tile(eng);
    EXPECT_TRUE(carry.output_correct);
    ASSERT_NE(carry.stats.hazards, nullptr);
    EXPECT_FALSE(carry.stats.hazards->clean());

    const auto tiled = sat::broken::run_tiled_carry_prefix(eng);
    EXPECT_TRUE(tiled.output_correct);
    ASSERT_NE(tiled.stats.hazards, nullptr);
    EXPECT_FALSE(tiled.stats.hazards->clean());
}

// ------------------------------------------------------------- service ----

TEST(ServiceBackend, PlanCacheSeparatesBackendsAndReportsThem)
{
    sat::Service::Options opt;
    opt.workers = 2;
    sat::Service svc(opt);

    const auto image =
        sat::AnyMatrix::random(Dtype::f32_, 64, 48, /*seed=*/11);

    sat::Service::Request sim_req;
    sim_req.image = image;
    sim_req.out = Dtype::f32_;
    sim_req.algorithm = sat::Algorithm::kScanRowColumn;

    auto nat_req = sim_req;
    nat_req.backend = sat::Backend::kNative;

    auto f_sim = svc.submit(sim_req);
    auto f_nat = svc.submit(nat_req);
    const auto t_sim = f_sim.get();
    const auto t_nat = f_nat.get();
    EXPECT_TRUE(t_sim == t_nat);

    // Distinct plan keys: same shape/dtype/algorithm, different backend.
    EXPECT_EQ(svc.plan_cache_size(), 2u);

    const auto plans = svc.plan_info();
    ASSERT_EQ(plans.size(), 2u);
    bool saw_native = false, saw_sim = false;
    for (const auto& p : plans) {
        ASSERT_TRUE(p.resolved);
        EXPECT_EQ(p.algorithm, sat::Algorithm::kScanRowColumn);
        if (p.key.backend == sat::Backend::kNative) {
            saw_native = true;
            EXPECT_EQ(p.backend, sat::Backend::kNative);
            EXPECT_TRUE(p.certified);
            EXPECT_NE(p.label.find("backend=native"), std::string::npos)
                << p.label;
        } else {
            saw_sim = true;
            EXPECT_EQ(p.backend, sat::Backend::kSim);
            EXPECT_EQ(p.label.find("backend="), std::string::npos)
                << p.label;
        }
    }
    EXPECT_TRUE(saw_native);
    EXPECT_TRUE(saw_sim);
}
