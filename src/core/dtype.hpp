// Data-type vocabulary of the paper (Sec. III-D).
//
//   8u  = unsigned 8-bit, 32s = signed 32-bit, 32u = unsigned 32-bit,
//   32f = float, 64f = double.  "TaTb" names an (input, output) pair,
//   e.g. 8u32s reads unsigned chars and accumulates into int32.
#pragma once

#include "core/check.hpp"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

namespace satgpu {

using u8 = std::uint8_t;
using i32 = std::int32_t;
using u32 = std::uint32_t;
using f32 = float;
using f64 = double;

enum class Dtype : std::uint8_t { u8_, i32_, u32_, f32_, f64_ };

template <typename T> struct dtype_of;
template <> struct dtype_of<u8> { static constexpr Dtype value = Dtype::u8_; };
template <> struct dtype_of<i32> { static constexpr Dtype value = Dtype::i32_; };
template <> struct dtype_of<u32> { static constexpr Dtype value = Dtype::u32_; };
template <> struct dtype_of<f32> { static constexpr Dtype value = Dtype::f32_; };
template <> struct dtype_of<f64> { static constexpr Dtype value = Dtype::f64_; };

[[nodiscard]] constexpr std::string_view dtype_name(Dtype t) noexcept
{
    switch (t) {
    case Dtype::u8_: return "8u";
    case Dtype::i32_: return "32s";
    case Dtype::u32_: return "32u";
    case Dtype::f32_: return "32f";
    case Dtype::f64_: return "64f";
    }
    return "?";
}

[[nodiscard]] constexpr std::size_t dtype_size(Dtype t) noexcept
{
    switch (t) {
    case Dtype::u8_: return 1;
    case Dtype::i32_:
    case Dtype::u32_:
    case Dtype::f32_: return 4;
    case Dtype::f64_: return 8;
    }
    return 0;
}

/// An (input, output) type pair in the paper's TaTb notation.
struct DtypePair {
    Dtype in;
    Dtype out;

    friend constexpr bool operator==(DtypePair, DtypePair) = default;
};

template <typename Tin, typename Tout>
[[nodiscard]] constexpr DtypePair make_pair_of() noexcept
{
    return {dtype_of<Tin>::value, dtype_of<Tout>::value};
}

/// "8u32s", "32f32f", ... (matches the paper's figure labels).
[[nodiscard]] inline std::string pair_name(DtypePair p)
{
    std::string s{dtype_name(p.in)};
    s += dtype_name(p.out);
    return s;
}

/// The seven (input, output) pairs the paper evaluates (Sec. VI-A).  The
/// runtime, the CLI and the dtype-sweeping benches all iterate this list.
inline constexpr DtypePair kPaperDtypePairs[] = {
    {Dtype::u8_, Dtype::i32_},  {Dtype::u8_, Dtype::u32_},
    {Dtype::u8_, Dtype::f32_},  {Dtype::i32_, Dtype::i32_},
    {Dtype::u32_, Dtype::u32_}, {Dtype::f32_, Dtype::f32_},
    {Dtype::f64_, Dtype::f64_},
};

/// Whether `p` is one of kPaperDtypePairs: the soft check for callers that
/// must refuse other pairs without aborting (visit_paper_pair aborts).
[[nodiscard]] constexpr bool is_paper_pair(DtypePair p) noexcept
{
    for (const DtypePair q : kPaperDtypePairs)
        if (q == p)
            return true;
    return false;
}

/// Parse one dtype token ("8u", "32s", ...) from the front of `s`,
/// consuming it.  Returns nullopt (and leaves `s` untouched) on no match.
[[nodiscard]] constexpr std::optional<Dtype>
parse_dtype_prefix(std::string_view& s) noexcept
{
    for (const Dtype t : {Dtype::u8_, Dtype::i32_, Dtype::u32_, Dtype::f32_,
                          Dtype::f64_}) {
        const std::string_view name = dtype_name(t);
        if (s.substr(0, name.size()) == name) {
            s.remove_prefix(name.size());
            return t;
        }
    }
    return std::nullopt;
}

/// Parse a whole dtype name ("8u", "32f", ...).
[[nodiscard]] constexpr std::optional<Dtype>
parse_dtype(std::string_view s) noexcept
{
    const auto t = parse_dtype_prefix(s);
    return (t && s.empty()) ? t : std::nullopt;
}

/// Parse a TaTb pair name ("8u32s", "64f64f", ...).  Any in/out
/// combination of the five dtypes parses; callers decide whether the pair
/// is one they support (e.g. is_paper_pair for the paper's seven).
[[nodiscard]] constexpr std::optional<DtypePair>
parse_dtype_pair(std::string_view s) noexcept
{
    const auto in = parse_dtype_prefix(s);
    if (!in)
        return std::nullopt;
    const auto out = parse_dtype_prefix(s);
    if (!out || !s.empty())
        return std::nullopt;
    return DtypePair{*in, *out};
}

/// Invoke `f(std::type_identity<Tin>{}, std::type_identity<Tout>{})` for
/// the paper dtype pair `p`; aborts on a pair outside kPaperDtypePairs.
/// This is the ONE runtime-tag -> template bridge: the CLI, the cost
/// model and every Plan/Runtime entry point route through it.
template <typename F>
constexpr decltype(auto) visit_paper_pair(DtypePair p, F&& f)
{
    using std::type_identity;
    if (p == DtypePair{Dtype::u8_, Dtype::i32_})
        return f(type_identity<u8>{}, type_identity<i32>{});
    if (p == DtypePair{Dtype::u8_, Dtype::u32_})
        return f(type_identity<u8>{}, type_identity<u32>{});
    if (p == DtypePair{Dtype::u8_, Dtype::f32_})
        return f(type_identity<u8>{}, type_identity<f32>{});
    if (p == DtypePair{Dtype::i32_, Dtype::i32_})
        return f(type_identity<i32>{}, type_identity<i32>{});
    if (p == DtypePair{Dtype::u32_, Dtype::u32_})
        return f(type_identity<u32>{}, type_identity<u32>{});
    if (p == DtypePair{Dtype::f32_, Dtype::f32_})
        return f(type_identity<f32>{}, type_identity<f32>{});
    if (p == DtypePair{Dtype::f64_, Dtype::f64_})
        return f(type_identity<f64>{}, type_identity<f64>{});
    SATGPU_CHECK(false, "dtype pair outside the paper's seven");
}

} // namespace satgpu
