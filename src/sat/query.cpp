#include "sat/query.hpp"

#include <cinttypes>
#include <cstdio>
#include <cmath>

namespace satgpu::sat {

QueryHalo query_halo(const QuerySpec& q)
{
    return std::visit(
        []<typename Spec>(const Spec& s) -> QueryHalo {
            if constexpr (std::is_same_v<Spec, std::monostate>)
                return {};
            else
                return detail::halo_of(s); // the kernels' own halo rule
        },
        q);
}

Dtype query_out_dtype(const QuerySpec& q, Dtype sat_dtype)
{
    return std::visit(
        [&]<typename Spec>(const Spec&) {
            if constexpr (std::is_same_v<Spec, BoxFilterSpec>)
                return Dtype::f32_;
            else if constexpr (std::is_same_v<Spec, AdaptiveThresholdSpec>)
                return Dtype::u8_;
            else if constexpr (std::is_same_v<Spec, RegionHistogramSpec>)
                return Dtype::u32_;
            else
                return sat_dtype; // WindowSum / monostate: the SAT dtype
        },
        q);
}

std::int64_t query_out_height(const QuerySpec& q, std::int64_t height)
{
    if (const auto* h = std::get_if<RegionHistogramSpec>(&q))
        return std::int64_t{h->bins} * height;
    return height;
}

std::string query_label(const QuerySpec& q)
{
    char buf[64];
    return std::visit(
        [&]<typename Spec>(const Spec& s) -> std::string {
            if constexpr (std::is_same_v<Spec, std::monostate>) {
                return "";
            } else if constexpr (std::is_same_v<Spec, BoxFilterSpec>) {
                std::snprintf(buf, sizeof buf, "box:r=%" PRId64, s.radius);
            } else if constexpr (std::is_same_v<Spec,
                                                AdaptiveThresholdSpec>) {
                std::snprintf(buf, sizeof buf, "thresh:r=%" PRId64 ",f=%.2f",
                              s.radius, s.frac);
            } else if constexpr (std::is_same_v<Spec, WindowSumSpec>) {
                std::snprintf(buf, sizeof buf,
                              "wsum:h=%" PRId64 ",w=%" PRId64, s.win_h,
                              s.win_w);
            } else {
                std::snprintf(buf, sizeof buf, "hist:b=%d,r=%" PRId64,
                              s.bins, s.radius);
            }
            return buf;
        },
        q);
}

std::optional<QuerySpec> parse_query_spec(std::string_view sv)
{
    if (sv.empty() || sv == "none")
        return QuerySpec{};
    // The grammar is exactly what query_label emits; %n pins full
    // consumption so trailing garbage is rejected, not ignored.
    const std::string s(sv);
    const auto len = static_cast<int>(s.size());
    long long a = 0, b = 0;
    double f = 0;
    int bins = 0, n = -1;
    if (std::sscanf(s.c_str(), "box:r=%lld%n", &a, &n) == 1 && n == len)
        return QuerySpec{BoxFilterSpec{a}};
    n = -1;
    if (std::sscanf(s.c_str(), "thresh:r=%lld,f=%lf%n", &a, &f, &n) == 2 &&
        n == len)
        return QuerySpec{AdaptiveThresholdSpec{a, f}};
    n = -1;
    if (std::sscanf(s.c_str(), "thresh:r=%lld%n", &a, &n) == 1 && n == len)
        return QuerySpec{AdaptiveThresholdSpec{.radius = a}};
    n = -1;
    if (std::sscanf(s.c_str(), "wsum:h=%lld,w=%lld%n", &a, &b, &n) == 2 &&
        n == len)
        return QuerySpec{WindowSumSpec{a, b}};
    n = -1;
    if (std::sscanf(s.c_str(), "hist:b=%d,r=%lld%n", &bins, &a, &n) == 2 &&
        n == len)
        return QuerySpec{RegionHistogramSpec{bins, a}};
    return std::nullopt;
}

void validate_query(const QuerySpec& q, DtypePair dtypes)
{
    std::visit(
        [&]<typename Spec>(const Spec& s) {
            if constexpr (std::is_same_v<Spec, std::monostate>) {
                SATGPU_CHECK(false, "query plan without a query spec");
            } else if constexpr (std::is_same_v<Spec, BoxFilterSpec>) {
                SATGPU_CHECK(s.radius >= 0,
                             "box query radius must be >= 0 (0 is the "
                             "defined 1x1 degenerate)");
            } else if constexpr (std::is_same_v<Spec,
                                                AdaptiveThresholdSpec>) {
                SATGPU_CHECK(s.radius >= 0,
                             "threshold query radius must be >= 0");
                SATGPU_CHECK(std::isfinite(s.frac) && s.frac > 0,
                             "threshold query fraction must be finite and "
                             "positive");
            } else if constexpr (std::is_same_v<Spec, WindowSumSpec>) {
                SATGPU_CHECK(s.win_h >= 1 && s.win_w >= 1,
                             "window-sum query needs a positive window");
            } else {
                SATGPU_CHECK(s.bins >= 1 && s.bins <= 256,
                             "histogram query bins must be in [1, 256]");
                SATGPU_CHECK(s.radius >= 0,
                             "histogram query radius must be >= 0");
                SATGPU_CHECK(dtypes.in == Dtype::u8_ &&
                                 dtypes.out == Dtype::u32_,
                             "region histogram queries require the 8u -> "
                             "32u dtype pair");
            }
        },
        q);
}

} // namespace satgpu::sat
