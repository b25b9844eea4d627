// QuerySpec: the SAT-consumer vocabulary of Runtime::plan_query
// (docs/fused_queries.md).
//
// A query is a consumer workload defined in terms of window sums over the
// integral image -- the shapes the paper's introduction motivates (box
// filters, adaptive thresholding, Haar-like features, integral histograms)
// and the Poostchi-style tracking traffic the service layer carries.  This
// header is deliberately light (plain structs + a variant) so the runtime
// and service headers can name query plans without pulling in the kernel
// templates; the executable pipelines live in sat/query.hpp and the
// parsing/label/cost helpers in sat/query.cpp.
#pragma once

#include "core/dtype.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

namespace satgpu::sat {

/// Mean over the clamped (2r+1)^2 window centred on each pixel -> f32.
/// radius <= 0 degenerates to the 1x1 window (a defined copy of the
/// image).
struct BoxFilterSpec {
    std::int64_t radius = 4;
    friend constexpr bool operator==(const BoxFilterSpec&,
                                     const BoxFilterSpec&) noexcept = default;
};

/// Bradley-Roth adaptive threshold: pixel is ink (1) when its value falls
/// below `frac` times the clamped-window mean -> u8 mask.
struct AdaptiveThresholdSpec {
    std::int64_t radius = 8;
    double frac = 0.85;
    friend constexpr bool
    operator==(const AdaptiveThresholdSpec&,
               const AdaptiveThresholdSpec&) noexcept = default;
};

/// Raw sum over the win_h x win_w window ANCHORED at each pixel (top-left
/// corner), zero where the window does not fit -> the plan's SAT dtype.
/// The anchored shape serves template matching (per-window energy) and
/// Haar-like features (differences of anchored rectangles).
struct WindowSumSpec {
    std::int64_t win_h = 8;
    std::int64_t win_w = 8;
    friend constexpr bool operator==(const WindowSumSpec&,
                                     const WindowSumSpec&) noexcept = default;
};

/// Per-pixel local histogram over the clamped (2r+1)^2 window: `bins`
/// (1 to 256) bins of an 8u image under bin_of, emitted as a
/// (bins*height) x width u32 matrix of counts, plane b at rows
/// [b*height, (b+1)*height).  Requires the 8u -> 32u dtype pair.
struct RegionHistogramSpec {
    int bins = 8;
    std::int64_t radius = 4;
    friend constexpr bool
    operator==(const RegionHistogramSpec&,
               const RegionHistogramSpec&) noexcept = default;
};

/// The bin of 8u value `v` among `bins` (1 to 256) bins, the one binning
/// rule of both histogram APIs (RegionHistogramSpec, IntegralHistogram):
/// bins of width 256 / bins (floor), the top bin absorbing the ragged
/// remainder when bins does not divide 256 -- 48 bins are 47 five-value
/// bins plus [235, 255] -- so the bins always partition the values.
[[nodiscard]] constexpr int bin_of(int v, int bins) noexcept
{
    return std::min(v / (256 / bins), bins - 1);
}

/// The query vocabulary.  monostate = "no query" (an ordinary SAT plan).
using QuerySpec = std::variant<std::monostate, BoxFilterSpec,
                               AdaptiveThresholdSpec, WindowSumSpec,
                               RegionHistogramSpec>;

[[nodiscard]] constexpr bool query_enabled(const QuerySpec& q) noexcept
{
    return !std::holds_alternative<std::monostate>(q);
}

/// How a query plan consumes the SAT (docs/fused_queries.md):
///  - kFused: per macro-tile halo-extended local SATs, consumed from the
///    pool buffer while resident; the global table is never materialized.
///  - kMaterialize: classic pipeline -- full H x W SAT, then a gather
///    consumer pass over it.
///  - kAuto: the cost model ranks the two and picks the cheaper.
enum class QueryMode { kAuto, kFused, kMaterialize };

[[nodiscard]] constexpr std::string_view to_string(QueryMode m) noexcept
{
    switch (m) {
    case QueryMode::kAuto: return "auto";
    case QueryMode::kFused: return "fused";
    case QueryMode::kMaterialize: return "materialize";
    }
    return "?";
}

/// Halo the fused path stages around each macro-tile so every window
/// corner of every output pixel resolves inside the tile's extended local
/// SAT (the "software-systolic partial windows" of docs/fused_queries.md).
struct QueryHalo {
    std::int64_t top = 0, left = 0, bottom = 0, right = 0;
};

[[nodiscard]] QueryHalo query_halo(const QuerySpec& q);

/// Output dtype of a query at a given SAT (accumulator) dtype.
[[nodiscard]] Dtype query_out_dtype(const QuerySpec& q, Dtype sat_dtype);

/// Output height (RegionHistogram stacks `bins` planes; others match).
[[nodiscard]] std::int64_t query_out_height(const QuerySpec& q,
                                            std::int64_t height);

/// Stable label, also the CLI/service grammar: "box:r=4",
/// "thresh:r=12,f=0.80", "wsum:h=8,w=8", "hist:b=8,r=4", "" for monostate.
[[nodiscard]] std::string query_label(const QuerySpec& q);

/// Parse the label grammar back into a spec; nullopt on malformed input.
[[nodiscard]] std::optional<QuerySpec> parse_query_spec(std::string_view s);

/// Abort unless the spec's parameters and the dtype pair are servable
/// (non-negative radius, positive windows, hist needs 8u -> 32u, ...).
void validate_query(const QuerySpec& q, DtypePair dtypes);

} // namespace satgpu::sat
