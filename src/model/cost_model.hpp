// Cost model: predicted per-kernel event counters for any problem size.
//
// Rather than hand-maintaining closed-form count formulas for six
// algorithms, the model MEASURES one calibration run of the real simulated
// kernels at 1024x1024 and scales the counters to the target size.  Every
// counter in every implemented kernel is exactly proportional to the image
// area for sizes that are multiples of 1024 (work is per-tile / per-chunk /
// per-row, all of which tile the area), so the scaling is exact there --
// a property the tests verify against full simulations.  Launch geometry
// (which does NOT scale with area alone) is recomputed per kernel.
//
// This is how the benchmark harness sweeps the paper's 1k..16k sizes in
// seconds instead of functionally simulating 16k x 16k images.
//
// The model prices simulated GPU time only and never times the host:
// Algorithm::kAuto ranks by it for simulator plans, while native plans
// take a fixed choice (Runtime::plan, docs/backends.md).
#pragma once

#include "core/dtype.hpp"
#include "sat/query_spec.hpp"
#include "sat/sat.hpp"
#include "simt/engine.hpp"

#include <vector>

namespace satgpu::model {

class CostModel {
public:
    /// Predicted per-kernel launch stats for `algo` on a height x width
    /// image.  Exact for multiples of the 1024 calibration size; a close
    /// interpolation otherwise.
    [[nodiscard]] std::vector<simt::LaunchStats>
    predict(sat::Algorithm algo, DtypePair dtypes, std::int64_t height,
            std::int64_t width, const sat::Options& opt = {});

    /// The launch geometry each algorithm uses at a given size (also used
    /// by the Table II bench).
    [[nodiscard]] static std::vector<simt::LaunchConfig>
    expected_configs(sat::Algorithm algo, DtypePair dtypes,
                     std::int64_t height, std::int64_t width);

    static constexpr std::int64_t kCalibSize = 1024;

private:
    struct Key {
        sat::Algorithm algo;
        DtypePair dtypes;
        scan::WarpScanKind kind;
        bool padded;
        friend bool operator<(const Key& a, const Key& b)
        {
            return std::tie(a.algo, a.dtypes.in, a.dtypes.out, a.kind,
                            a.padded) < std::tie(b.algo, b.dtypes.in,
                                                 b.dtypes.out, b.kind,
                                                 b.padded);
        }
    };
    std::map<Key, std::vector<simt::LaunchStats>> calibration_;
};

/// Scale every event counter by `factor` (launch geometry fields excluded).
[[nodiscard]] simt::PerfCounters scale_counters(const simt::PerfCounters& c,
                                                double factor);

/// Device-memory traffic forecast for a SAT-consumer query
/// (docs/fused_queries.md): total useful gmem bytes moved by the fused
/// tiled pipeline vs the materialize-then-consume baseline.  Closed form
/// (no calibration run), so QueryMode::kAuto resolution is deterministic
/// and allocation free; the per-term decomposition is within a few percent
/// of the simulator's measured LaunchStats byte counters (bench_query
/// pins this).
struct QueryTraffic {
    double fused_bytes = 0;
    double materialized_bytes = 0;
};

[[nodiscard]] QueryTraffic
predict_query_traffic(const sat::QuerySpec& query, DtypePair dtypes,
                      std::int64_t height, std::int64_t width,
                      std::int64_t tile_h, std::int64_t tile_w);

/// Steady-state per-push device-traffic forecast for a sliding window of
/// `window` frames (docs/streaming.md): the incremental ring update (one
/// SAT build + one fused add/subtract pass) vs a from-scratch recompute
/// (`window` SAT builds + `window` accumulate passes).  Closed form like
/// predict_query_traffic, so StreamUpdateMode::kAuto resolution is
/// deterministic and allocation free; bench_stream pins the forecast
/// against the simulator's measured byte counters.
struct StreamTraffic {
    double incremental_bytes = 0;
    double recompute_bytes = 0;
};

[[nodiscard]] StreamTraffic predict_stream_traffic(DtypePair dtypes,
                                                   std::int64_t height,
                                                   std::int64_t width,
                                                   std::int64_t window);

} // namespace satgpu::model
