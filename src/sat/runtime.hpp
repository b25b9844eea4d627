// Type-erased SAT runtime: plan once, execute many.
//
// The templated sat::compute_sat<Tout, Tin> is the tuned inner layer; this
// is the servable outer layer the ROADMAP's "production primitive" goal
// asks for.  It erases the compile-time dtype pair behind a runtime tag
// (AnyMatrix over core/dtype.hpp's vocabulary), resolves everything
// decision-shaped at plan time, and keeps execution allocation-free via a
// simt::BufferPool:
//
//   sat::Runtime rt;
//   auto plan = rt.plan({.height = 1024, .width = 1024,
//                        .dtypes = *parse_dtype_pair("8u32u"),
//                        .algorithm = sat::Algorithm::kAuto});
//   auto res  = plan.execute(sat::AnyMatrix::random(Dtype::u8_, 1024,
//                                                   1024, /*seed=*/42));
//   // res.table holds the 32u SAT; plan.algorithm() says what kAuto chose.
//
// plan() resolves: the dtype pair (one of the paper's seven; execute()
// bridges it to the templated compute_sat* layer with one
// visit_paper_pair), the algorithm (Algorithm::kAuto takes ScanRowColumn
// for native-allowed requests; otherwise it asks model::CostModel to
// predict every candidate's time on the target GPU and picks the fastest,
// keeping the scores for introspection), the backend (one certify()
// step), the launch shapes, and the device workspace footprint.
// execute() then runs the launches with every device buffer leased from
// the runtime's BufferPool, so steady-state serving performs zero device
// allocations (asserted by tests).
#pragma once

#include "model/gpu_specs.hpp"
#include "sat/query_spec.hpp"
#include "sat/sat.hpp"
#include "sat/tiled.hpp"
#include "simt/buffer_pool.hpp"

#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <variant>
#include <vector>

namespace satgpu::model {
class CostModel; // cost_model.hpp; keeps this header light
}

namespace satgpu::sat {

/// A matrix with its element type erased behind a Dtype tag.  Holds any of
/// the paper's five element types by value.
class AnyMatrix {
public:
    AnyMatrix() = default;
    template <typename T>
    AnyMatrix(Matrix<T> m) : v_(std::move(m)) // NOLINT(google-explicit-*)
    {
    }

    /// An h x w zero matrix of dtype `t`.
    [[nodiscard]] static AnyMatrix zeros(Dtype t, std::int64_t h,
                                         std::int64_t w);
    /// An h x w matrix of dtype `t` filled by core's seeded fill_random
    /// (same values the templated tests/benches see for that seed).
    [[nodiscard]] static AnyMatrix random(Dtype t, std::int64_t h,
                                          std::int64_t w, std::uint64_t seed);

    [[nodiscard]] bool empty() const noexcept
    {
        return std::holds_alternative<std::monostate>(v_);
    }
    [[nodiscard]] Dtype dtype() const;
    [[nodiscard]] std::int64_t height() const;
    [[nodiscard]] std::int64_t width() const;

    /// Checked typed view; aborts when T does not match dtype().
    template <typename T>
    [[nodiscard]] const Matrix<T>& as() const
    {
        const auto* m = std::get_if<Matrix<T>>(&v_);
        SATGPU_CHECK(m != nullptr, "AnyMatrix dtype mismatch");
        return *m;
    }
    template <typename T>
    [[nodiscard]] Matrix<T>& as()
    {
        auto* m = std::get_if<Matrix<T>>(&v_);
        SATGPU_CHECK(m != nullptr, "AnyMatrix dtype mismatch");
        return *m;
    }

    /// Visit the underlying Matrix<T> (aborts when empty).
    template <typename F>
    decltype(auto) visit(F&& f) const
    {
        return std::visit(
            [&](const auto& m) -> decltype(auto) {
                if constexpr (std::is_same_v<std::decay_t<decltype(m)>,
                                             std::monostate>) {
                    SATGPU_CHECK(false, "visiting an empty AnyMatrix");
                    return std::forward<F>(f)(Matrix<u8>{}); // unreachable
                } else {
                    return std::forward<F>(f)(m);
                }
            },
            v_);
    }

    /// Exact elementwise equality (same dtype, same shape, same bits).
    friend bool operator==(const AnyMatrix& a, const AnyMatrix& b)
    {
        return a.v_ == b.v_;
    }

private:
    std::variant<std::monostate, Matrix<u8>, Matrix<i32>, Matrix<u32>,
                 Matrix<f32>, Matrix<f64>>
        v_;
};

/// Result of one type-erased execution: the SAT table (dtype = the plan's
/// output dtype) plus the per-kernel stats the timing model consumes.
struct RuntimeResult {
    AnyMatrix table;
    std::vector<simt::LaunchStats> launches;
};

/// Result of one fused wave over K same-shaped images (Plan::execute_wave):
/// one table per image in submission order, plus the stats of the FUSED
/// launches (grid.z = K, counters summed over the K images).
struct WaveResult {
    std::vector<AnyMatrix> tables;
    std::vector<simt::LaunchStats> launches;
};

/// One cost-model candidate considered by Algorithm::kAuto.
struct AlgoScore {
    Algorithm algo;
    double predicted_us; ///< model-estimated end-to-end time on the GPU
};

struct PlanRequest {
    std::int64_t height = 0;
    std::int64_t width = 0;
    DtypePair dtypes{Dtype::u8_, Dtype::u32_};
    /// kAuto lets Runtime::plan choose (ScanRowColumn when the request
    /// may run natively, the cost model's pick otherwise); anything else
    /// is taken verbatim.
    Algorithm algorithm = Algorithm::kAuto;
    scan::WarpScanKind warp_scan = scan::WarpScanKind::kKoggeStone;
    bool padded_smem = true;
    /// Target GPU for kAuto's predicted-time ranking (and nothing else;
    /// execution is hardware agnostic).  Null means Tesla P100.
    const model::GpuSpec* gpu = nullptr;
    /// Macro-tile geometry (docs/tiled_execution.md).  Disabled (the
    /// default) runs the whole image in one workspace; enabled geometries
    /// execute out of core with pooled memory bounded by O(tile area) --
    /// workspace_bytes() becomes that bound instead of the image
    /// footprint.  Results are bit-identical either way.
    TileGeometry tile{};
    /// Run the warp-synchronous hazard checker on every launch this plan
    /// executes; findings land on RuntimeResult::launches[i].hazards.
    /// Observational only -- tables are bit-identical with it on or off.
    bool check = false;
    /// Attach a ProfileReport to every launch this plan executes
    /// (launches[i].profile), as Engine::Options::profile would.
    /// Observational only, like `check`; the service sets it when a trace
    /// sink is attached so request spans can nest kernel phase ranges.
    bool profile = false;
    /// BufferPool partition every buffer this plan leases comes from.
    /// Partitions never share buffers (simt/buffer_pool.hpp), so the
    /// service layer gives each cached plan its own partition to keep
    /// per-plan high-water marks attributable and bounded.  0 (default)
    /// is the shared partition every direct Runtime user gets.
    int pool_partition = 0;
    /// Execution backend (docs/backends.md).  kSim (default) runs the
    /// instrumented simulator.  kNative may only lower to the
    /// vectorized native backend when the resolved algorithm has a native
    /// lowering, the request carries no instrumentation (check/profile),
    /// AND the configuration holds a hazard-clean certificate
    /// (Runtime::certify); otherwise the plan falls back to the simulator
    /// -- Plan::backend() says what was actually selected.
    Backend backend = Backend::kSim;
    /// SAT-consumer query (docs/fused_queries.md).  monostate (the
    /// default) plans a plain SAT; otherwise execute() returns the query's
    /// output (box-filter mean, threshold mask, window sums, histogram
    /// planes) instead of the table, and the SAT becomes an internal
    /// stage.  Runtime::plan_query is the checked front door.
    QuerySpec query{};
    /// How an enabled query consumes the SAT.  kFused runs the tiled
    /// pipeline (local SATs consumed from pooled buffers; O(tile area)
    /// high-water); kMaterialize builds the full table then gathers;
    /// kAuto lets model::predict_query_traffic pick the cheaper.
    QueryMode query_mode = QueryMode::kAuto;
};

class Runtime;

/// A resolved execution recipe: dtype pair, algorithm, launch shapes and
/// buffer sizes are fixed; execute() can run any number of same-shaped
/// images.  Plans borrow their Runtime (pool + engine + cost model) and
/// must not outlive it.
class Plan {
public:
    [[nodiscard]] Algorithm algorithm() const noexcept { return resolved_; }
    [[nodiscard]] Algorithm requested() const noexcept
    {
        return req_.algorithm;
    }
    [[nodiscard]] DtypePair dtypes() const noexcept { return req_.dtypes; }
    [[nodiscard]] std::int64_t height() const noexcept { return req_.height; }
    [[nodiscard]] std::int64_t width() const noexcept { return req_.width; }
    /// Macro-tile geometry; disabled for single-workspace plans.  A fused
    /// query plan always reports an enabled geometry (plan_query defaults
    /// an untiled fused request to 256x256 tiles).
    [[nodiscard]] const TileGeometry& tile() const noexcept
    {
        return req_.tile;
    }
    /// The plan's query spec; monostate for plain SAT plans.
    [[nodiscard]] const QuerySpec& query() const noexcept
    {
        return req_.query;
    }
    [[nodiscard]] bool has_query() const noexcept
    {
        return query_enabled(req_.query);
    }
    /// Whether an enabled query runs the fused tiled pipeline (vs
    /// materialize-then-consume).  Always false without a query.
    [[nodiscard]] bool query_fused() const noexcept { return query_fused_; }
    /// Dtype of what execute() yields: the query's output dtype when a
    /// query is enabled, the SAT dtype otherwise.
    [[nodiscard]] Dtype out_dtype() const
    {
        return query_out_dtype(req_.query, req_.dtypes.out);
    }
    /// Cost-model ranking, best first.  Non-empty iff requested() == kAuto
    /// and the request may not run natively (kSim, check or profile);
    /// native kAuto plans take ScanRowColumn without a ranking.
    [[nodiscard]] const std::vector<AlgoScore>& scores() const noexcept
    {
        return scores_;
    }
    /// Backend the plan resolved to: kNative only for hazard-certified
    /// configurations, kSim otherwise.
    [[nodiscard]] Backend backend() const noexcept { return backend_; }
    /// Whether the resolved configuration holds a hazard-clean certificate.
    /// Only probed when the request allowed kNative; always false for
    /// plain kSim requests (certification is never needed there).
    [[nodiscard]] bool certified() const noexcept { return certified_; }
    /// Device bytes execute() leases per image.  Untiled: input staging
    /// plus the algorithm's scratch images (proportional to the image).
    /// The returned table is never leased: it owns its storage.
    /// Tiled: an upper bound on the pool's high-water mark -- one
    /// per-tile workspace per distinct ragged tile shape plus
    /// carry_fanout carry buffers -- which is O(tile area) and
    /// independent of the image size (asserted against pool stats by
    /// tests).
    [[nodiscard]] std::int64_t workspace_bytes() const noexcept
    {
        return workspace_bytes_;
    }
    /// Launch geometry the resolved algorithm will use at this shape.
    [[nodiscard]] std::vector<simt::LaunchConfig> launch_configs() const;

    /// Run one image (dtype and shape must match the plan): a one-image
    /// execute_wave, which leases and launches exactly what a single-image
    /// run needs (grid.z = 1).  Pooled buffers are recycled between calls,
    /// so a loop of execute() over a batch leases nothing new after the
    /// first image.  The returned table owns its storage (the last pass's
    /// fresh result buffer, handed over without a copy); no later call
    /// reuses or overwrites it.
    [[nodiscard]] RuntimeResult execute(const AnyMatrix& image) const;
    /// Coalesce K same-shaped images into fused grid.z = K launches (one
    /// per kernel pass).  Tables are bit-identical to K execute() calls in
    /// the same order; the (modeled) per-launch overhead is paid once per
    /// pass instead of once per image.  Tiled and query plans run a
    /// per-image loop of their (already multi-launch) pipelines.  The
    /// wave holds K workspaces concurrently, so workspace_bytes() scales
    /// by K for the wave's duration.
    [[nodiscard]] WaveResult
    execute_wave(std::span<const AnyMatrix* const> images) const;

private:
    friend class Runtime;
    Runtime* rt_ = nullptr;
    PlanRequest req_;
    Algorithm resolved_ = Algorithm::kBrltScanRow;
    Backend backend_ = Backend::kSim;
    bool certified_ = false;
    std::vector<AlgoScore> scores_;
    std::int64_t workspace_bytes_ = 0;
    bool query_fused_ = false;
};

/// The library-style entry point: owns the engine, the buffer pool and a
/// cached cost model; hands out Plans.
class Runtime {
public:
    explicit Runtime(simt::Engine::Options eng_opt = {.record_history =
                                                          false});
    ~Runtime();
    Runtime(const Runtime&) = delete;
    Runtime& operator=(const Runtime&) = delete;

    /// Resolve a request into an executable Plan.  Aborts on an
    /// unsupported dtype pair or a non-positive shape.  Accepts query
    /// requests too (the service layer routes through here); plan_query
    /// is the checked front door for them.
    [[nodiscard]] Plan plan(const PlanRequest& req);

    /// Resolve a SAT-consumer query request (docs/fused_queries.md):
    /// validates PlanRequest::query (aborts when it is monostate or
    /// malformed, or when a histogram query asks for a pair other than
    /// 8u -> 32u), resolves QueryMode::kAuto via the cost model's traffic
    /// forecast, and defaults the tile geometry to 256x256 when the fused
    /// pipeline runs on an untiled request.  The returned Plan's
    /// execute() yields the query output (Plan::out_dtype()).
    [[nodiscard]] Plan plan_query(const PlanRequest& req);

    /// Serial host oracle for a query at any supported pair: what
    /// execute() of a query plan must reproduce (bit-exactly so for
    /// integer SAT dtypes).
    [[nodiscard]] AnyMatrix query_reference(const AnyMatrix& image,
                                            Dtype out,
                                            const QuerySpec& query) const;

    /// Predicted end-to-end time of one algorithm at one shape on one GPU
    /// (the same estimate kAuto ranks by; benches sweep through this).
    /// Always the modeled GPU time of the simulated kernels, whatever
    /// `opt.backend` says.
    [[nodiscard]] double predict_us(Algorithm algo, DtypePair dt,
                                    std::int64_t height, std::int64_t width,
                                    const model::GpuSpec& gpu,
                                    const Options& opt = {});

    /// Tiled prediction: per-tile kernel time summed over the tile grid
    /// (distinct ragged shapes predicted once, weighted by multiplicity)
    /// plus the synthetic carry pass.  kAuto ranks by this when
    /// PlanRequest::tile is enabled and the request may not run natively.
    [[nodiscard]] double predict_tiled_us(Algorithm algo, DtypePair dt,
                                          std::int64_t height,
                                          std::int64_t width,
                                          const TileGeometry& tile,
                                          const model::GpuSpec& gpu,
                                          const Options& opt = {});

    /// Serial CPU oracle at any supported pair (verification paths).
    [[nodiscard]] AnyMatrix reference(const AnyMatrix& image,
                                      Dtype out) const;

    /// Hazard certification (docs/backends.md): whether `algo` under the
    /// request's (dtype pair, warp scan, smem padding, tiled?) config may
    /// run on the native backend.  The verdict is computed once per config
    /// by the certification probe -- by default a small ragged reference
    /// run under the hazard checker plus a native-vs-simulator bit-exact
    /// diff -- and cached for the Runtime's lifetime (thread safe).
    [[nodiscard]] bool certify(Algorithm algo, const PlanRequest& req);

    /// Replace the certification probe (test seam: deliberately broken
    /// kernel fixtures certify through their own probe and must be refused
    /// the native backend).  Clears the certificate cache.  Pass nullptr
    /// to restore the default probe.
    using CertificationProbe =
        std::function<bool(Algorithm, const PlanRequest&)>;
    void set_certification_probe(CertificationProbe probe);

    [[nodiscard]] simt::Engine& engine() noexcept { return eng_; }
    [[nodiscard]] simt::BufferPool& pool() noexcept { return pool_; }
    [[nodiscard]] simt::BufferPool::Stats pool_stats() const
    {
        return pool_.stats();
    }
    [[nodiscard]] model::CostModel& cost_model() noexcept { return *cm_; }

private:
    friend class Plan;

    /// Certificates are per kernel CONFIGURATION, not per shape: the
    /// phase structure the hazard checker certifies is shape independent
    /// (ragged edges are handled by predication inside a phase).
    struct CertKey {
        Algorithm algo;
        DtypePair dtypes;
        scan::WarpScanKind warp_scan;
        bool padded_smem;
        bool tiled;
        /// Query kind (QuerySpec variant index; 0 = no query).  Query
        /// plans run extra consumer kernels, so their certificates are
        /// probed per consumer kind -- the spec's parameters (radius,
        /// window, bins) vary only predication, not phase structure.
        int query_kind;
        friend bool operator<(const CertKey& a, const CertKey& b)
        {
            return std::tie(a.algo, a.dtypes.in, a.dtypes.out, a.warp_scan,
                            a.padded_smem, a.tiled, a.query_kind) <
                   std::tie(b.algo, b.dtypes.in, b.dtypes.out, b.warp_scan,
                            b.padded_smem, b.tiled, b.query_kind);
        }
    };

    simt::Engine eng_;
    simt::BufferPool pool_;
    std::unique_ptr<model::CostModel> cm_; // owned; defined in cost_model.hpp
    std::mutex cert_mutex_;
    std::map<CertKey, bool> cert_cache_;
    CertificationProbe cert_probe_; // null = default probe
};

} // namespace satgpu::sat
