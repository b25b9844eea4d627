#include "sat/runtime.hpp"

#include "core/random_fill.hpp"
#include "model/cost_model.hpp"
#include "model/timing.hpp"
#include "sat/query.hpp"
#include "simt/hazard_checker.hpp"

#include <algorithm>
#include <optional>
#include <utility>

namespace satgpu::sat {

// ------------------------------------------------------------ AnyMatrix ----

AnyMatrix AnyMatrix::zeros(Dtype t, std::int64_t h, std::int64_t w)
{
    AnyMatrix m;
    switch (t) {
    case Dtype::u8_: m.v_ = Matrix<u8>(h, w); break;
    case Dtype::i32_: m.v_ = Matrix<i32>(h, w); break;
    case Dtype::u32_: m.v_ = Matrix<u32>(h, w); break;
    case Dtype::f32_: m.v_ = Matrix<f32>(h, w); break;
    case Dtype::f64_: m.v_ = Matrix<f64>(h, w); break;
    }
    SATGPU_CHECK(!m.empty(), "unknown dtype");
    return m;
}

AnyMatrix AnyMatrix::random(Dtype t, std::int64_t h, std::int64_t w,
                            std::uint64_t seed)
{
    AnyMatrix m = zeros(t, h, w);
    std::visit(
        [&](auto& mat) {
            if constexpr (!std::is_same_v<std::decay_t<decltype(mat)>,
                                          std::monostate>)
                fill_random(mat, seed);
        },
        m.v_);
    return m;
}

Dtype AnyMatrix::dtype() const
{
    SATGPU_CHECK(!empty(), "empty AnyMatrix has no dtype");
    return visit([](const auto& m) {
        return dtype_of<typename std::decay_t<decltype(m)>::value_type>::value;
    });
}

std::int64_t AnyMatrix::height() const
{
    return visit([](const auto& m) { return m.height(); });
}

std::int64_t AnyMatrix::width() const
{
    return visit([](const auto& m) { return m.width(); });
}

// ----------------------------------------------------------------- Plan ----

std::vector<simt::LaunchConfig> Plan::launch_configs() const
{
    return model::CostModel::expected_configs(resolved_, req_.dtypes,
                                              req_.height, req_.width);
}

namespace {

void check_plan_input(const PlanRequest& req, const AnyMatrix& image)
{
    SATGPU_CHECK(image.dtype() == req.dtypes.in,
                 "input dtype does not match the plan");
    SATGPU_CHECK(image.height() == req.height && image.width() == req.width,
                 "input shape does not match the plan");
}

Options plan_options(const PlanRequest& req, Algorithm resolved,
                     Backend backend)
{
    Options opt;
    opt.algorithm = resolved;
    opt.warp_scan = req.warp_scan;
    opt.padded_smem = req.padded_smem;
    opt.check = req.check;
    opt.profile = req.profile;
    opt.pool_partition = req.pool_partition;
    opt.backend = backend;
    return opt;
}

/// Invoke `f(spec)` with the enabled query's concrete spec.  Region
/// histograms are defined on 8u images counted into 32u planes only, so f
/// is never instantiated for them at any other pair.
template <typename Tin, typename Tout, typename F>
void visit_query(const QuerySpec& q, F&& f)
{
    std::visit(
        [&]<typename Spec>(const Spec& spec) {
            if constexpr (std::is_same_v<Spec, std::monostate>)
                SATGPU_CHECK(false, "query execution without a query");
            else if constexpr (std::is_same_v<Spec, RegionHistogramSpec> &&
                               !(std::is_same_v<Tin, u8> &&
                                 std::is_same_v<Tout, u32>))
                SATGPU_CHECK(false, "region histogram queries require the "
                                    "8u -> 32u dtype pair");
            else
                f(spec);
        },
        q);
}

/// Serial host oracle for one query spec (query_serial, or
/// query_serial_hist for region histograms).
template <typename Tout, typename Tin, typename Spec>
auto query_oracle(const Matrix<Tin>& image, const Spec& spec)
{
    if constexpr (std::is_same_v<Spec, RegionHistogramSpec>)
        return query_serial_hist(image, spec);
    else
        return query_serial<Tout>(image, spec);
}

} // namespace

RuntimeResult Plan::execute(const AnyMatrix& image) const
{
    const AnyMatrix* const images[] = {&image};
    WaveResult w = execute_wave(images);
    return {std::move(w.tables.front()), std::move(w.launches)};
}

WaveResult Plan::execute_wave(std::span<const AnyMatrix* const> images) const
{
    SATGPU_CHECK(rt_ != nullptr, "executing a default-constructed Plan");
    SATGPU_CHECK(!images.empty(), "execute_wave needs at least one image");
    for (const AnyMatrix* img : images)
        check_plan_input(req_, *img);
    Options opt = plan_options(req_, resolved_, backend_);
    opt.pool = &rt_->pool_;
    simt::Engine& eng = rt_->eng_;
    WaveResult out;
    out.tables.reserve(images.size());
    visit_paper_pair(req_.dtypes, [&]<typename Tin, typename Tout>(
                                      std::type_identity<Tin>,
                                      std::type_identity<Tout>) {
        const auto append = [&](auto&& table, auto&& launches) {
            out.tables.emplace_back(std::move(table));
            out.launches.insert(out.launches.end(),
                                std::make_move_iterator(launches.begin()),
                                std::make_move_iterator(launches.end()));
        };
        if (!query_enabled(req_.query) && !req_.tile.enabled()) {
            // One fused grid.z = K launch per kernel pass.
            std::vector<const Matrix<Tin>*> typed;
            typed.reserve(images.size());
            for (const AnyMatrix* img : images)
                typed.push_back(&img->as<Tin>());
            auto r = compute_sat_wave<Tout, Tin>(eng, typed, opt);
            for (auto& t : r.tables)
                out.tables.emplace_back(std::move(t));
            out.launches = std::move(r.launches);
            return;
        }
        // Query and macro-tile pipelines are already multi-launch per
        // image; run the wave as a per-image loop (no grid.z fusion).
        for (const AnyMatrix* img : images) {
            const Matrix<Tin>& image = img->as<Tin>();
            if (!query_enabled(req_.query)) {
                auto r = compute_sat_tiled<Tout>(eng, image, req_.tile, opt);
                append(r.table, r.launches);
                continue;
            }
            visit_query<Tin, Tout>(req_.query, [&](const auto& spec) {
                auto r = query_fused_
                             ? compute_query_fused<Tout>(eng, image, spec,
                                                         req_.tile, opt)
                             : compute_query_materialized<Tout>(eng, image,
                                                                spec, opt);
                append(r.out, r.launches);
            });
        }
    });
    return out;
}

// -------------------------------------------------------------- Runtime ----

Runtime::Runtime(simt::Engine::Options eng_opt)
    : eng_(eng_opt), cm_(std::make_unique<model::CostModel>())
{
}

Runtime::~Runtime() = default;

namespace {

/// A tile grid has at most four distinct shapes (interior, right edge,
/// bottom edge, corner); enumerate each once with its multiplicity.
struct ShapeCount {
    std::int64_t h, w, count;
};

std::vector<ShapeCount> tile_shape_counts(const TileGrid& grid)
{
    std::vector<ShapeCount> shapes;
    for (std::int64_t ti = 0; ti < grid.rows(); ++ti)
        for (std::int64_t tj = 0; tj < grid.cols(); ++tj) {
            const auto r = grid.rect(ti, tj);
            auto it = std::find_if(shapes.begin(), shapes.end(),
                                   [&](const ShapeCount& s) {
                                       return s.h == r.h && s.w == r.w;
                                   });
            if (it == shapes.end())
                shapes.push_back({r.h, r.w, 1});
            else
                ++it->count;
        }
    return shapes;
}

} // namespace

double Runtime::predict_us(Algorithm algo, DtypePair dt, std::int64_t height,
                           std::int64_t width, const model::GpuSpec& gpu,
                           const Options& opt)
{
    const auto launches = cm_->predict(algo, dt, height, width, opt);
    return model::estimate_total_us(gpu, launches);
}

double Runtime::predict_tiled_us(Algorithm algo, DtypePair dt,
                                 std::int64_t height, std::int64_t width,
                                 const TileGeometry& tile,
                                 const model::GpuSpec& gpu,
                                 const Options& opt)
{
    const TileGrid grid(height, width, tile);
    if (grid.count() == 1) // degenerate tiling runs the untiled path
        return predict_us(algo, dt, height, width, gpu, opt);

    double us = 0;
    for (const ShapeCount& s : tile_shape_counts(grid))
        us += static_cast<double>(s.count) *
              predict_us(algo, dt, s.h, s.w, gpu, opt);

    // The macro-tile carry pass's modeled term is kept for every backend;
    // it is negligible against the per-tile kernel time at any real size.
    const simt::LaunchStats carry = predict_tile_carry(
        height, width, tile,
        static_cast<std::int64_t>(dtype_size(dt.out)));
    return us + model::estimate_total_us(gpu, {&carry, 1});
}

AnyMatrix Runtime::reference(const AnyMatrix& image, Dtype out) const
{
    return visit_paper_pair(
        {image.dtype(), out}, [&]<typename Tin, typename Tout>(
                                  std::type_identity<Tin>,
                                  std::type_identity<Tout>) {
            return AnyMatrix(sat_serial<Tout>(image.as<Tin>()));
        });
}

Plan Runtime::plan_query(const PlanRequest& req)
{
    SATGPU_CHECK(query_enabled(req.query),
                 "plan_query needs a query spec (use plan for plain SATs)");
    return plan(req);
}

AnyMatrix Runtime::query_reference(const AnyMatrix& image, Dtype out,
                                   const QuerySpec& query) const
{
    SATGPU_CHECK(query_enabled(query),
                 "query_reference needs a query spec");
    AnyMatrix want;
    visit_paper_pair({image.dtype(), out}, [&]<typename Tin, typename Tout>(
                                               std::type_identity<Tin>,
                                               std::type_identity<Tout>) {
        visit_query<Tin, Tout>(query, [&](const auto& spec) {
            want = AnyMatrix(query_oracle<Tout>(image.as<Tin>(), spec));
        });
    });
    return want;
}

// -------------------------------------------------------- certification ----

namespace {

/// The trip probe: the one pass of `algo` whose chunk or strip loop a
/// probe must cross -- ScanColumn, or the BRLT pair's transposed pass --
/// launched alone on a 1057-element line (1024 + 33), so it runs two
/// 1024-row strips or 1024-column chunks (three of 512 for 64f).  It must
/// run hazard free on the simulator, produce the line's prefix sums and
/// match natively.  A full SAT crossing the same boundary would first run
/// a 33-block pass of mostly empty 32-warp blocks, tens of milliseconds of
/// checked simulation per certificate.
template <typename T>
bool trip_probe(simt::Engine& eng, Algorithm algo, const PlanRequest& req)
{
    constexpr std::int64_t kLine = 1057;
    Matrix<T> line(1, kLine);
    fill_random(line, /*seed=*/1729);
    const auto in = simt::DeviceBuffer<T>::from_matrix(line);
    const simt::DeviceBuffer<T>* const ins[] = {&in};
    // The pass's output, which is the line's prefix sums in either layout;
    // nothing when the simulator run reports a hazard.
    const auto run = [&](bool native) -> std::optional<Matrix<T>> {
        simt::DeviceBuffer<T> out(kLine);
        simt::DeviceBuffer<T>* const outs[] = {&out};
        const simt::CheckScope check_scope(eng, !native);
        simt::LaunchStats s;
        if (algo == Algorithm::kBrltScanRow)
            s = launch_brlt_scanrow_wave<T, T>(eng, ins, 1, kLine, outs,
                                               req.padded_smem, 0, native);
        else if (algo == Algorithm::kScanRowBrlt)
            s = launch_scanrow_brlt_wave<T, T>(eng, ins, 1, kLine, outs,
                                               req.warp_scan,
                                               req.padded_smem, native);
        else
            s = launch_scancolumn_wave<T>(eng, ins, kLine, 1, outs, native);
        if (simt::total_hazards({&s, 1}) != 0)
            return std::nullopt;
        return std::move(out).release_matrix(1, kLine);
    };
    const auto sim = run(false);
    return sim && *sim == sat_serial<T>(line) && run(true) == sim;
}

/// The default certification probe (docs/backends.md).  A configuration
/// earns its certificate by passing, at a small RAGGED probe shape (the
/// off-by-one edges exercise every predication path a bigger image hits):
///   1. a hazard-checked simulator run reporting ZERO hazards,
///   2. exact agreement of that run with the serial CPU oracle,
///   3. a bit-exact native-vs-simulator diff (tiled too, for tiled plans),
/// and the trip probe above.
/// The verdict is shape independent because every barrier kernel is a
/// simt::phase_list (simt/native_backend.hpp), whose structure makes it
/// so: trip counts depend only on the block index and round counts are
/// fixed per launch, so barriers are unconditional, and a phase's work is
/// per-warp predicated.  The list the probe certifies on the simulator is
/// the one the native backend runs.
template <typename Tin, typename Tout>
bool certification_probe(Algorithm algo, const PlanRequest& req)
{
    constexpr std::int64_t kProbeH = 97; // 3*32 + 1
    constexpr std::int64_t kProbeW = 130; // 4*32 + 2
    Matrix<Tin> img(kProbeH, kProbeW);
    fill_random(img, /*seed=*/1729);
    simt::Engine eng({.record_history = false});
    simt::BufferPool pool;

    Options opt;
    opt.algorithm = algo;
    opt.warp_scan = req.warp_scan;
    opt.padded_smem = req.padded_smem;
    opt.pool = &pool;
    opt.check = true;
    const auto sim = compute_sat<Tout>(eng, img, opt);
    if (simt::total_hazards(sim.launches) != 0)
        return false;
    if (!(sim.table == sat_serial<Tout>(img)))
        return false;

    Options nat_opt = opt;
    nat_opt.check = false;
    nat_opt.backend = Backend::kNative;
    if (!(compute_sat<Tout>(eng, img, nat_opt).table == sim.table))
        return false;
    if (!trip_probe<Tout>(eng, algo, req))
        return false;

    // Tiled configs re-diff through the macro-tile pipeline (per-tile
    // kernels and the carry pass native) at a probe tile small enough to
    // tile the probe shape into a 2x3 ragged grid.
    const TileGeometry probe_tile{64, 64, req.tile.carry_fanout};
    if (req.tile.enabled() &&
        !(compute_sat_tiled<Tout>(eng, img, probe_tile, nat_opt).table ==
          sim.table))
        return false;

    if (!query_enabled(req.query))
        return true;
    // Query plans certify the CONSUMER paths too: both the fused tiled
    // pipeline (at the same ragged probe grid) and the materialized gather
    // pass must run hazard free on the simulator, match the serial oracle
    // exactly, and re-match under the native lowering.
    bool ok = false;
    visit_query<Tin, Tout>(req.query, [&](const auto& spec) {
        const auto want = query_oracle<Tout>(img, spec);
        const auto fsim =
            compute_query_fused<Tout>(eng, img, spec, probe_tile, opt);
        if (simt::total_hazards(fsim.launches) != 0 || !(fsim.out == want))
            return;
        const auto msim = compute_query_materialized<Tout>(eng, img, spec, opt);
        if (simt::total_hazards(msim.launches) != 0 || !(msim.out == want))
            return;
        ok = compute_query_fused<Tout>(eng, img, spec, probe_tile, nat_opt)
                     .out == want &&
             compute_query_materialized<Tout>(eng, img, spec, nat_opt).out ==
                 want;
    });
    return ok;
}

bool default_certification_probe(Algorithm algo, const PlanRequest& req)
{
    if (!is_paper_pair(req.dtypes))
        return false;
    return visit_paper_pair(req.dtypes, [&]<typename Tin, typename Tout>(
                                            std::type_identity<Tin>,
                                            std::type_identity<Tout>) {
        return certification_probe<Tin, Tout>(algo, req);
    });
}

} // namespace

bool Runtime::certify(Algorithm algo, const PlanRequest& req)
{
    if (!native_supported(algo))
        return false;
    const CertKey key{algo, req.dtypes, req.warp_scan, req.padded_smem,
                      req.tile.enabled(),
                      static_cast<int>(req.query.index())};
    CertificationProbe probe;
    {
        const std::lock_guard lk(cert_mutex_);
        if (const auto it = cert_cache_.find(key); it != cert_cache_.end())
            return it->second;
        probe = cert_probe_;
    }
    // Probe outside the lock: probes run real (small) kernels, and
    // distinct configurations may certify concurrently.
    const bool ok = probe ? probe(algo, req)
                          : default_certification_probe(algo, req);
    const std::lock_guard lk(cert_mutex_);
    return cert_cache_.emplace(key, ok).first->second;
}

void Runtime::set_certification_probe(CertificationProbe probe)
{
    const std::lock_guard lk(cert_mutex_);
    cert_probe_ = std::move(probe);
    cert_cache_.clear();
}

Plan Runtime::plan(const PlanRequest& req_in)
{
    // The plan may rewrite the request (fused queries acquire a tile
    // geometry); keep a mutable copy so the stored request is what
    // execution will actually see.
    PlanRequest req = req_in;
    SATGPU_CHECK(req.height > 0 && req.width > 0,
                 "plan needs a positive shape");

    bool query_fused = false;
    if (query_enabled(req.query)) {
        validate_query(req.query, req.dtypes);
        // The tile geometry a fused query would run under: the requested
        // one, or the 256x256 default for untiled requests (queries never
        // materialize the global SAT, so "untiled" still tiles).
        const TileGeometry fused_tile =
            req.tile.enabled()
                ? req.tile
                : TileGeometry{256, 256, req.tile.carry_fanout};
        switch (req.query_mode) {
        case QueryMode::kFused: query_fused = true; break;
        case QueryMode::kMaterialize: query_fused = false; break;
        case QueryMode::kAuto: {
            // Deterministic closed-form resolution: fuse iff the traffic
            // forecast says the halo rework stays below the four-gather
            // pass over a materialized table.
            const model::QueryTraffic t = model::predict_query_traffic(
                req.query, req.dtypes, req.height, req.width,
                fused_tile.tile_h, fused_tile.tile_w);
            query_fused = t.fused_bytes < t.materialized_bytes;
            break;
        }
        }
        if (query_fused)
            req.tile = fused_tile;
    }

    Plan p;
    p.rt_ = this;
    p.req_ = req;
    p.query_fused_ = query_fused;
    SATGPU_CHECK(is_paper_pair(req.dtypes),
                 "dtype pair outside the paper's seven supported pairs");

    // Validates the tile geometry (positive multiple-of-32 sides) as a
    // side effect; also drives the tiled workspace bound below.
    const std::optional<TileGrid> grid =
        req.tile.enabled()
            ? std::optional<TileGrid>(
                  std::in_place, req.height, req.width, req.tile)
            : std::nullopt;

    // Whether this request is even allowed to lower to the native backend:
    // kSim requests never are, and the native backend carries no
    // instrumentation, so check/profile force the simulator.
    const bool allow_native =
        req.backend != Backend::kSim && !req.check && !req.profile;

    if (req.algorithm != Algorithm::kAuto) {
        p.resolved_ = req.algorithm;
    } else if (allow_native) {
        // Native kAuto is a fixed choice, not a ranking: measured native
        // medians (docs/backends.md) put ScanRowColumn fastest, or within
        // host noise of the fastest, at every shape from 64^2 to 4096^2 on
        // 1 and 4 threads, and 2.3-4.8x ahead of the BRLT pair at <= 256^2.
        // The counter model prices simulated GPU time, not host time, so
        // it cannot rank native candidates, and timing them per key would
        // make cold plans slow and their choice run-dependent.
        p.resolved_ = Algorithm::kScanRowColumn;
    } else {
        const model::GpuSpec& gpu = req.gpu ? *req.gpu : model::tesla_p100();
        Options opt;
        opt.warp_scan = req.warp_scan;
        opt.padded_smem = req.padded_smem;
        p.scores_.reserve(std::size(kAllAlgorithms));
        for (const Algorithm a : kAllAlgorithms)
            p.scores_.push_back(
                {a, grid ? predict_tiled_us(a, req.dtypes, req.height,
                                            req.width, req.tile, gpu, opt)
                         : predict_us(a, req.dtypes, req.height, req.width,
                                      gpu, opt)});
        std::stable_sort(p.scores_.begin(), p.scores_.end(),
                         [](const AlgoScore& a, const AlgoScore& b) {
                             return a.predicted_us < b.predicted_us;
                         });
        p.resolved_ = p.scores_.front().algo;
    }
    if (allow_native && certify(p.resolved_, req)) {
        p.backend_ = Backend::kNative;
        p.certified_ = true;
    }

    const auto in_bytes = static_cast<std::int64_t>(dtype_size(req.dtypes.in));
    const auto out_bytes =
        static_cast<std::int64_t>(dtype_size(req.dtypes.out));
    const auto per_image_bytes = [&](std::int64_t h, std::int64_t w) {
        return h * w * (in_bytes + scratch_images(p.resolved_) * out_bytes);
    };
    if (query_enabled(req.query)) {
        // Query workspace high-water (outputs are plain DeviceBuffers, not
        // pooled, so they are excluded by the workspace_bytes contract).
        const bool hist =
            std::holds_alternative<RegionHistogramSpec>(req.query);
        const std::int64_t mask_bytes = hist ? 1 : 0;
        if (query_fused) {
            // Staging sets, each holding one halo-extended tile's source,
            // local SAT, and (histogram) bin mask: carry_fanout groups on
            // the simulator; natively one set per executor slot for the
            // one-launch schedule, released before any wide-tile groups
            // lease theirs.
            const QueryHalo halo = query_halo(req.query);
            const std::int64_t eh = std::min(
                req.height, req.tile.tile_h + halo.top + halo.bottom);
            const std::int64_t ew = std::min(
                req.width, req.tile.tile_w + halo.left + halo.right);
            std::int64_t sets = std::max(1, req.tile.carry_fanout);
            if (p.backend_ == Backend::kNative)
                sets = std::max(sets, detail::fused_native_slots(
                                          eng_.threads(), grid->count()));
            p.workspace_bytes_ =
                sets * eh * ew * (in_bytes + out_bytes + mask_bytes);
            // Extended tiles wider than one block's warp span fall back to
            // a multi-kernel local-SAT build per staged tile, which reads
            // the staged tile in place and leases only its scratch.
            const bool fits = visit_paper_pair(
                req.dtypes, [&]<typename Tin, typename Tout>(
                                std::type_identity<Tin>,
                                std::type_identity<Tout>) {
                    return detail::tile_sat_fits<Tout>(ew);
                });
            if (!fits)
                p.workspace_bytes_ +=
                    eh * ew * scratch_images(p.resolved_) * out_bytes;
        } else {
            // Materialize-then-consume: the full SAT build's staging and
            // scratch, plus the staged input (threshold) or image
            // (histogram) held across it; a histogram's pooled bin mask
            // is its build's staging.  The table itself is the build's
            // unpooled result, which the gather reads in place.
            p.workspace_bytes_ = per_image_bytes(req.height, req.width) +
                                 req.height * req.width * in_bytes;
        }
        return p;
    }
    if (grid && grid->count() > 1) {
        // Pool high-water bound: the free lists are keyed by exact element
        // count, so each DISTINCT ragged tile shape (at most four) keeps
        // its own workspace class alive, and the carry pass additionally
        // holds carry_fanout (tile + two edge vector) buffers per shape.
        const std::int64_t fanout =
            std::max(1, req.tile.carry_fanout);
        p.workspace_bytes_ = 0;
        for (const ShapeCount& s : tile_shape_counts(*grid))
            p.workspace_bytes_ += per_image_bytes(s.h, s.w) +
                                  fanout * (s.h * s.w + s.h + s.w) * out_bytes;
    } else {
        p.workspace_bytes_ = per_image_bytes(req.height, req.width);
    }
    return p;
}

} // namespace satgpu::sat
