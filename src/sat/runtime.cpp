#include "sat/runtime.hpp"

#include "core/random_fill.hpp"
#include "model/cost_model.hpp"
#include "model/timing.hpp"
#include "sat/query.hpp"
#include "simt/hazard_checker.hpp"

#include <algorithm>
#include <array>
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

// ------------------------------------------------------------- registry ----

namespace {

template <typename Tin, typename Tout>
KernelEntry make_entry()
{
    KernelEntry e;
    e.dtypes = make_pair_of<Tin, Tout>();
    e.exec = [](simt::Engine& eng, simt::BufferPool& pool,
                const AnyMatrix& image, const Options& opt) {
        Options with_pool = opt;
        with_pool.pool = &pool;
        auto r = compute_sat<Tout>(eng, image.as<Tin>(), with_pool);
        return RuntimeResult{AnyMatrix(std::move(r.table)),
                             std::move(r.launches)};
    };
    e.exec_tiled = [](simt::Engine& eng, simt::BufferPool& pool,
                      const AnyMatrix& image, const Options& opt,
                      const TileGeometry& tile) {
        Options with_pool = opt;
        with_pool.pool = &pool;
        auto r = compute_sat_tiled<Tout>(eng, image.as<Tin>(), tile,
                                         with_pool);
        return RuntimeResult{AnyMatrix(std::move(r.table)),
                             std::move(r.launches)};
    };
    e.exec_wave = [](simt::Engine& eng, simt::BufferPool& pool,
                     std::span<const AnyMatrix* const> images,
                     const Options& opt) {
        Options with_pool = opt;
        with_pool.pool = &pool;
        std::vector<const Matrix<Tin>*> typed;
        typed.reserve(images.size());
        for (const AnyMatrix* img : images)
            typed.push_back(&img->as<Tin>());
        auto r = compute_sat_wave<Tout, Tin>(eng, typed, with_pool);
        WaveResult out;
        out.launches = std::move(r.launches);
        out.tables.reserve(r.tables.size());
        for (auto& t : r.tables)
            out.tables.push_back(AnyMatrix(std::move(t)));
        return out;
    };
    e.reference = [](const AnyMatrix& image) {
        return AnyMatrix(sat_serial<Tout>(image.as<Tin>()));
    };
    e.exec_query_fused = [](simt::Engine& eng, simt::BufferPool& pool,
                            const AnyMatrix& image, const Options& opt,
                            const QuerySpec& q, const TileGeometry& tile) {
        Options with_pool = opt;
        with_pool.pool = &pool;
        return std::visit(
            [&]<typename Spec>(const Spec& spec) -> RuntimeResult {
                if constexpr (std::is_same_v<Spec, std::monostate>) {
                    SATGPU_CHECK(false, "query execution without a query");
                } else {
                    auto r = compute_query_fused<Tout>(
                        eng, image.as<Tin>(), spec, tile, with_pool);
                    return RuntimeResult{AnyMatrix(std::move(r.out)),
                                         std::move(r.launches)};
                }
            },
            q);
    };
    e.exec_query_mat = [](simt::Engine& eng, simt::BufferPool& pool,
                          const AnyMatrix& image, const Options& opt,
                          const QuerySpec& q) {
        Options with_pool = opt;
        with_pool.pool = &pool;
        return std::visit(
            [&]<typename Spec>(const Spec& spec) -> RuntimeResult {
                if constexpr (std::is_same_v<Spec, std::monostate>) {
                    SATGPU_CHECK(false, "query execution without a query");
                } else {
                    auto r = compute_query_materialized<Tout>(
                        eng, image.as<Tin>(), spec, with_pool);
                    return RuntimeResult{AnyMatrix(std::move(r.out)),
                                         std::move(r.launches)};
                }
            },
            q);
    };
    e.query_reference = [](const AnyMatrix& image, const QuerySpec& q) {
        return std::visit(
            [&]<typename Spec>(const Spec& spec) -> AnyMatrix {
                if constexpr (std::is_same_v<Spec, std::monostate>) {
                    SATGPU_CHECK(false, "query reference without a query");
                } else if constexpr (std::is_same_v<Spec,
                                                    RegionHistogramSpec>) {
                    if constexpr (std::is_same_v<Tin, u8> &&
                                  std::is_same_v<Tout, u32>)
                        return AnyMatrix(
                            query_serial_hist(image.as<u8>(), spec));
                    else
                        SATGPU_CHECK(false,
                                     "region histogram queries require the "
                                     "8u -> 32u dtype pair");
                } else {
                    return AnyMatrix(
                        query_serial<Tout>(image.as<Tin>(), spec));
                }
            },
            q);
    };
    return e;
}

std::array<KernelEntry, std::size(kPaperDtypePairs)> build_registry()
{
    std::array<KernelEntry, std::size(kPaperDtypePairs)> reg;
    std::size_t i = 0;
    for (const DtypePair p : kPaperDtypePairs)
        reg[i++] = visit_paper_pair(
            p, []<typename Tin, typename Tout>(std::type_identity<Tin>,
                                               std::type_identity<Tout>) {
                return make_entry<Tin, Tout>();
            });
    return reg;
}

} // namespace

std::span<const KernelEntry> kernel_registry()
{
    static const auto reg = build_registry();
    return reg;
}

const KernelEntry* find_kernel(DtypePair p)
{
    for (const KernelEntry& e : kernel_registry())
        if (e.dtypes == p)
            return &e;
    return nullptr;
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

} // namespace

RuntimeResult Plan::execute(const AnyMatrix& image) const
{
    SATGPU_CHECK(rt_ != nullptr && entry_ != nullptr,
                 "executing a default-constructed Plan");
    check_plan_input(req_, image);
    const Options opt = plan_options(req_, resolved_, backend_);
    if (query_enabled(req_.query)) {
        if (query_fused_)
            return entry_->exec_query_fused(rt_->eng_, rt_->pool_, image,
                                            opt, req_.query, req_.tile);
        return entry_->exec_query_mat(rt_->eng_, rt_->pool_, image, opt,
                                      req_.query);
    }
    if (req_.tile.enabled())
        return entry_->exec_tiled(rt_->eng_, rt_->pool_, image, opt,
                                  req_.tile);
    return entry_->exec(rt_->eng_, rt_->pool_, image, opt);
}

WaveResult Plan::execute_wave(std::span<const AnyMatrix* const> images) const
{
    SATGPU_CHECK(rt_ != nullptr && entry_ != nullptr,
                 "executing a default-constructed Plan");
    SATGPU_CHECK(!images.empty(), "execute_wave needs at least one image");
    for (const AnyMatrix* img : images)
        check_plan_input(req_, *img);
    if (query_enabled(req_.query) || req_.tile.enabled()) {
        // Query and macro-tile pipelines are already multi-launch per
        // image; run the wave as a per-image loop (bit-identical outputs,
        // no grid.z fusion).
        WaveResult out;
        out.tables.reserve(images.size());
        for (const AnyMatrix* img : images) {
            auto r = execute(*img);
            out.tables.push_back(std::move(r.table));
            out.launches.insert(out.launches.end(),
                                std::make_move_iterator(r.launches.begin()),
                                std::make_move_iterator(r.launches.end()));
        }
        return out;
    }
    const Options opt = plan_options(req_, resolved_, backend_);
    return entry_->exec_wave(rt_->eng_, rt_->pool_, images, opt);
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
    SATGPU_CHECK(opt.backend != Backend::kAuto,
                 "resolve the backend before asking for a prediction");
    // The native backend is ranked by what it will actually cost: host
    // wall clock.  The simulator keeps the modeled-GPU scale.
    if (opt.backend == Backend::kNative)
        return cm_->predict_wall_us(algo, dt, height, width,
                                    Backend::kNative, opt);
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

    // The macro-tile carry pass always runs on the simulator (it has no
    // native lowering), so its modeled term is kept for every backend; it
    // is negligible against the per-tile kernel time at any real size.
    const simt::LaunchStats carry = predict_tile_carry(
        height, width, tile,
        static_cast<std::int64_t>(dtype_size(dt.out)));
    return us + model::estimate_total_us(gpu, {&carry, 1});
}

AnyMatrix Runtime::reference(const AnyMatrix& image, Dtype out) const
{
    const KernelEntry* e = find_kernel({image.dtype(), out});
    SATGPU_CHECK(e != nullptr, "unsupported dtype pair");
    return e->reference(image);
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
    const KernelEntry* e = find_kernel({image.dtype(), out});
    SATGPU_CHECK(e != nullptr, "unsupported dtype pair");
    return e->query_reference(image, query);
}

// -------------------------------------------------------- certification ----

namespace {

/// The default certification probe (docs/backends.md).  A configuration
/// earns its certificate by passing, at a small RAGGED probe shape (the
/// off-by-one edges exercise every predication path a bigger image hits):
///   1. a hazard-checked simulator run reporting ZERO hazards,
///   2. exact agreement of that run with the serial CPU oracle,
///   3. a bit-exact native-vs-simulator diff (tiled too, for tiled plans).
/// The verdict is shape independent because the phase structure the
/// checker certifies is: work inside a phase is per-warp predicated, and
/// barriers are unconditional.
bool default_certification_probe(Algorithm algo, const PlanRequest& req)
{
    constexpr std::int64_t kProbeH = 97; // 3*32 + 1
    constexpr std::int64_t kProbeW = 130; // 4*32 + 2
    const KernelEntry* entry = find_kernel(req.dtypes);
    if (entry == nullptr)
        return false;
    const AnyMatrix img =
        AnyMatrix::random(req.dtypes.in, kProbeH, kProbeW, /*seed=*/1729);
    simt::Engine eng({.record_history = false});
    simt::BufferPool pool;

    Options opt;
    opt.algorithm = algo;
    opt.warp_scan = req.warp_scan;
    opt.padded_smem = req.padded_smem;
    opt.check = true;
    const RuntimeResult sim = entry->exec(eng, pool, img, opt);
    if (simt::total_hazards(sim.launches) != 0)
        return false;
    if (!(sim.table == entry->reference(img)))
        return false;

    opt.check = false;
    opt.backend = Backend::kNative;
    const RuntimeResult nat = entry->exec(eng, pool, img, opt);
    if (!(nat.table == sim.table))
        return false;

    if (req.tile.enabled()) {
        // Re-diff through the macro-tile pipeline (per-tile kernels native,
        // carry pass simulated): a probe tile small enough to tile the
        // probe shape into a 2x3 ragged grid.
        const TileGeometry probe_tile{64, 64, req.tile.carry_fanout};
        const RuntimeResult nat_tiled =
            entry->exec_tiled(eng, pool, img, opt, probe_tile);
        if (!(nat_tiled.table == sim.table))
            return false;
    }

    if (query_enabled(req.query)) {
        // Query plans certify the CONSUMER paths too: both the fused tiled
        // pipeline (at the same ragged probe grid) and the materialized
        // gather pass must run hazard free on the simulator, match the
        // serial oracle exactly, and re-match under the native lowering.
        const AnyMatrix want = entry->query_reference(img, req.query);
        const TileGeometry probe_tile{64, 64, req.tile.carry_fanout};
        Options qopt;
        qopt.algorithm = algo;
        qopt.warp_scan = req.warp_scan;
        qopt.padded_smem = req.padded_smem;
        qopt.check = true;
        const RuntimeResult fsim = entry->exec_query_fused(
            eng, pool, img, qopt, req.query, probe_tile);
        if (simt::total_hazards(fsim.launches) != 0)
            return false;
        if (!(fsim.table == want))
            return false;
        const RuntimeResult msim =
            entry->exec_query_mat(eng, pool, img, qopt, req.query);
        if (simt::total_hazards(msim.launches) != 0)
            return false;
        if (!(msim.table == want))
            return false;

        qopt.check = false;
        qopt.backend = Backend::kNative;
        const RuntimeResult fnat = entry->exec_query_fused(
            eng, pool, img, qopt, req.query, probe_tile);
        if (!(fnat.table == want))
            return false;
        const RuntimeResult mnat =
            entry->exec_query_mat(eng, pool, img, qopt, req.query);
        if (!(mnat.table == want))
            return false;
    }
    return true;
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
    p.entry_ = find_kernel(req.dtypes);
    SATGPU_CHECK(p.entry_ != nullptr,
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

    if (req.algorithm == Algorithm::kAuto) {
        const model::GpuSpec& gpu = req.gpu ? *req.gpu : model::tesla_p100();
        Options opt;
        opt.warp_scan = req.warp_scan;
        opt.padded_smem = req.padded_smem;
        // Wall-clock ranking ladder for native-allowing requests: EVERY
        // candidate is estimated in host microseconds under the backend it
        // would actually run (sim wall for uncertified candidates, native
        // wall for certified ones), so one ranking never mixes the
        // modeled-GPU scale with the wall scale.
        const auto wall_rank = [&](Algorithm a, Backend b) {
            if (!grid || grid->count() == 1)
                return cm_->predict_wall_us(a, req.dtypes, req.height,
                                            req.width, b, opt);
            double us = 0;
            for (const ShapeCount& s : tile_shape_counts(*grid))
                us += static_cast<double>(s.count) *
                      cm_->predict_wall_us(a, req.dtypes, s.h, s.w, b, opt);
            return us;
        };
        p.scores_.reserve(std::size(kAllAlgorithms));
        for (const Algorithm a : kAllAlgorithms) {
            AlgoScore s{a, 0.0};
            if (allow_native && certify(a, req)) {
                s.backend = Backend::kNative;
                s.certified = true;
            }
            s.predicted_us =
                req.backend == Backend::kSim
                    ? (grid ? predict_tiled_us(a, req.dtypes, req.height,
                                               req.width, req.tile, gpu, opt)
                            : predict_us(a, req.dtypes, req.height,
                                         req.width, gpu, opt))
                    : wall_rank(a, s.backend);
            p.scores_.push_back(s);
        }
        std::stable_sort(p.scores_.begin(), p.scores_.end(),
                         [](const AlgoScore& a, const AlgoScore& b) {
                             return a.predicted_us < b.predicted_us;
                         });
        p.resolved_ = p.scores_.front().algo;
        p.backend_ = p.scores_.front().backend;
        p.certified_ = p.scores_.front().certified;
    } else {
        p.resolved_ = req.algorithm;
        if (allow_native && certify(p.resolved_, req)) {
            p.backend_ = Backend::kNative;
            p.certified_ = true;
        }
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
            // carry_fanout staging groups, each holding one halo-extended
            // tile's source, local SAT, and (histogram) bin mask.
            const QueryHalo halo = query_halo(req.query);
            const std::int64_t eh = std::min(
                req.height, req.tile.tile_h + halo.top + halo.bottom);
            const std::int64_t ew = std::min(
                req.width, req.tile.tile_w + halo.left + halo.right);
            const std::int64_t fanout =
                std::max(1, req.tile.carry_fanout);
            p.workspace_bytes_ =
                fanout * eh * ew * (in_bytes + out_bytes + mask_bytes);
            // Extended tiles wider than one block's warp span fall back to
            // a pooled multi-kernel local-SAT build per staged tile.
            const bool fits = visit_paper_pair(
                req.dtypes, [&]<typename Tin, typename Tout>(
                                std::type_identity<Tin>,
                                std::type_identity<Tout>) {
                    return detail::tile_sat_fits<Tout>(ew);
                });
            if (!fits)
                p.workspace_bytes_ += per_image_bytes(eh, ew);
        } else {
            // Materialize-then-consume: the full SAT build's staging and
            // scratch, plus the staged input (threshold) or image and bin
            // mask (histogram) held across it.  The table itself is the
            // build's unpooled result, which the gather reads in place.
            p.workspace_bytes_ =
                per_image_bytes(req.height, req.width) +
                req.height * req.width * (in_bytes + mask_bytes);
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
        std::vector<std::pair<std::int64_t, std::int64_t>> shapes;
        for (std::int64_t ti = 0; ti < grid->rows(); ++ti)
            for (std::int64_t tj = 0; tj < grid->cols(); ++tj) {
                const auto r = grid->rect(ti, tj);
                if (std::find(shapes.begin(), shapes.end(),
                              std::pair{r.h, r.w}) == shapes.end())
                    shapes.emplace_back(r.h, r.w);
            }
        p.workspace_bytes_ = 0;
        for (const auto& [h, w] : shapes)
            p.workspace_bytes_ +=
                per_image_bytes(h, w) +
                fanout * (h * w + h + w) * out_bytes;
    } else {
        p.workspace_bytes_ = per_image_bytes(req.height, req.width);
    }
    return p;
}

} // namespace satgpu::sat
