// Public API: compute a Summed Area Table with any of the implemented
// algorithms on the simulated GPU.
//
//   simt::Engine eng;
//   auto res = sat::compute_sat<std::uint32_t>(eng, image,
//                                              {sat::Algorithm::kBrltScanRow});
//   res.table            // the inclusive SAT (Matrix<Tout>)
//   res.launches         // per-kernel LaunchStats for the timing model
//
// Algorithms (paper Sec. IV + evaluated baselines):
//   kBrltScanRow    -- transpose-then-serial-scan, one kernel called twice
//   kScanRowBrlt    -- parallel-scan-then-transpose, one kernel called twice
//   kScanRowColumn  -- specialized row kernel + column kernel
//   kOpencvLike     -- scan-scan baseline (8u inputs take the shuffle path)
//   kNppLike        -- Table II launch shapes (uncoalesced column pass)
//   kNaiveScanScan  -- thread-per-row + thread-per-column sanity floor
//   kScanTransposeScan -- Bilgic et al. [17]: scan, explicit gmem
//                      transpose, scan, transpose back (four kernels)
#pragma once

#include "baselines/naive_scan_scan.hpp"
#include "baselines/scan_transpose_scan.hpp"
#include "baselines/npp_like.hpp"
#include "baselines/opencv_like.hpp"
#include "core/dtype.hpp"
#include "sat/brlt_scanrow.hpp"
#include "sat/cpu_reference.hpp"
#include "sat/scanrow_brlt.hpp"
#include "sat/scanrowcolumn.hpp"
#include "simt/buffer_pool.hpp"

#include <span>
#include <string_view>
#include <vector>

namespace satgpu::sat {

enum class Algorithm {
    kBrltScanRow,
    kScanRowBrlt,
    kScanRowColumn,
    kOpencvLike,
    kNppLike,
    kNaiveScanScan,
    kScanTransposeScan, // Bilgic et al. [17]: explicit gmem transpose
    kAuto, // resolved by Runtime::plan (docs/runtime_api.md); never executed
};

[[nodiscard]] constexpr std::string_view to_string(Algorithm a) noexcept
{
    switch (a) {
    case Algorithm::kBrltScanRow: return "BRLT-ScanRow";
    case Algorithm::kScanRowBrlt: return "ScanRow-BRLT";
    case Algorithm::kScanRowColumn: return "ScanRowColumn";
    case Algorithm::kOpencvLike: return "OpenCV";
    case Algorithm::kNppLike: return "NPP";
    case Algorithm::kNaiveScanScan: return "NaiveScanScan";
    case Algorithm::kScanTransposeScan: return "ScanTransposeScan";
    case Algorithm::kAuto: return "Auto";
    }
    return "?";
}

inline constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::kBrltScanRow,   Algorithm::kScanRowBrlt,
    Algorithm::kScanRowColumn, Algorithm::kOpencvLike,
    Algorithm::kNppLike,       Algorithm::kNaiveScanScan,
    Algorithm::kScanTransposeScan,
};

/// Execution backend for the kernel layer (docs/backends.md).
///
///   kSim    -- the coroutine SIMT simulator: full instrumentation
///              (counters, profiler, hazard checker), the reference
///              lowering every result is defined against.
///   kNative -- the vectorized host backend: the SAME kernel bodies run
///              as plain loops on the engine's persistent executor with
///              no coroutines and no instrumentation.  Bit-identical tables, real wall-clock
///              speed.  Only Runtime::plan may select it, and only for
///              hazard-certified configurations.
enum class Backend {
    kSim,
    kNative,
};

[[nodiscard]] constexpr std::string_view to_string(Backend b) noexcept
{
    switch (b) {
    case Backend::kSim: return "sim";
    case Backend::kNative: return "native";
    }
    return "?";
}

/// Whether the native backend implements `a`.  The three register-tile
/// paper kernels have native lowerings; the baselines exist to be measured
/// under the simulator's counter model and stay sim-only.
[[nodiscard]] constexpr bool native_supported(Algorithm a) noexcept
{
    switch (a) {
    case Algorithm::kBrltScanRow:
    case Algorithm::kScanRowBrlt:
    case Algorithm::kScanRowColumn: return true;
    case Algorithm::kOpencvLike:
    case Algorithm::kNppLike:
    case Algorithm::kNaiveScanScan:
    case Algorithm::kScanTransposeScan:
    case Algorithm::kAuto: break;
    }
    return false;
}

struct Options {
    Algorithm algorithm = Algorithm::kBrltScanRow;
    /// Parallel warp-scan network where one is used (Sec. VI-C1 evaluates
    /// Kogge-Stone and Ladner-Fischer as equivalent end-to-end).
    scan::WarpScanKind warp_scan = scan::WarpScanKind::kKoggeStone;
    /// BRLT staging stride: true = 32x33 (conflict free, the paper's
    /// choice), false = 32x32 (the bank-conflict ablation).
    bool padded_smem = true;
    /// When set, every device buffer (input staging and per-algorithm
    /// scratch) is leased from this pool instead of freshly allocated.
    /// Results are bit-identical either way; the runtime layer always
    /// passes its pool.  Not owned.
    simt::BufferPool* pool = nullptr;
    /// BufferPool partition every lease comes from.  Partitions never
    /// share buffers, so per-client (per service plan) footprints stay
    /// attributable; 0 is the shared default partition.
    int pool_partition = 0;
    /// Run the warp-synchronous hazard checker for this computation's
    /// launches (simt/hazard_checker.hpp): each LaunchStats in
    /// SatResult::launches carries a HazardReport.  Purely observational
    /// -- the table is bit-identical with checking on or off.
    bool check = false;
    /// Attach a ProfileReport (simt/profiler.hpp) to each LaunchStats in
    /// SatResult::launches, as Engine::Options::profile would.  Purely
    /// observational like `check`; this is how the service's trace sink
    /// gets kernel phase ranges for the requests it traces without
    /// reconstructing the worker's engine.
    bool profile = false;
    /// Execution backend.  kSim (the default) is the instrumented
    /// coroutine simulator; kNative runs the same kernel bodies as plain
    /// vectorized loops (native_supported() algorithms only, and
    /// incompatible with `check`/`profile` -- the native path carries no
    /// instrumentation).  Callers should go through Runtime::plan, which
    /// only selects kNative for hazard-certified configurations.
    Backend backend = Backend::kSim;
};

template <typename Tout>
struct SatResult {
    Matrix<Tout> table;
    std::vector<simt::LaunchStats> launches;
};

/// Result of one fused wave over K same-shaped images: one table per
/// image, plus the stats of the FUSED launches (each launch ran with
/// grid.z = K, so its counters are the commutative sum of the K per-image
/// launches it replaced).
template <typename Tout>
struct SatWaveResult {
    std::vector<Matrix<Tout>> tables;
    std::vector<simt::LaunchStats> launches;
};

/// Pooled device scratch buffers (beyond the input staging buffer) an
/// algorithm leases per invocation, in units of full h*w images of Tout.
/// The result table is not counted: the last pass writes a fresh buffer
/// that becomes the returned table, so it never comes from the pool.
/// Feeds the runtime's workspace accounting.
[[nodiscard]] constexpr int scratch_images(Algorithm a) noexcept
{
    switch (a) {
    case Algorithm::kBrltScanRow:
    case Algorithm::kScanRowBrlt:
    case Algorithm::kScanRowColumn: return 1;
    case Algorithm::kOpencvLike:
    case Algorithm::kNppLike:
    case Algorithm::kNaiveScanScan: return 0;
    case Algorithm::kScanTransposeScan: return 3;
    case Algorithm::kAuto: break;
    }
    return 0;
}

namespace detail {

/// A wave's worth of pooled Tout scratch buffers: K leases of `count`
/// elements each, acquired in image order so a K = 1 wave performs exactly
/// the acquisitions the historical single-image path did.
template <typename Tout>
struct ScratchSet {
    std::vector<simt::BufferPool::Lease<Tout>> leases;

    ScratchSet(const Options& opt, std::size_t k, std::int64_t count)
    {
        leases.reserve(k);
        for (std::size_t i = 0; i < k; ++i)
            leases.push_back(simt::acquire_or_new<Tout>(
                opt.pool, count, opt.pool_partition));
    }

    /// Mutable per-image buffer pointers (a launch wave's outputs).
    [[nodiscard]] std::vector<simt::DeviceBuffer<Tout>*> outs()
    {
        std::vector<simt::DeviceBuffer<Tout>*> p;
        p.reserve(leases.size());
        for (auto& l : leases)
            p.push_back(&*l);
        return p;
    }

    /// Const per-image buffer pointers (a launch wave's inputs).
    [[nodiscard]] std::vector<const simt::DeviceBuffer<Tout>*> ins() const
    {
        std::vector<const simt::DeviceBuffer<Tout>*> p;
        p.reserve(leases.size());
        for (const auto& l : leases)
            p.push_back(&*l);
        return p;
    }
};

/// A wave's result tables: K fresh device buffers (never pooled) that the
/// last pass writes and that then become the returned tables without a
/// copy, so a returned table never aliases memory a later call reuses.
/// Each is value-initialized by DeviceBuffer::zeroed: a table of 32 MiB or
/// more sits on huge pages and is zero-filled across the engine's
/// executor slots.
template <typename Tout>
struct ResultSet {
    std::vector<simt::DeviceBuffer<Tout>> bufs;

    ResultSet(simt::Engine& eng, std::size_t k, std::int64_t count)
    {
        bufs.reserve(k);
        for (std::size_t i = 0; i < k; ++i)
            bufs.push_back(
                simt::DeviceBuffer<Tout>::zeroed(eng.executor(), count));
    }

    [[nodiscard]] std::vector<simt::DeviceBuffer<Tout>*> outs()
    {
        std::vector<simt::DeviceBuffer<Tout>*> p;
        p.reserve(bufs.size());
        for (auto& b : bufs)
            p.push_back(&b);
        return p;
    }

    /// Hand every buffer over as an h x w table (leaves the set empty).
    [[nodiscard]] std::vector<Matrix<Tout>> release(std::int64_t h,
                                                    std::int64_t w) &&
    {
        std::vector<Matrix<Tout>> tables;
        tables.reserve(bufs.size());
        for (auto& b : bufs)
            tables.push_back(std::move(b).release_matrix(h, w));
        return tables;
    }
};

} // namespace detail

/// compute_sat_wave's body over inputs already staged on the device: K
/// buffers, each holding an h x w image row-major in its first h * w
/// elements (e.g. a pooled bin mask or a staged query tile).  Runs the
/// same launches and scratch leases as compute_sat_wave, without copying
/// the inputs again.
template <typename Tout, typename Tin>
[[nodiscard]] SatWaveResult<Tout> compute_sat_wave_staged(
    simt::Engine& eng, std::span<const simt::DeviceBuffer<Tin>* const> ins,
    std::int64_t h, std::int64_t w, const Options& opt)
{
    const std::size_t k = ins.size();
    SATGPU_EXPECTS(k > 0 && h > 0 && w > 0);
    for (const simt::DeviceBuffer<Tin>* in : ins)
        SATGPU_EXPECTS(in->size() >= h * w);
    const simt::CheckScope check_scope(eng, opt.check);
    const simt::ProfileEnableScope profile_scope(eng, opt.profile);
    const bool native = opt.backend == Backend::kNative;
    if (native) {
        SATGPU_CHECK(native_supported(opt.algorithm),
                     "algorithm has no native lowering (native_supported)");
        SATGPU_CHECK(!opt.check && !opt.profile,
                     "the native backend carries no instrumentation; "
                     "check/profile need Backend::kSim");
    }
    const auto scratch = [&](std::int64_t count) {
        return detail::ScratchSet<Tout>(opt, k, count);
    };
    detail::ResultSet<Tout> out(eng, k, h * w);
    SatWaveResult<Tout> res;

    switch (opt.algorithm) {
    case Algorithm::kBrltScanRow: {
        auto mid = scratch(w * h);
        res.launches.push_back(launch_brlt_scanrow_wave<Tout, Tin>(
            eng, ins, h, w, mid.outs(), opt.padded_smem,
            /*warps_override=*/0, native));
        res.launches.push_back(launch_brlt_scanrow_wave<Tout, Tout>(
            eng, mid.ins(), w, h, out.outs(), opt.padded_smem,
            /*warps_override=*/0, native));
        break;
    }
    case Algorithm::kScanRowBrlt: {
        auto mid = scratch(w * h);
        res.launches.push_back(launch_scanrow_brlt_wave<Tout, Tin>(
            eng, ins, h, w, mid.outs(), opt.warp_scan, opt.padded_smem,
            native));
        res.launches.push_back(launch_scanrow_brlt_wave<Tout, Tout>(
            eng, mid.ins(), w, h, out.outs(), opt.warp_scan,
            opt.padded_smem, native));
        break;
    }
    case Algorithm::kScanRowColumn: {
        auto mid = scratch(h * w);
        res.launches.push_back(launch_scanrow_wave<Tout, Tin>(
            eng, ins, h, w, mid.outs(), opt.warp_scan, native));
        res.launches.push_back(launch_scancolumn_wave<Tout>(
            eng, mid.ins(), h, w, out.outs(), native));
        break;
    }
    case Algorithm::kOpencvLike: {
        if constexpr (std::is_same_v<Tin, std::uint8_t>) {
            res.launches.push_back(
                baselines::launch_opencv_horizontal_8u_wave<Tout>(
                    eng, ins, h, w, out.outs()));
        } else {
            res.launches.push_back(
                baselines::launch_opencv_horizontal_wave<Tout, Tin>(
                    eng, ins, h, w, out.outs()));
        }
        res.launches.push_back(baselines::launch_opencv_vertical_wave<Tout>(
            eng, out.outs(), h, w));
        break;
    }
    case Algorithm::kNppLike: {
        res.launches.push_back(baselines::launch_npp_scanrow_wave<Tout, Tin>(
            eng, ins, h, w, out.outs()));
        res.launches.push_back(baselines::launch_npp_scancol_wave<Tout>(
            eng, out.outs(), h, w));
        break;
    }
    case Algorithm::kScanTransposeScan: {
        auto a = scratch(h * w), b = scratch(w * h), c = scratch(w * h);
        res.launches.push_back(launch_scanrow_wave<Tout, Tin>(
            eng, ins, h, w, a.outs(), opt.warp_scan));
        res.launches.push_back(baselines::launch_transpose_wave<Tout>(
            eng, a.ins(), h, w, b.outs()));
        res.launches.push_back(launch_scanrow_wave<Tout, Tout>(
            eng, b.ins(), w, h, c.outs(), opt.warp_scan));
        res.launches.push_back(baselines::launch_transpose_wave<Tout>(
            eng, c.ins(), w, h, out.outs()));
        break;
    }
    case Algorithm::kNaiveScanScan: {
        res.launches.push_back(baselines::launch_naive_rows_wave<Tout, Tin>(
            eng, ins, h, w, out.outs()));
        res.launches.push_back(baselines::launch_naive_cols_wave<Tout>(
            eng, out.outs(), h, w));
        break;
    }
    case Algorithm::kAuto:
        SATGPU_CHECK(false, "Algorithm::kAuto must be resolved by "
                            "Runtime::plan before execution");
    }
    res.tables = std::move(out).release(h, w);
    return res;
}

/// Compute the inclusive SATs of K same-shaped images in one fused WAVE:
/// every kernel pass of the chosen algorithm runs once with grid.z = K
/// instead of K times, so the (modeled) fixed per-launch overhead is paid
/// once per pass rather than once per image -- the request-coalescing lever
/// the service layer uses.  Each fused block executes exactly like the
/// corresponding block of a single-image launch (kernels never read
/// block_idx().z), so every table is bit-identical to compute_sat on that
/// image alone.  The input staging and scratch buffers come from
/// Options::pool when one is set; a wave holds K workspaces concurrently,
/// which is why service plans get their own pool partition.  The last pass
/// writes K fresh buffers that become the returned tables without a copy,
/// so each table owns its storage.
template <typename Tout, typename Tin>
[[nodiscard]] SatWaveResult<Tout>
compute_sat_wave(simt::Engine& eng,
                 std::span<const Matrix<Tin>* const> images, Options opt = {})
{
    const std::size_t k = images.size();
    SATGPU_EXPECTS(k > 0);
    const std::int64_t h = images[0]->height();
    const std::int64_t w = images[0]->width();
    SATGPU_EXPECTS(h > 0 && w > 0);
    for (const Matrix<Tin>* img : images)
        SATGPU_EXPECTS(img->height() == h && img->width() == w);

    std::vector<simt::BufferPool::Lease<Tin>> in_leases;
    in_leases.reserve(k);
    std::vector<const simt::DeviceBuffer<Tin>*> ins;
    ins.reserve(k);
    for (const Matrix<Tin>* img : images) {
        in_leases.push_back(
            simt::acquire_or_new<Tin>(opt.pool, h * w, opt.pool_partition));
        std::copy(img->flat().begin(), img->flat().end(),
                  in_leases.back()->host().begin());
        ins.push_back(&*in_leases.back());
    }
    return compute_sat_wave_staged<Tout, Tin>(eng, ins, h, w, opt);
}

/// Compute the inclusive SAT of `image` on the simulated GPU -- a K = 1
/// wave, which performs the exact buffer acquisitions and launches the
/// historical single-image path did (grid.z = 1, identical counters).
/// Staging and scratch buffers come from Options::pool when one is set
/// (and are returned to it before this function returns), so repeated
/// calls at one shape allocate only the returned table after the first.
template <typename Tout, typename Tin>
[[nodiscard]] SatResult<Tout> compute_sat(simt::Engine& eng,
                                          const Matrix<Tin>& image,
                                          Options opt = {})
{
    const Matrix<Tin>* const imgs[] = {&image};
    auto wave = compute_sat_wave<Tout, Tin>(eng, imgs, opt);
    return SatResult<Tout>{std::move(wave.tables[0]),
                           std::move(wave.launches)};
}

} // namespace satgpu::sat
