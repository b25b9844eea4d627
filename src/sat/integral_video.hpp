// Streaming temporal SATs (docs/streaming.md): integral video and
// incremental sliding windows.
//
// An integral video extends each frame's 2-D SAT with a temporal prefix,
//
//     IV[t](y, x) = sum_{t' <= t} SAT_{t'}(y, x),
//
// so any spatio-temporal box sum over frames [t0, t1] and the rectangle
// [y0, y1] x [x0, x1] is an O(1) EIGHT-corner lookup: the four-corner
// rect_sum difference evaluated at IV[t1] minus the same difference at
// IV[t0 - 1].  Execution reuses the shipped 2-D machinery -- one SAT pass
// per frame (any Algorithm, untiled or macro-tiled, sim or native) plus a
// trivially parallel temporal-accumulate kernel: one barrier-free warp
// body that simt::launch_warps runs on either backend.
//
// The sliding-window half is the streaming workload ROADMAP's second open
// item names: a window of the last T frames whose aggregate SAT
//
//     W = sum_{t in window} SAT_t
//
// answers windowed box sums with four lookups.  When frame t+1 arrives,
// kIncremental updates W with ONE SAT build plus one fused add/subtract
// pass (W += SAT_new - SAT_old) against a ring of the T resident per-frame
// SATs, instead of rebuilding T SATs from scratch -- the LaunchStats byte
// counters prove the >= T/2 x traffic advantage (bench_stream asserts
// >= 4x at T = 8).  model::predict_stream_traffic forecasts both modes in
// closed form; resolve_stream_mode() (integral_video.cpp) puts that
// forecast behind StreamUpdateMode::kAuto.
#pragma once

#include "sat/sat.hpp"
#include "sat/tiled.hpp"

#include <span>
#include <vector>

namespace satgpu::sat {

namespace detail {

/// Temporal-accumulate warp body (W = simt::WarpCtx or
/// simt::NativeWarpCtx): acc[i] += cur[i] over one 32-element group per
/// warp.  Barrier free; every access is a contiguous row access, so the
/// pass is perfectly coalesced.
template <typename T, typename W>
void temporal_add_warp_body(W& w, const simt::DeviceBuffer<T>& cur,
                            std::int64_t n, simt::DeviceBuffer<T>& acc)
{
    const std::int64_t base = elementwise_base(w);
    const simt::LaneMask m = simt::lanes_in_range(base, n);
    if (m == 0)
        return;
    const auto a = acc.load_row(base, m);
    const auto c = cur.load_row(base, m);
    acc.store_row(base, simt::vadd_where(m, a, c), m);
}

/// Sliding-window update body: win[i] = win[i] + cur[i] - old[i] in one
/// fused pass -- the whole point of the incremental mode (three reads, one
/// write per element instead of a from-scratch T-frame rebuild).
template <typename T, typename W>
void window_update_warp_body(W& w, const simt::DeviceBuffer<T>& cur,
                             const simt::DeviceBuffer<T>& old,
                             std::int64_t n, simt::DeviceBuffer<T>& win)
{
    const std::int64_t base = elementwise_base(w);
    const simt::LaneMask m = simt::lanes_in_range(base, n);
    if (m == 0)
        return;
    auto v = win.load_row(base, m);
    v = simt::vadd_where(m, v, cur.load_row(base, m));
    v = simt::vsub_where(m, v, old.load_row(base, m));
    win.store_row(base, v, m);
}

} // namespace detail

/// acc += cur, elementwise over n elements (sim or native lowering).
template <typename T>
simt::LaunchStats launch_temporal_add(simt::Engine& eng,
                                      const simt::DeviceBuffer<T>& cur,
                                      std::int64_t n,
                                      simt::DeviceBuffer<T>& acc,
                                      bool native = false)
{
    SATGPU_EXPECTS(cur.size() >= n && acc.size() >= n);
    return simt::launch_warps(
        eng, {"temporal_add", 12, 0}, elementwise_config(n), native,
        [&](auto& w) { detail::temporal_add_warp_body<T>(w, cur, n, acc); });
}

/// win = win + cur - old, elementwise over n elements (the incremental
/// sliding-window carry pass; sim or native lowering).
template <typename T>
simt::LaunchStats launch_window_update(simt::Engine& eng,
                                       const simt::DeviceBuffer<T>& cur,
                                       const simt::DeviceBuffer<T>& old,
                                       std::int64_t n,
                                       simt::DeviceBuffer<T>& win,
                                       bool native = false)
{
    SATGPU_EXPECTS(cur.size() >= n && old.size() >= n && win.size() >= n);
    return simt::launch_warps(
        eng, {"window_update", 14, 0}, elementwise_config(n), native,
        [&](auto& w) {
            detail::window_update_warp_body<T>(w, cur, old, n, win);
        });
}

/// Total useful device bytes a launch sequence moved (the traffic signal
/// bench_stream asserts the incremental advantage with).
[[nodiscard]] inline std::uint64_t
device_bytes(std::span<const simt::LaunchStats> launches) noexcept
{
    std::uint64_t b = 0;
    for (const auto& l : launches)
        b += l.counters.gmem_bytes_ld + l.counters.gmem_bytes_st;
    return b;
}

/// A 3-D integral video: per-frame tables IV[t] = sum_{t' <= t} SAT_{t'}.
template <typename Tout>
struct IntegralVideo {
    std::vector<Matrix<Tout>> tables; ///< one temporally-prefixed SAT per t
    std::vector<simt::LaunchStats> launches;

    [[nodiscard]] std::int64_t frames() const noexcept
    {
        return static_cast<std::int64_t>(tables.size());
    }

    /// O(1) spatio-temporal box sum over the inclusive box
    /// [t0, t1] x [y0, y1] x [x0, x1]: eight corner lookups (rect_sum at
    /// IV[t1] minus rect_sum at IV[t0 - 1]).  Integer dtypes wrap, like
    /// rect_sum.
    [[nodiscard]] Tout box_sum(std::int64_t t0, std::int64_t y0,
                               std::int64_t x0, std::int64_t t1,
                               std::int64_t y1, std::int64_t x1) const
    {
        SATGPU_EXPECTS(t0 >= 0 && t0 <= t1 && t1 < frames());
        const Tout hi = rect_sum(tables[static_cast<std::size_t>(t1)], y0,
                                 x0, y1, x1);
        if (t0 == 0)
            return hi;
        return static_cast<Tout>(
            hi - rect_sum(tables[static_cast<std::size_t>(t0 - 1)], y0, x0,
                          y1, x1));
    }
};

/// Serial oracle: integral video by per-frame sat_serial plus a host
/// temporal prefix (paper Alg. 1 extended by one axis).
template <typename Tout, typename Tin>
[[nodiscard]] IntegralVideo<Tout>
integral_video_serial(std::span<const Matrix<Tin>* const> frames)
{
    IntegralVideo<Tout> iv;
    iv.tables.reserve(frames.size());
    for (const Matrix<Tin>* f : frames) {
        Matrix<Tout> t = sat_serial<Tout>(*f);
        if (!iv.tables.empty()) {
            const auto& prev = iv.tables.back();
            for (std::int64_t i = 0; i < t.size(); ++i)
                t.flat()[static_cast<std::size_t>(i)] = static_cast<Tout>(
                    t.flat()[static_cast<std::size_t>(i)] +
                    prev.flat()[static_cast<std::size_t>(i)]);
        }
        iv.tables.push_back(std::move(t));
    }
    return iv;
}

/// Nested-loop box-sum oracle (no SATs at all): what box_sum must equal.
template <typename Tout, typename Tin>
[[nodiscard]] Tout
box_sum_serial(std::span<const Matrix<Tin>* const> frames, std::int64_t t0,
               std::int64_t y0, std::int64_t x0, std::int64_t t1,
               std::int64_t y1, std::int64_t x1)
{
    Tout s{};
    for (std::int64_t t = t0; t <= t1; ++t)
        for (std::int64_t y = y0; y <= y1; ++y)
            for (std::int64_t x = x0; x <= x1; ++x)
                s = static_cast<Tout>(
                    s + static_cast<Tout>((*frames[static_cast<std::size_t>(
                            t)])(y, x)));
    return s;
}

/// Compute the integral video of `frames` on the engine: one 2-D SAT pass
/// per frame (tiled when `tile` is enabled; all of Options applies,
/// including pool/partition/backend) followed by a pooled device temporal
/// accumulate -- IV[t] = IV[t-1] + SAT[t] as one coalesced add pass per
/// frame.  Bit-identical to integral_video_serial for every Algorithm,
/// tile geometry, thread count and backend.
template <typename Tout, typename Tin>
[[nodiscard]] IntegralVideo<Tout>
compute_integral_video(simt::Engine& eng,
                       std::span<const Matrix<Tin>* const> frames,
                       Options opt = {}, const TileGeometry& tile = {})
{
    SATGPU_EXPECTS(!frames.empty());
    const std::int64_t h = frames[0]->height();
    const std::int64_t w = frames[0]->width();
    const std::int64_t n = h * w;
    for (const Matrix<Tin>* f : frames)
        SATGPU_EXPECTS(f->height() == h && f->width() == w);
    const bool native = opt.backend == Backend::kNative;

    IntegralVideo<Tout> iv;
    iv.tables.reserve(frames.size());
    auto acc = simt::acquire_or_new<Tout>(opt.pool, n, opt.pool_partition);
    for (const Matrix<Tin>* f : frames) {
        auto sat = tile.enabled()
                       ? compute_sat_tiled<Tout, Tin>(eng, *f, tile, opt)
                       : compute_sat<Tout, Tin>(eng, *f, opt);
        const auto cur =
            simt::DeviceBuffer<Tout>::adopt(std::move(sat.table));
        iv.launches.insert(iv.launches.end(),
                           std::make_move_iterator(sat.launches.begin()),
                           std::make_move_iterator(sat.launches.end()));
        // acc starts zeroed (pool contract), so IV[0] = 0 + SAT[0] runs
        // the same pass every later frame does.
        iv.launches.push_back(
            launch_temporal_add<Tout>(eng, cur, n, *acc, native));
        iv.tables.push_back(acc->to_matrix(h, w));
    }
    return iv;
}

/// How a SlidingWindowSat maintains its aggregate (docs/streaming.md).
enum class StreamUpdateMode {
    kAuto,        ///< resolve_stream_mode picks by forecast traffic
    kIncremental, ///< ring of T resident SATs; 1 build + 1 fused update
    kRecompute,   ///< ring of T raw frames; T builds + T adds, from scratch
};

[[nodiscard]] constexpr std::string_view
to_string(StreamUpdateMode m) noexcept
{
    switch (m) {
    case StreamUpdateMode::kAuto: return "auto";
    case StreamUpdateMode::kIncremental: return "incremental";
    case StreamUpdateMode::kRecompute: return "recompute";
    }
    return "?";
}

/// Resolve StreamUpdateMode::kAuto with model::predict_stream_traffic's
/// closed-form per-push byte forecast (integral_video.cpp; deterministic,
/// no calibration run).  Non-auto modes pass through verbatim.
[[nodiscard]] StreamUpdateMode
resolve_stream_mode(StreamUpdateMode mode, DtypePair dtypes,
                    std::int64_t height, std::int64_t width,
                    std::int64_t window);

/// Serial oracle for a window's aggregate SAT: the elementwise sum of
/// sat_serial over the window's frames.
template <typename Tout, typename Tin>
[[nodiscard]] Matrix<Tout>
window_sat_serial(std::span<const Matrix<Tin>* const> frames)
{
    SATGPU_EXPECTS(!frames.empty());
    Matrix<Tout> acc(frames[0]->height(), frames[0]->width());
    for (const Matrix<Tin>* f : frames) {
        const Matrix<Tout> s = sat_serial<Tout>(*f);
        for (std::int64_t i = 0; i < acc.size(); ++i)
            acc.flat()[static_cast<std::size_t>(i)] = static_cast<Tout>(
                acc.flat()[static_cast<std::size_t>(i)] +
                s.flat()[static_cast<std::size_t>(i)]);
    }
    return acc;
}

/// Sliding window of the last T frames' aggregate SAT, maintained on the
/// device.  push() returns the LaunchStats of that push alone, so callers
/// (bench_stream, the service's StreamSession) can meter per-push device
/// traffic; window_table() reads the current aggregate, whose rect_sum
/// answers windowed box queries in four lookups.
///
/// kIncremental keeps the last T per-frame SATs resident in a ring of
/// device buffers (T * H * W * sizeof(Tout) bytes -- the documented memory
/// bound; each is the adopted result of its frame's build, never copied)
/// and pays one SAT build plus one fused add/subtract pass per push, which
/// reads the new and the leaving SAT in place.
/// kRecompute keeps raw frames and rebuilds the aggregate from scratch
/// (T SAT builds + T add passes) -- the from-scratch twin every
/// incremental result is fuzz-diffed against.  Both are bit-identical to
/// window_sat_serial over the frames currently in the window.
template <typename Tout, typename Tin>
class SlidingWindowSat {
public:
    SlidingWindowSat(simt::Engine& eng, std::int64_t window, std::int64_t h,
                     std::int64_t w, Options opt = {},
                     TileGeometry tile = {},
                     StreamUpdateMode mode = StreamUpdateMode::kIncremental)
        : eng_(&eng), window_(window), h_(h), w_(w), opt_(opt), tile_(tile),
          mode_(resolve_stream_mode(mode, make_pair_of<Tin, Tout>(), h, w,
                                    window)),
          win_(simt::acquire_or_new<Tout>(opt.pool, h * w,
                                          opt.pool_partition))
    {
        SATGPU_EXPECTS(window > 0 && h > 0 && w > 0);
    }

    [[nodiscard]] StreamUpdateMode mode() const noexcept { return mode_; }
    [[nodiscard]] std::int64_t window() const noexcept { return window_; }
    /// Frames currently aggregated (saturates at window()).
    [[nodiscard]] std::int64_t occupancy() const noexcept
    {
        return std::min(pushed_, window_);
    }
    [[nodiscard]] std::int64_t frames_pushed() const noexcept
    {
        return pushed_;
    }
    /// Bytes the ring holds resident (the streaming memory bound).
    [[nodiscard]] std::uint64_t ring_bytes() const noexcept
    {
        const auto per = static_cast<std::uint64_t>(h_ * w_) *
                         (mode_ == StreamUpdateMode::kIncremental
                              ? sizeof(Tout)
                              : sizeof(Tin));
        return static_cast<std::uint64_t>(occupancy()) * per;
    }

    /// Ingest one frame; returns the launches of THIS push (device-traffic
    /// metering).  The oldest frame leaves the window once it is full.
    const std::vector<simt::LaunchStats>& push(const Matrix<Tin>& frame)
    {
        SATGPU_EXPECTS(frame.height() == h_ && frame.width() == w_);
        last_.clear();
        const std::int64_t n = h_ * w_;
        const bool native = opt_.backend == Backend::kNative;
        const auto slot =
            static_cast<std::size_t>(pushed_ % window_);
        if (mode_ == StreamUpdateMode::kIncremental) {
            simt::DeviceBuffer<Tout> cur = build_sat(frame);
            if (pushed_ >= window_)
                last_.push_back(launch_window_update<Tout>(
                    *eng_, cur, sat_ring_[slot], n, *win_, native));
            else
                last_.push_back(launch_temporal_add<Tout>(*eng_, cur, n,
                                                          *win_, native));
            if (sat_ring_.size() <= slot)
                sat_ring_.resize(slot + 1);
            sat_ring_[slot] = std::move(cur);
        } else {
            if (frame_ring_.size() <= slot)
                frame_ring_.resize(slot + 1);
            frame_ring_[slot] = frame;
            // From scratch: a fresh (pool-cleared) aggregate, then every
            // window frame's SAT rebuilt from its raw pixels and added.
            win_ = simt::acquire_or_new<Tout>(opt_.pool, n,
                                              opt_.pool_partition);
            for (const auto& f : frame_ring_) {
                const simt::DeviceBuffer<Tout> cur = build_sat(f);
                last_.push_back(launch_temporal_add<Tout>(*eng_, cur, n,
                                                          *win_, native));
            }
        }
        ++pushed_;
        return last_;
    }

    /// The window's aggregate SAT (rect_sum of it = windowed box sum).
    [[nodiscard]] Matrix<Tout> window_table() const
    {
        return win_->to_matrix(h_, w_);
    }

    /// Windowed box sum over the inclusive rectangle [y0,y1] x [x0,x1]
    /// clamped to the frame (clamped_rect_sum: 0 when empty or reversed),
    /// read in place from the resident aggregate with four lookups.
    [[nodiscard]] Tout window_sum(std::int64_t y0, std::int64_t x0,
                                  std::int64_t y1, std::int64_t x1) const
    {
        return clamped_rect_sum(win_->host(), h_, w_, y0, x0, y1, x1);
    }

    [[nodiscard]] const std::vector<simt::LaunchStats>&
    last_push_launches() const noexcept
    {
        return last_;
    }

private:
    /// Build one frame's SAT, append its launches to this push's, and
    /// adopt the table as a device buffer (no copy).
    [[nodiscard]] simt::DeviceBuffer<Tout> build_sat(const Matrix<Tin>& f)
    {
        SatResult<Tout> res =
            tile_.enabled()
                ? compute_sat_tiled<Tout, Tin>(*eng_, f, tile_, opt_)
                : compute_sat<Tout, Tin>(*eng_, f, opt_);
        last_.insert(last_.end(), std::make_move_iterator(res.launches.begin()),
                     std::make_move_iterator(res.launches.end()));
        return simt::DeviceBuffer<Tout>::adopt(std::move(res.table));
    }

    simt::Engine* eng_;
    std::int64_t window_;
    std::int64_t h_, w_;
    Options opt_;
    TileGeometry tile_;
    StreamUpdateMode mode_;
    std::int64_t pushed_ = 0;
    std::vector<simt::DeviceBuffer<Tout>> sat_ring_; ///< kIncremental
    std::vector<Matrix<Tin>> frame_ring_; ///< kRecompute: raw frames
    simt::BufferPool::Lease<Tout> win_;
    std::vector<simt::LaunchStats> last_;
};

} // namespace satgpu::sat
