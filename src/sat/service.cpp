#include "sat/service.hpp"

#include "model/gpu_specs.hpp"
#include "model/timing.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

namespace satgpu::sat {

namespace {

[[nodiscard]] std::uint64_t image_bytes(const AnyMatrix& m)
{
    return static_cast<std::uint64_t>(m.height()) *
           static_cast<std::uint64_t>(m.width()) * dtype_size(m.dtype());
}

// Metric names, one place.  Counters/histograms are per-plan (label =
// plan_key_label); the queue gauges are service wide (unlabeled).
constexpr std::string_view kSubmitted = "satgpu_service_submitted_total";
constexpr std::string_view kCompleted = "satgpu_service_completed_total";
constexpr std::string_view kFailed = "satgpu_service_failed_total";
constexpr std::string_view kRejected = "satgpu_service_rejected_total";
constexpr std::string_view kBlocked = "satgpu_service_blocked_total";
constexpr std::string_view kOversized =
    "satgpu_service_oversized_escapes_total";
constexpr std::string_view kWaves = "satgpu_service_waves_total";
constexpr std::string_view kFused = "satgpu_service_fused_requests_total";
constexpr std::string_view kPoolHighWater =
    "satgpu_service_pool_high_water_bytes";
constexpr std::string_view kBackendNative =
    "satgpu_service_plan_backend_native";
constexpr std::string_view kCertified = "satgpu_service_plan_certified";
constexpr std::string_view kWaveSize = "satgpu_service_wave_size";
constexpr std::string_view kQueueWaitUs = "satgpu_service_queue_wait_us";
constexpr std::string_view kExecuteUs = "satgpu_service_execute_us";
constexpr std::string_view kE2eUs = "satgpu_service_e2e_us";
constexpr std::string_view kQueueDepth = "satgpu_service_queue_depth";
constexpr std::string_view kQueueDepthPeak =
    "satgpu_service_queue_depth_peak";
constexpr std::string_view kQueuedBytes = "satgpu_service_queued_bytes";
// Streaming sessions (docs/streaming.md); labeled by StreamSession::label.
constexpr std::string_view kStreamFrames =
    "satgpu_service_stream_frames_total";
constexpr std::string_view kStreamBytes =
    "satgpu_service_stream_device_bytes_total";
constexpr std::string_view kStreamIncremental =
    "satgpu_service_stream_incremental_pushes_total";
constexpr std::string_view kStreamRecompute =
    "satgpu_service_stream_recompute_pushes_total";
constexpr std::string_view kStreamRingBytes =
    "satgpu_service_stream_ring_bytes";
constexpr std::string_view kStreamPushUs = "satgpu_service_stream_push_us";

[[nodiscard]] std::uint64_t us_ticks(double us)
{
    return us <= 0 ? 0 : static_cast<std::uint64_t>(std::llround(us));
}

} // namespace

std::string plan_key_label(const PlanKey& key)
{
    std::string s = std::to_string(key.height) + "x" +
                    std::to_string(key.width) + "/" +
                    pair_name(key.dtypes) + "/" +
                    std::string(to_string(key.algorithm));
    if (key.tile.enabled())
        s += "/tile" + std::to_string(key.tile.tile_h) + "x" +
             std::to_string(key.tile.tile_w);
    if (key.warp_scan != scan::WarpScanKind::kKoggeStone)
        s += "/" + std::string(scan::to_string(key.warp_scan));
    if (!key.padded_smem)
        s += "/unpadded";
    if (key.check)
        s += "/check";
    if (key.backend != Backend::kSim)
        s += "/backend=" + std::string(to_string(key.backend));
    if (query_enabled(key.query)) {
        s += "/query=" + query_label(key.query);
        if (key.query_mode != QueryMode::kAuto)
            s += "/qmode=" + std::string(to_string(key.query_mode));
    }
    return s;
}

PlanKey plan_key(const PlanRequest& req) noexcept
{
    return PlanKey{.height = req.height,
                   .width = req.width,
                   .dtypes = req.dtypes,
                   .algorithm = req.algorithm,
                   .warp_scan = req.warp_scan,
                   .padded_smem = req.padded_smem,
                   .tile = req.tile,
                   .check = req.check,
                   .backend = req.backend,
                   .query = req.query,
                   .query_mode = req.query_mode};
}

std::size_t PlanKeyHash::operator()(const PlanKey& k) const noexcept
{
    std::size_t seed = 0;
    const auto mix = [&seed](std::uint64_t v) {
        // splitmix64-style avalanche, folded boost::hash_combine style.
        v += 0x9e3779b97f4a7c15ull;
        v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ull;
        v = (v ^ (v >> 27)) * 0x94d049bb133111ebull;
        v ^= v >> 31;
        seed ^= static_cast<std::size_t>(v) + 0x9e3779b9u + (seed << 6) +
                (seed >> 2);
    };
    mix(static_cast<std::uint64_t>(k.height));
    mix(static_cast<std::uint64_t>(k.width));
    mix(static_cast<std::uint64_t>(k.dtypes.in) * 16 +
        static_cast<std::uint64_t>(k.dtypes.out));
    mix(static_cast<std::uint64_t>(k.algorithm));
    mix(static_cast<std::uint64_t>(k.warp_scan));
    mix((k.padded_smem ? 1u : 0u) | (k.check ? 2u : 0u) |
        (static_cast<std::uint64_t>(k.backend) << 2));
    mix(static_cast<std::uint64_t>(k.tile.tile_h));
    mix(static_cast<std::uint64_t>(k.tile.tile_w));
    mix(static_cast<std::uint64_t>(k.tile.carry_fanout));
    if (query_enabled(k.query)) {
        // The label is a complete, stable encoding of the spec's variant
        // and every parameter, so hashing it keeps this function in sync
        // with any future spec field for free.
        mix(std::hash<std::string>{}(query_label(k.query)));
        mix(static_cast<std::uint64_t>(k.query_mode));
    }
    return seed;
}

Service::Service(Options opt)
    : opt_(opt),
      clock_(opt.virtual_time ? obs::TraceClock::Mode::kVirtual
                              : obs::TraceClock::Mode::kWall)
{
    SATGPU_CHECK(opt_.workers >= 1, "Service needs at least one worker");
    SATGPU_CHECK(opt_.max_wave >= 1, "Service max_wave must be >= 1");
    SATGPU_CHECK(opt_.max_queue >= 1, "Service max_queue must be >= 1");
    if (opt_.metrics != nullptr) {
        metrics_ = opt_.metrics;
    } else {
        owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
        metrics_ = owned_metrics_.get();
    }
    trace_ = opt_.trace;
    events_ = opt_.events;
    g_queue_depth_ = &metrics_->gauge(kQueueDepth);
    g_queue_depth_peak_ = &metrics_->gauge(kQueueDepthPeak);
    g_queued_bytes_ = &metrics_->gauge(kQueuedBytes);
    workers_.reserve(static_cast<std::size_t>(opt_.workers));
    for (int i = 0; i < opt_.workers; ++i) {
        auto w = std::make_unique<Worker>();
        w->index = i;
        simt::Engine::Options eo;
        eo.record_history = false;
        eo.num_threads = opt_.engine_threads;
        w->rt = std::make_unique<Runtime>(eo);
        workers_.push_back(std::move(w));
    }
    for (auto& w : workers_)
        w->thread = std::thread([this, worker = w.get()] {
            worker_main(*worker);
        });
}

Service::~Service()
{
    {
        std::lock_guard lk(mu_);
        stopping_ = true;
    }
    cv_work_.notify_all();
    cv_space_.notify_all();
    for (auto& w : workers_)
        if (w->thread.joinable())
            w->thread.join();
}

std::future<AnyMatrix> Service::submit(Request req)
{
    SATGPU_CHECK(!req.image.empty(), "Service::submit: empty image");
    const DtypePair dt{req.image.dtype(), req.out};
    SATGPU_CHECK(find_kernel(dt) != nullptr,
                 "Service::submit: unsupported dtype pair");
    if (query_enabled(req.query))
        validate_query(req.query, dt); // abort on the caller, not a worker

    const PlanKey key{.height = req.image.height(),
                      .width = req.image.width(),
                      .dtypes = dt,
                      .algorithm = req.algorithm,
                      .warp_scan = req.warp_scan,
                      .padded_smem = req.padded_smem,
                      .tile = req.tile,
                      .check = req.check,
                      .backend = req.backend,
                      .query = req.query,
                      .query_mode = req.query_mode};
    const std::uint64_t bytes = image_bytes(req.image);

    std::promise<AnyMatrix> prom;
    std::future<AnyMatrix> fut = prom.get_future();

    std::unique_lock lk(mu_);
    SATGPU_CHECK(!stopping_, "Service::submit after shutdown began");

    const obs::RequestId rid = ++next_request_;
    const std::uint64_t t_submit = clock_.now_us();
    const auto admission_event = [&](std::string_view event,
                                     std::string_view reason) {
        if (events_ == nullptr)
            return;
        // Cold path by construction; the label allocation is acceptable.
        events_->record({.event = event,
                         .reason = reason,
                         .request = rid,
                         .plan = plan_key_label(key),
                         .t_us = clock_.now_us(),
                         .queue_depth = queue_.size(),
                         .queued_bytes = queued_bytes_,
                         .request_bytes = bytes});
    };
    const auto full_reason = [&]() -> std::string_view {
        return queue_.size() >= opt_.max_queue ? "queue_depth"
                                               : "queue_bytes";
    };
    // Admission counters: use the plan's registered bundle when the key
    // has been admitted before (the common case, and the one that keeps
    // the exposition schema independent of whether backpressure fired);
    // a never-admitted key registers its series ad hoc without inserting
    // a cache entry.
    const auto admission_counter =
        [&](std::string_view name) -> obs::Counter& {
        if (const auto it = cache_.find(key); it != cache_.end())
            return name == kRejected ? *it->second->metrics.rejected
                                     : *it->second->metrics.blocked;
        return metrics_->counter(name, plan_key_label(key));
    };

    // Admission control first: a rejected request never touches the plan
    // cache, so hit/miss counts describe admitted traffic only.
    if (!queue_has_room(bytes)) {
        if (opt_.policy == AdmissionPolicy::kReject) {
            ++stats_.rejected;
            admission_counter(kRejected).inc();
            admission_event("reject", full_reason());
            prom.set_exception(std::make_exception_ptr(QueueFullError{}));
            return fut;
        }
        ++stats_.blocked;
        admission_counter(kBlocked).inc();
        admission_event("block", full_reason());
        cv_space_.wait(lk, [&] {
            return stopping_ || queue_has_room(bytes);
        });
        if (stopping_) {
            ++stats_.rejected;
            admission_counter(kRejected).inc();
            admission_event("reject", "stopped");
            prom.set_exception(
                std::make_exception_ptr(ServiceStoppedError{}));
            return fut;
        }
    }
    // The escape hatch fired: an over-cap request was admitted because the
    // queue was empty (queue_has_room ignores the byte cap then).
    const bool oversized = opt_.max_queue_bytes > 0 && queue_.empty() &&
                           bytes > opt_.max_queue_bytes;

    CacheEntry* entry = nullptr;
    if (auto it = cache_.find(key); it != cache_.end()) {
        entry = it->second.get();
        ++stats_.plan_hits;
    } else {
        auto e = std::make_unique<CacheEntry>();
        e->key = key;
        e->partition = next_partition_++;
        e->label = plan_key_label(key);
        e->metrics = PlanMetrics{
            .submitted = &metrics_->counter(kSubmitted, e->label),
            .completed = &metrics_->counter(kCompleted, e->label),
            .failed = &metrics_->counter(kFailed, e->label),
            .rejected = &metrics_->counter(kRejected, e->label),
            .blocked = &metrics_->counter(kBlocked, e->label),
            .waves = &metrics_->counter(kWaves, e->label),
            .fused = &metrics_->counter(kFused, e->label),
            .oversized = &metrics_->counter(kOversized, e->label),
            .pool_high_water = &metrics_->gauge(kPoolHighWater, e->label),
            .backend_native = &metrics_->gauge(kBackendNative, e->label),
            .certified = &metrics_->gauge(kCertified, e->label),
            .wave_size = &metrics_->histogram(kWaveSize, e->label),
            .queue_wait_us = &metrics_->histogram(kQueueWaitUs, e->label),
            .execute_us = &metrics_->histogram(kExecuteUs, e->label),
            .e2e_us = &metrics_->histogram(kE2eUs, e->label)};
        entry = e.get();
        cache_.emplace(key, std::move(e));
        ++stats_.plan_misses;
    }

    ++stats_.submitted;
    entry->metrics.submitted->inc();
    if (oversized) {
        entry->metrics.oversized->inc();
        admission_event("oversized_escape", "");
    }
    queue_.push_back(Item{.entry = entry,
                          .image = std::move(req.image),
                          .promise = std::move(prom),
                          .bytes = bytes,
                          .id = rid,
                          .t_submit = t_submit});
    queued_bytes_ += bytes;
    stats_.max_queue_depth =
        std::max<std::uint64_t>(stats_.max_queue_depth, queue_.size());
    g_queue_depth_->set(static_cast<std::int64_t>(queue_.size()));
    g_queue_depth_peak_->set_max(static_cast<std::int64_t>(queue_.size()));
    g_queued_bytes_->set(static_cast<std::int64_t>(queued_bytes_));
    // notify_all, not notify_one: a worker lingering for stragglers of a
    // different key may consume a notify_one and go back to sleep, leaving
    // an idle worker unwoken.
    cv_work_.notify_all();
    return fut;
}

std::future<AnyMatrix> Service::submit(AnyMatrix image, Dtype out)
{
    Request req;
    req.image = std::move(image);
    req.out = out;
    return submit(std::move(req));
}

Service::Stats Service::stats() const
{
    std::lock_guard lk(mu_);
    return stats_;
}

obs::MetricsRegistry& Service::metrics() const noexcept
{
    return *metrics_;
}

std::string Service::metrics_text() const
{
    std::ostringstream os;
    metrics_->write_text(os);
    return std::move(os).str();
}

std::string Service::metrics_json() const
{
    std::ostringstream os;
    metrics_->write_json(os);
    return std::move(os).str();
}

std::size_t Service::plan_cache_size() const
{
    std::lock_guard lk(mu_);
    return cache_.size();
}

std::uint64_t Service::plan_high_water_bytes(const PlanKey& key) const
{
    std::lock_guard lk(mu_);
    const auto it = cache_.find(key);
    return it == cache_.end() ? 0 : it->second->high_water_bytes;
}

std::vector<Service::PlanInfo> Service::plan_info() const
{
    std::vector<PlanInfo> out;
    std::lock_guard lk(mu_);
    out.reserve(cache_.size());
    for (const auto& [key, e] : cache_) {
        PlanInfo pi;
        pi.key = key;
        pi.label = e->label;
        std::lock_guard elk(e->mu);
        pi.resolved = e->resolved;
        pi.algorithm = e->resolved ? e->resolved_algo : key.algorithm;
        pi.backend = e->resolved ? e->resolved_backend : key.backend;
        pi.certified = e->resolved_certified;
        out.push_back(std::move(pi));
    }
    std::sort(out.begin(), out.end(),
              [](const PlanInfo& a, const PlanInfo& b) {
                  return a.label < b.label;
              });
    return out;
}

bool Service::queue_has_room(std::uint64_t bytes) const
{
    if (queue_.size() >= opt_.max_queue)
        return false;
    if (opt_.max_queue_bytes > 0 && !queue_.empty() &&
        queued_bytes_ + bytes > opt_.max_queue_bytes)
        return false;
    return true;
}

void Service::gather_same_key(CacheEntry* entry, std::vector<Item>& batch,
                              std::uint64_t wave_id, int worker)
{
    const auto cap = static_cast<std::size_t>(opt_.max_wave);
    const std::uint64_t t_gather = clock_.now_us();
    for (auto it = queue_.begin();
         it != queue_.end() && batch.size() < cap;) {
        if (it->entry == entry) {
            queued_bytes_ -= it->bytes;
            entry->metrics.queue_wait_us->observe(
                t_gather > it->t_submit ? t_gather - it->t_submit : 0);
            if (trace_ != nullptr)
                trace_->record_span({.kind = obs::SpanKind::kQueued,
                                     .request = it->id,
                                     .wave = wave_id,
                                     .worker = worker,
                                     .slot = static_cast<int>(batch.size()),
                                     .t_begin = it->t_submit,
                                     .t_end = t_gather,
                                     .plan = entry->label});
            batch.push_back(std::move(*it));
            it = queue_.erase(it);
        } else {
            ++it;
        }
    }
    g_queue_depth_->set(static_cast<std::int64_t>(queue_.size()));
    g_queued_bytes_->set(static_cast<std::int64_t>(queued_bytes_));
    cv_space_.notify_all();
}

void Service::worker_main(Worker& w)
{
    std::unique_lock lk(mu_);
    for (;;) {
        cv_work_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) {
            if (stopping_)
                return;
            continue;
        }

        CacheEntry* entry = queue_.front().entry;
        const std::uint64_t wave_id = ++next_wave_;
        const std::uint64_t t_assemble = clock_.now_us();
        std::vector<Item> batch;
        gather_same_key(entry, batch, wave_id, w.index);

        // Linger: hold a non-full wave open for stragglers of the same
        // key.  Items of other keys stay queued for other workers.
        if (opt_.max_linger.count() > 0 &&
            batch.size() < static_cast<std::size_t>(opt_.max_wave)) {
            const auto deadline =
                std::chrono::steady_clock::now() + opt_.max_linger;
            const auto has_same_key = [&] {
                return std::any_of(
                    queue_.begin(), queue_.end(),
                    [&](const Item& i) { return i.entry == entry; });
            };
            while (batch.size() < static_cast<std::size_t>(opt_.max_wave)) {
                const bool woke = cv_work_.wait_until(lk, deadline, [&] {
                    return stopping_ || has_same_key();
                });
                if (!woke)
                    break; // lingered out
                if (has_same_key())
                    gather_same_key(entry, batch, wave_id, w.index);
                if (stopping_ && !has_same_key())
                    break;
            }
        }

        stats_.waves += 1;
        stats_.max_wave_size =
            std::max<std::uint64_t>(stats_.max_wave_size, batch.size());
        if (batch.size() > 1)
            stats_.fused_requests += batch.size();
        entry->metrics.waves->inc();
        entry->metrics.wave_size->observe(batch.size());
        if (batch.size() > 1)
            entry->metrics.fused->inc(batch.size());

        lk.unlock();
        run_wave(w, entry, std::move(batch), wave_id, t_assemble);
        lk.lock();
    }
}

void Service::run_wave(Worker& w, CacheEntry* entry, std::vector<Item> batch,
                       std::uint64_t wave_id, std::uint64_t t_assemble)
{
    try {
        const Plan& plan = plan_for(w, entry);
        std::vector<const AnyMatrix*> images;
        images.reserve(batch.size());
        for (const Item& item : batch)
            images.push_back(&item.image);

        const std::uint64_t t_exec_begin = clock_.now_us();
        WaveResult wave = plan.execute_wave(images);

        const model::GpuSpec& gpu =
            opt_.gpu != nullptr ? *opt_.gpu : model::tesla_p100();
        const double us = model::estimate_total_us(gpu, wave.launches);
        // On the virtual clock, execution "takes" its modeled GPU time, so
        // execute/e2e latencies mean the same thing they would on
        // hardware; on the wall clock this is a no-op.
        clock_.advance(us_ticks(us));
        const std::uint64_t t_exec_end = clock_.now_us();
        entry->metrics.execute_us->observe(
            t_exec_end > t_exec_begin ? t_exec_end - t_exec_begin : 0);
        // Snapshot this worker's partition high-water while still on the
        // worker thread (the pool is thread-private).
        const std::uint64_t hw =
            w.rt->pool().high_water_bytes(entry->partition);
        entry->metrics.pool_high_water->set_max(
            static_cast<std::int64_t>(hw));

        if (trace_ != nullptr) {
            trace_->record_span({.kind = obs::SpanKind::kAssembled,
                                 .wave = wave_id,
                                 .worker = w.index,
                                 .t_begin = t_assemble,
                                 .t_end = t_exec_begin,
                                 .plan = entry->label});
            trace_->record_span({.kind = obs::SpanKind::kExecute,
                                 .wave = wave_id,
                                 .worker = w.index,
                                 .t_begin = t_exec_begin,
                                 .t_end = t_exec_end,
                                 .plan = entry->label,
                                 .backend = plan.backend()});
            trace_->record_wave({.wave = wave_id,
                                 .worker = w.index,
                                 .t_exec_begin = t_exec_begin,
                                 .t_exec_end = t_exec_end,
                                 .plan = entry->label,
                                 .backend = plan.backend(),
                                 .launches = wave.launches});
        }

        // Stats first, futures second: a client that has joined on every
        // future must never observe a completed count that lags it.  The
        // same contract covers the per-plan counters and the e2e
        // histogram: all observed before the corresponding set_value.
        {
            std::lock_guard slk(mu_);
            stats_.completed += batch.size();
            stats_.modeled_gpu_us += us;
            entry->high_water_bytes = std::max(entry->high_water_bytes, hw);
        }
        entry->metrics.completed->inc(batch.size());
        const std::uint64_t t_done = clock_.now_us();
        for (std::size_t i = 0; i < batch.size(); ++i) {
            entry->metrics.e2e_us->observe(
                t_done > batch[i].t_submit ? t_done - batch[i].t_submit
                                           : 0);
            if (trace_ != nullptr)
                trace_->record_span({.kind = obs::SpanKind::kFulfilled,
                                     .request = batch[i].id,
                                     .wave = wave_id,
                                     .worker = w.index,
                                     .slot = static_cast<int>(i),
                                     .t_begin = t_exec_end,
                                     .t_end = t_done,
                                     .plan = entry->label});
            batch[i].promise.set_value(std::move(wave.tables[i]));
        }
    } catch (...) {
        {
            std::lock_guard slk(mu_);
            stats_.failed += batch.size();
        }
        entry->metrics.failed->inc(batch.size());
        const auto err = std::current_exception();
        for (Item& item : batch)
            item.promise.set_exception(err);
    }
}

Plan& Service::plan_for(Worker& w, CacheEntry* entry)
{
    if (const auto it = w.plans.find(entry); it != w.plans.end())
        return it->second;

    PlanRequest preq{.height = entry->key.height,
                     .width = entry->key.width,
                     .dtypes = entry->key.dtypes,
                     .algorithm = entry->key.algorithm,
                     .warp_scan = entry->key.warp_scan,
                     .padded_smem = entry->key.padded_smem,
                     .gpu = opt_.gpu,
                     .tile = entry->key.tile,
                     .check = entry->key.check,
                     // Profiling is what lets the trace nest kernel phase
                     // ranges under plan.execute; without a sink it stays
                     // off and plans run at historical cost.  It also
                     // forces the simulator backend (the native lowering
                     // carries no instrumentation).
                     .profile = trace_ != nullptr,
                     .pool_partition = entry->partition,
                     .backend = entry->key.backend,
                     .query = entry->key.query,
                     .query_mode = entry->key.query_mode};

    std::unique_lock elk(entry->mu);
    if (entry->resolved) {
        // Another worker already paid the kAuto ranking; plan the concrete
        // algorithm directly (identical Plan, no calibration pass).  The
        // backend stays the requested one: certification is deterministic,
        // so every worker resolves the same executing backend.
        preq.algorithm = entry->resolved_algo;
    }
    Plan plan = w.rt->plan(preq);
    if (!entry->resolved) {
        entry->resolved_algo = plan.algorithm();
        entry->resolved_backend = plan.backend();
        entry->resolved_certified = plan.certified();
        entry->resolved = true;
        entry->metrics.backend_native->set(
            plan.backend() == Backend::kNative ? 1 : 0);
        entry->metrics.certified->set(plan.certified() ? 1 : 0);
    }
    // Release the entry before taking mu_: plan_info() locks mu_, then
    // each entry's mu.
    elk.unlock();
    {
        std::lock_guard slk(mu_);
        ++stats_.plans_instantiated;
    }
    return w.plans.emplace(entry, std::move(plan)).first->second;
}

// ---------------------------------------------------------------------------
// StreamSession: the streaming sliding-window front door (docs/streaming.md).

/// Type-erasure seam over SlidingWindowSat<Tout, Tin>: one virtual hop per
/// push, everything below it is the templated kernel layer.
struct StreamSession::Impl {
    Impl() = default;
    Impl(const Impl&) = delete;
    Impl& operator=(const Impl&) = delete;
    virtual ~Impl() = default;
    virtual const std::vector<simt::LaunchStats>&
    push(const AnyMatrix& frame) = 0;
    [[nodiscard]] virtual AnyMatrix table() const = 0;
    [[nodiscard]] virtual double sum(std::int64_t y0, std::int64_t x0,
                                     std::int64_t y1,
                                     std::int64_t x1) const = 0;
    [[nodiscard]] virtual std::uint64_t ring_bytes() const = 0;
};

namespace {

template <typename Tin, typename Tout>
struct StreamImplT final : StreamSession::Impl {
    SlidingWindowSat<Tout, Tin> win;

    StreamImplT(simt::Engine& eng, std::int64_t window, std::int64_t h,
                std::int64_t w, const satgpu::sat::Options& opt,
                const TileGeometry& tile, StreamUpdateMode mode)
        : win(eng, window, h, w, opt, tile, mode)
    {
    }

    const std::vector<simt::LaunchStats>&
    push(const AnyMatrix& frame) override
    {
        return win.push(frame.as<Tin>());
    }
    [[nodiscard]] AnyMatrix table() const override
    {
        return AnyMatrix(win.window_table());
    }
    [[nodiscard]] double sum(std::int64_t y0, std::int64_t x0,
                             std::int64_t y1, std::int64_t x1) const override
    {
        return static_cast<double>(
            rect_sum(win.window_table(), y0, x0, y1, x1));
    }
    [[nodiscard]] std::uint64_t ring_bytes() const override
    {
        return win.ring_bytes();
    }
};

} // namespace

StreamSession::StreamSession(Service& svc, Options opt)
    : svc_(&svc), opt_(opt)
{
    SATGPU_CHECK(opt_.height > 0 && opt_.width > 0,
                 "StreamSession: non-positive frame shape");
    SATGPU_CHECK(opt_.window > 0, "StreamSession: window must be >= 1");
    SATGPU_CHECK(find_kernel(opt_.dtypes) != nullptr,
                 "StreamSession: unsupported dtype pair");

    simt::Engine::Options eo;
    eo.record_history = false;
    eo.num_threads = opt_.engine_threads;
    rt_ = std::make_unique<Runtime>(eo);

    // Resolve kAuto once per session on the session's own cost model, the
    // way a plan-cache entry's first submission does (deterministic:
    // counter-based ranking).
    const Plan probe = rt_->plan({.height = opt_.height,
                                  .width = opt_.width,
                                  .dtypes = opt_.dtypes,
                                  .algorithm = opt_.algorithm,
                                  .warp_scan = opt_.warp_scan,
                                  .padded_smem = opt_.padded_smem,
                                  .gpu = svc.opt_.gpu,
                                  .tile = opt_.tile});
    algo_ = probe.algorithm();
    mode_ = resolve_stream_mode(opt_.mode, opt_.dtypes, opt_.height,
                                opt_.width, opt_.window);
    label_ = plan_key_label(PlanKey{.height = opt_.height,
                                    .width = opt_.width,
                                    .dtypes = opt_.dtypes,
                                    .algorithm = algo_,
                                    .warp_scan = opt_.warp_scan,
                                    .padded_smem = opt_.padded_smem,
                                    .tile = opt_.tile}) +
             "/stream=" + std::to_string(opt_.window) + "/" +
             std::string(to_string(mode_));

    const satgpu::sat::Options exec{.algorithm = algo_,
                                    .warp_scan = opt_.warp_scan,
                                    .padded_smem = opt_.padded_smem,
                                    .pool = &rt_->pool()};
    visit_paper_pair(opt_.dtypes, [&](auto ti, auto to) {
        using Tin = typename decltype(ti)::type;
        using Tout = typename decltype(to)::type;
        impl_ = std::make_unique<StreamImplT<Tin, Tout>>(
            rt_->engine(), opt_.window, opt_.height, opt_.width, exec,
            opt_.tile, mode_);
    });

    c_frames_ = &svc_->metrics_->counter(kStreamFrames, label_);
    c_bytes_ = &svc_->metrics_->counter(kStreamBytes, label_);
    c_incremental_ = &svc_->metrics_->counter(kStreamIncremental, label_);
    c_recompute_ = &svc_->metrics_->counter(kStreamRecompute, label_);
    g_ring_bytes_ = &svc_->metrics_->gauge(kStreamRingBytes, label_);
    h_push_us_ = &svc_->metrics_->histogram(kStreamPushUs, label_);
}

StreamSession::~StreamSession() = default;

void StreamSession::push(const AnyMatrix& frame)
{
    SATGPU_CHECK(!frame.empty(), "StreamSession::push: empty frame");
    SATGPU_CHECK(frame.dtype() == opt_.dtypes.in,
                 "StreamSession::push: frame dtype mismatch");
    SATGPU_CHECK(frame.height() == opt_.height &&
                     frame.width() == opt_.width,
                 "StreamSession::push: frame shape mismatch");

    std::lock_guard lk(mu_);
    // The push joins the service's wave sequence so traces interleave
    // streaming pushes with request waves on one timeline.
    std::uint64_t wave_id = 0;
    {
        std::lock_guard slk(svc_->mu_);
        SATGPU_CHECK(!svc_->stopping_,
                     "StreamSession::push after service shutdown began");
        wave_id = ++svc_->next_wave_;
    }
    const std::uint64_t t_begin = svc_->clock_.now_us();
    const std::vector<simt::LaunchStats>& launches = impl_->push(frame);
    const model::GpuSpec& gpu =
        svc_->opt_.gpu != nullptr ? *svc_->opt_.gpu : model::tesla_p100();
    const double us = model::estimate_total_us(gpu, launches);
    svc_->clock_.advance(us_ticks(us));
    const std::uint64_t t_end = svc_->clock_.now_us();

    last_bytes_ = device_bytes(launches);
    ++pushed_;
    c_frames_->inc();
    c_bytes_->inc(last_bytes_);
    (mode_ == StreamUpdateMode::kIncremental ? c_incremental_
                                             : c_recompute_)
        ->inc();
    g_ring_bytes_->set(static_cast<std::int64_t>(impl_->ring_bytes()));
    h_push_us_->observe(t_end > t_begin ? t_end - t_begin : 0);

    if (svc_->trace_ != nullptr) {
        // worker = -1 marks session-local execution (no queue, no worker).
        svc_->trace_->record_span({.kind = obs::SpanKind::kExecute,
                                   .wave = wave_id,
                                   .worker = -1,
                                   .t_begin = t_begin,
                                   .t_end = t_end,
                                   .plan = label_,
                                   .backend = Backend::kSim});
        svc_->trace_->record_wave({.wave = wave_id,
                                   .worker = -1,
                                   .t_exec_begin = t_begin,
                                   .t_exec_end = t_end,
                                   .plan = label_,
                                   .backend = Backend::kSim,
                                   .launches = launches});
    }
}

AnyMatrix StreamSession::window_table() const
{
    std::lock_guard lk(mu_);
    return impl_->table();
}

double StreamSession::window_sum(std::int64_t y0, std::int64_t x0,
                                 std::int64_t y1, std::int64_t x1) const
{
    std::lock_guard lk(mu_);
    return impl_->sum(y0, x0, y1, x1);
}

std::int64_t StreamSession::frames_pushed() const
{
    std::lock_guard lk(mu_);
    return pushed_;
}

std::int64_t StreamSession::window() const noexcept
{
    return opt_.window;
}

StreamUpdateMode StreamSession::mode() const noexcept
{
    return mode_;
}

Algorithm StreamSession::algorithm() const noexcept
{
    return algo_;
}

const std::string& StreamSession::label() const noexcept
{
    return label_;
}

std::uint64_t StreamSession::last_push_bytes() const
{
    std::lock_guard lk(mu_);
    return last_bytes_;
}

std::uint64_t StreamSession::ring_bytes() const
{
    std::lock_guard lk(mu_);
    return impl_->ring_bytes();
}

std::unique_ptr<StreamSession>
Service::open_stream(StreamSession::Options opt)
{
    return std::unique_ptr<StreamSession>(
        new StreamSession(*this, std::move(opt)));
}

} // namespace satgpu::sat
