// sat::Service: the concurrent serving layer over the type-erased Runtime.
//
// The ROADMAP's north star is a SAT primitive serving "heavy traffic from
// millions of users"; this is that traffic's front door.  Clients call
// submit() from any thread and get a std::future for the finished table;
// inside, a configurable worker pool drains a shared submission queue.
// Three mechanisms turn many small requests into efficient device work:
//
//  * Plan cache: requests are keyed by every plan-shaping field (shape,
//    dtype pair, algorithm, warp-scan kind, smem padding, tile geometry,
//    check flag, backend, query).  The first submission of a key creates a
//    cache entry and resolves kAuto once (deterministically: native
//    requests take ScanRowColumn, simulator requests the counter-based
//    cost model's pick); every worker that later executes that key
//    instantiates its Plan from the already-resolved algorithm, so the
//    cost model's calibration runs are paid once per key per process,
//    not per worker.
//
//  * Coalescing: a worker popping a request also takes every other queued
//    request with the SAME key (up to Options::max_wave, optionally
//    lingering Options::max_linger for stragglers) and executes them as
//    one Plan::execute_wave -- each kernel pass runs once with grid.z = K
//    instead of K times, paying the fixed per-launch overhead once per
//    pass per wave.  Tables are bit-identical to per-request execution.
//
//  * Backpressure: submit() applies admission control against
//    Options::max_queue (depth) and Options::max_queue_bytes (queued input
//    footprint).  Policy kReject fails fast -- the returned future throws
//    QueueFullError; kBlock parks the submitter until space frees up.
//
// Determinism contract: every table a Service returns is bit-identical to
// Runtime::plan + Plan::execute on the same image, for every worker
// count, wave size, linger and queue depth (pinned by tests/test_service
// and the fuzzer's --service mode).  Only scheduling -- which worker ran
// a request, and which requests shared a wave -- varies.
//
// Each worker owns its own Runtime (Engine::launch is not reentrant), so
// workers never contend on an engine; each cached plan gets its own
// BufferPool partition, so one plan's pooled footprint never mixes with
// another's and per-plan high-water stays bounded by
// max_wave * workspace_bytes (see docs/service_layer.md).
#pragma once

#include "sat/integral_video.hpp"
#include "sat/metrics.hpp"
#include "sat/runtime.hpp"
#include "sat/trace.hpp"

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace satgpu::sat {

/// The plan-cache key: every field of PlanRequest that shapes the plan.
/// pool_partition is excluded (the service assigns it per entry) and so is
/// the GpuSpec pointer (a Service-wide setting, Options::gpu).  Two
/// requests map to the same cached plan iff their keys compare equal.
struct PlanKey {
    std::int64_t height = 0;
    std::int64_t width = 0;
    DtypePair dtypes{Dtype::u8_, Dtype::u32_};
    Algorithm algorithm = Algorithm::kAuto;
    scan::WarpScanKind warp_scan = scan::WarpScanKind::kKoggeStone;
    bool padded_smem = true;
    TileGeometry tile{};
    bool check = false;
    /// Requested backend (PlanRequest::backend).  Part of the key because
    /// it shapes the plan: kNative may resolve to a different algorithm
    /// and executing backend than kSim, and must never share a cache
    /// entry with a kSim request of the same shape.
    Backend backend = Backend::kSim;
    /// SAT-consumer query this plan serves (monostate = a plain SAT
    /// table) and how it consumes the table.  Plan shaping: a query
    /// changes what execute() returns, and a fused query rewrites the
    /// tile geometry (docs/fused_queries.md).
    QuerySpec query{};
    QueryMode query_mode = QueryMode::kAuto;

    friend bool operator==(const PlanKey&, const PlanKey&) = default;
};

/// Key of the plan a request would resolve to.
[[nodiscard]] PlanKey plan_key(const PlanRequest& req) noexcept;

/// Human-readable metric/trace label of a plan key:
/// "<h>x<w>/<in-out>/<algorithm>", plus "/tile<H>x<W>/fanout<F>" when
/// tiled (the carry fanout is part of the key), the warp-scan name when not Kogge-Stone, "/unpadded" and "/check"
/// when those ablation flags are set, and "/backend=<name>" when the
/// requested backend is not kSim.  Deterministic (pure function of
/// the key), so metric series and trace spans name plans identically
/// across runs.
[[nodiscard]] std::string plan_key_label(const PlanKey& key);

struct PlanKeyHash {
    [[nodiscard]] std::size_t operator()(const PlanKey& k) const noexcept;
};

/// Raised through the future returned by submit() when admission control
/// rejects a request (Options::policy == kReject and the queue is full).
class QueueFullError : public std::runtime_error {
public:
    QueueFullError() : std::runtime_error("sat::Service queue is full") {}
};

/// Raised through the future when the Service starts shutting down while
/// the request is still waiting for admission.
class ServiceStoppedError : public std::runtime_error {
public:
    ServiceStoppedError()
        : std::runtime_error("sat::Service is shutting down")
    {
    }
};

class Service;

/// A streaming submitter's handle on one sliding-window SAT
/// (docs/streaming.md): push frames in arrival order, read the window's
/// aggregate table (or a windowed box sum) at any point between pushes.
/// Opened by Service::open_stream; the session rides the service's
/// observability plane -- every push publishes the stream metric series
/// (frames / device bytes / ring bytes / push latency under the session's
/// label) into Service::metrics() and, when the service traces, emits a
/// plan.execute span plus a wave record carrying the push's LaunchStats.
///
/// Execution is session-local: the session owns a private Runtime
/// (Engine::launch is not reentrant, and worker runtimes are busy with
/// submit() traffic), so pushes never contend with the request queue.
/// push()/window_table() are mutex-serialized and safe to call from any
/// thread; distinct sessions are independent.  A session borrows the
/// Service (metrics, trace, clock) and must not outlive it.
class StreamSession {
public:
    struct Options {
        std::int64_t height = 0;
        std::int64_t width = 0;
        DtypePair dtypes{Dtype::u8_, Dtype::u32_};
        /// Sliding-window length T (frames aggregated per query).
        std::int64_t window = 8;
        /// kAuto resolves once at open_stream through the session
        /// runtime's cost model, like a cached plan's first submission.
        Algorithm algorithm = Algorithm::kAuto;
        scan::WarpScanKind warp_scan = scan::WarpScanKind::kKoggeStone;
        bool padded_smem = true;
        TileGeometry tile{};
        /// kAuto picks incremental vs recompute by forecast per-push
        /// device traffic (model::predict_stream_traffic).
        StreamUpdateMode mode = StreamUpdateMode::kAuto;
        /// Engine threads inside the session's private Runtime.
        int engine_threads = 1;
    };

    ~StreamSession();
    StreamSession(const StreamSession&) = delete;
    StreamSession& operator=(const StreamSession&) = delete;

    /// Ingest one frame (dtype/shape must match Options).  Synchronous:
    /// when it returns, window_table() reflects the new window and the
    /// push's metrics/spans are published.
    void push(const AnyMatrix& frame);

    /// The current window's aggregate SAT (dtype = Options::dtypes.out);
    /// rect_sum over it answers any windowed box query in four lookups.
    [[nodiscard]] AnyMatrix window_table() const;
    /// Windowed box sum over the inclusive rectangle [y0,y1] x [x0,x1]
    /// clamped to the frame (0 when empty or reversed), widened to double
    /// (integer dtypes wrap first, like rect_sum).
    [[nodiscard]] double window_sum(std::int64_t y0, std::int64_t x0,
                                    std::int64_t y1, std::int64_t x1) const;

    [[nodiscard]] std::int64_t frames_pushed() const;
    [[nodiscard]] std::int64_t window() const noexcept;
    /// Resolved update mode (never kAuto).
    [[nodiscard]] StreamUpdateMode mode() const noexcept;
    /// Resolved algorithm (never kAuto).
    [[nodiscard]] Algorithm algorithm() const noexcept;
    /// Metric/trace label: plan_key_label of the resolved plan shape +
    /// "/stream=<T>/<mode>".  Deterministic, like plan labels.
    [[nodiscard]] const std::string& label() const noexcept;
    /// Device bytes the most recent push moved (LaunchStats counters).
    [[nodiscard]] std::uint64_t last_push_bytes() const;
    /// Host bytes the ring currently holds resident (the streaming
    /// memory bound: occupancy * H * W * elem size).
    [[nodiscard]] std::uint64_t ring_bytes() const;

    /// Type-erased SlidingWindowSat<Tout, Tin> (defined in service.cpp;
    /// public only so the dtype-dispatched implementations can derive).
    struct Impl;

private:
    friend class Service;
    StreamSession(Service& svc, Options opt);

    Service* svc_;
    Options opt_;
    StreamUpdateMode mode_ = StreamUpdateMode::kIncremental;
    Algorithm algo_ = Algorithm::kBrltScanRow;
    std::string label_;
    std::unique_ptr<Runtime> rt_;
    std::unique_ptr<Impl> impl_;
    obs::Counter* c_frames_ = nullptr;
    obs::Counter* c_bytes_ = nullptr;
    obs::Counter* c_incremental_ = nullptr;
    obs::Counter* c_recompute_ = nullptr;
    obs::Gauge* g_ring_bytes_ = nullptr;
    obs::Histogram* h_push_us_ = nullptr;
    mutable std::mutex mu_;
    std::int64_t pushed_ = 0;
    std::uint64_t last_bytes_ = 0;
};

class Service {
public:
    enum class AdmissionPolicy {
        kBlock,  ///< submit() parks until the queue has room
        kReject, ///< submit() returns a future that throws QueueFullError
    };

    struct Options {
        /// Worker threads draining the queue.  Each worker owns a full
        /// Runtime (engine + pool + cost model): Engine::launch is not
        /// reentrant, so concurrency comes from one engine per worker.
        int workers = 1;
        /// Engine::Options::num_threads inside each worker's Runtime.
        /// Results are bit-identical for every value (engine contract).
        int engine_threads = 1;
        /// Most same-plan requests one execute_wave fuses.  A wave holds
        /// max_wave workspaces concurrently, so this also bounds each
        /// plan partition's pooled high-water mark.
        int max_wave = 8;
        /// How long a worker holding a non-full wave waits for more
        /// same-plan requests before executing what it has.  0 = never
        /// wait (coalesce only what is already queued).
        std::chrono::microseconds max_linger{0};
        /// Admission limit on queued (not yet executing) requests.
        std::size_t max_queue = 1024;
        /// Admission limit on the summed input bytes of queued requests;
        /// 0 = unlimited.  An oversized single request is always admitted
        /// when the queue is empty (otherwise it could never run).
        std::uint64_t max_queue_bytes = 0;
        AdmissionPolicy policy = AdmissionPolicy::kBlock;
        /// GPU whose timing model prices kAuto resolution and the
        /// Stats::modeled_gpu_us accounting.  Null = Tesla P100.
        const model::GpuSpec* gpu = nullptr;
        /// Metrics sink.  Null = the service owns a private registry
        /// (metrics are always collected; metrics_text()/metrics_json()
        /// expose whichever registry is in effect).  Not owned; must
        /// outlive the Service.
        obs::MetricsRegistry* metrics = nullptr;
        /// When set, every request is traced (request.queued ->
        /// wave.assembled -> plan.execute -> future.fulfilled spans plus
        /// the kernel phase ranges of each wave's launches -- plans run
        /// with PlanRequest::profile).  Null = no tracing, no profiler
        /// overhead.  Not owned; must outlive the Service.
        obs::TraceSink* trace = nullptr;
        /// When set, admission-control decisions (reject / block /
        /// oversized-escape) are appended as JSONL events with reason
        /// codes.  Not owned; must outlive the Service.
        obs::EventLog* events = nullptr;
        /// Use the virtual TraceClock (logical ticks + modeled GPU time)
        /// instead of wall time for every latency metric and trace span.
        /// With workers == 1 and a closed submission loop, metrics and
        /// trace output become byte-deterministic across runs.
        bool virtual_time = false;
    };

    /// One submission: the input image plus the plan-shaping fields of
    /// PlanRequest (height/width come from the image).
    struct Request {
        AnyMatrix image;
        Dtype out = Dtype::u32_;
        Algorithm algorithm = Algorithm::kAuto;
        scan::WarpScanKind warp_scan = scan::WarpScanKind::kKoggeStone;
        bool padded_smem = true;
        TileGeometry tile{};
        bool check = false;
        /// Requested execution backend.  kNative only takes effect
        /// when the resolved plan is hazard-certified (Runtime::certify);
        /// uncertified plans fall back to the simulator.  Tracing
        /// (Options::trace) forces the simulator: profiled plans need its
        /// instrumentation.
        Backend backend = Backend::kSim;
        /// SAT-consumer query (sat/query_spec.hpp).  monostate (the
        /// default) requests the plain SAT table; otherwise the future
        /// resolves to the query's output matrix instead
        /// (docs/fused_queries.md).  Aborts at submit() on a malformed
        /// spec or an unservable dtype pair, like the other precondition
        /// checks.
        QuerySpec query{};
        QueryMode query_mode = QueryMode::kAuto;
    };

    /// Snapshot of one plan-cache entry's resolution state, for
    /// introspection (satgpu_serve's per-plan JSON report).
    struct PlanInfo {
        PlanKey key;
        std::string label; ///< plan_key_label(key)
        /// Whether any worker has instantiated the plan yet.  Until then
        /// algorithm/backend/certified report the requested (unresolved)
        /// values.
        bool resolved = false;
        Algorithm algorithm = Algorithm::kAuto; ///< resolved algorithm
        Backend backend = Backend::kSim; ///< backend that executes the plan
        bool certified = false; ///< hazard certificate held (docs/backends.md)
    };

    struct Stats {
        std::uint64_t submitted = 0; ///< admitted submissions
        std::uint64_t completed = 0; ///< futures fulfilled with a table
        std::uint64_t rejected = 0;  ///< admission-control rejections
        /// Submissions that parked in kBlock admission before being
        /// admitted (or rejected by shutdown).  Orthogonal to the
        /// submitted/rejected split: submitted == completed + failed for
        /// a drained service regardless of how many blocked first.
        std::uint64_t blocked = 0;
        /// Requests whose future was fulfilled with an exception from
        /// execution (not admission).  completed + failed == submitted
        /// once the queue has drained.
        std::uint64_t failed = 0;
        std::uint64_t plan_hits = 0;   ///< submissions finding a cached key
        std::uint64_t plan_misses = 0; ///< submissions creating a new key
        /// Worker-local Plan constructions.  >= plan_misses (each worker
        /// that touches a key builds its own Plan), but the kAuto cost
        /// ranking still runs once per key: later instantiations reuse
        /// the entry's resolved algorithm.  == plan_misses when
        /// workers == 1.
        std::uint64_t plans_instantiated = 0;
        std::uint64_t waves = 0;          ///< execute_wave calls issued
        std::uint64_t fused_requests = 0; ///< requests in waves of size > 1
        std::uint64_t max_wave_size = 0;  ///< largest wave executed
        std::uint64_t max_queue_depth = 0; ///< peak queued requests
        /// Modeled GPU time of everything executed so far (the timing
        /// model over each wave's fused launches) -- the deterministic
        /// throughput signal satgpu_serve reports.
        double modeled_gpu_us = 0;
    };

    Service() : Service(Options{}) {}
    explicit Service(Options opt);
    /// Drains: already-admitted requests complete, then workers exit.
    ~Service();
    Service(const Service&) = delete;
    Service& operator=(const Service&) = delete;

    /// Enqueue one request.  The future yields the SAT table (dtype =
    /// req.out) or throws: QueueFullError / ServiceStoppedError from
    /// admission control, or whatever the execution itself raised.
    [[nodiscard]] std::future<AnyMatrix> submit(Request req);
    /// Shorthand for the common case: defaults for everything but image
    /// and output dtype.
    [[nodiscard]] std::future<AnyMatrix> submit(AnyMatrix image, Dtype out);

    [[nodiscard]] Stats stats() const;
    /// The registry in effect (Options::metrics, or the service-owned
    /// default).  Counters settle with the same contract as Stats: a
    /// request's counters are published before its future is fulfilled.
    [[nodiscard]] obs::MetricsRegistry& metrics() const noexcept;
    /// Prometheus-style text exposition of metrics() (deterministic for a
    /// fixed update sequence; see MetricsRegistry::write_text).
    [[nodiscard]] std::string metrics_text() const;
    /// "satgpu-metrics-v1" JSON exposition of metrics().
    [[nodiscard]] std::string metrics_json() const;
    /// Distinct plan keys ever submitted.
    [[nodiscard]] std::size_t plan_cache_size() const;
    /// Peak pooled bytes any single worker ever held in `key`'s partition
    /// (0 for unknown keys).  Bounded by max_wave * Plan::workspace_bytes.
    [[nodiscard]] std::uint64_t plan_high_water_bytes(const PlanKey& key) const;
    /// Resolution state of every plan key ever admitted, sorted by label
    /// (deterministic across runs for a fixed workload).
    [[nodiscard]] std::vector<PlanInfo> plan_info() const;

    /// Open a streaming sliding-window session (docs/streaming.md).
    /// Resolves Algorithm::kAuto and StreamUpdateMode::kAuto once, here;
    /// the session publishes into this service's metrics()/trace sinks
    /// and must not outlive the Service.
    [[nodiscard]] std::unique_ptr<StreamSession>
    open_stream(StreamSession::Options opt);

private:
    friend class StreamSession;
    /// One cached plan identity, shared by all workers.  The entry owns
    /// the deterministic kAuto resolution and the pool partition; each
    /// worker lazily builds its own Plan from it.
    /// Per-plan instrument bundle, registered once when the cache entry is
    /// created.  Raw pointers into the registry (stable for its lifetime):
    /// hot-path updates are single relaxed atomics, no name lookups.
    struct PlanMetrics {
        obs::Counter* submitted = nullptr;
        obs::Counter* completed = nullptr;
        obs::Counter* failed = nullptr;
        /// Admission counters live in the bundle so every admitted plan's
        /// series exist from first submission (schema-stable exposition
        /// even when no reject/block ever fires); a reject for a key never
        /// admitted falls back to ad-hoc registration by label.
        obs::Counter* rejected = nullptr;
        obs::Counter* blocked = nullptr;
        obs::Counter* waves = nullptr;
        obs::Counter* fused = nullptr;
        obs::Counter* oversized = nullptr;
        obs::Gauge* pool_high_water = nullptr;
        /// 1 when the resolved plan executes on the native backend, else 0
        /// (set at first resolution; 0 while unresolved).
        obs::Gauge* backend_native = nullptr;
        /// 1 when the resolved plan holds a hazard certificate.
        obs::Gauge* certified = nullptr;
        obs::Histogram* wave_size = nullptr;
        obs::Histogram* queue_wait_us = nullptr;
        obs::Histogram* execute_us = nullptr;
        obs::Histogram* e2e_us = nullptr;
    };

    /// One cached plan identity, shared by all workers.  The entry owns
    /// the deterministic kAuto resolution and the pool partition; each
    /// worker lazily builds its own Plan from it.
    struct CacheEntry {
        PlanKey key;
        int partition = 0;
        std::string label; ///< plan_key_label(key), shared by metrics/spans
        PlanMetrics metrics;
        std::mutex mu; ///< guards resolution (first planner wins)
        bool resolved = false;
        Algorithm resolved_algo = Algorithm::kBrltScanRow;
        /// Backend the resolved plan executes on, and whether it holds a
        /// hazard certificate (Plan::backend()/certified() of the first
        /// planner).  Guarded by mu, like resolved_algo.
        Backend resolved_backend = Backend::kSim;
        bool resolved_certified = false;
        /// Max over workers of that worker's pool high-water in this
        /// entry's partition.  Snapshotted by the owning worker after each
        /// wave (a worker's pool is thread-private); guarded by mu_.
        std::uint64_t high_water_bytes = 0;
    };

    struct Item {
        CacheEntry* entry = nullptr;
        AnyMatrix image;
        std::promise<AnyMatrix> promise;
        std::uint64_t bytes = 0;
        obs::RequestId id = 0;
        std::uint64_t t_submit = 0; ///< clock_ at admission
    };

    struct Worker {
        int index = 0;
        std::unique_ptr<Runtime> rt;
        std::unordered_map<const CacheEntry*, Plan> plans;
        std::thread thread;
    };

    [[nodiscard]] bool queue_has_room(std::uint64_t bytes) const;
    /// Pop every queued item for `entry` (front first) into `batch`, up
    /// to max_wave total, closing each item's request.queued span and
    /// observing its queue wait.  Caller holds mu_.
    void gather_same_key(CacheEntry* entry, std::vector<Item>& batch,
                         std::uint64_t wave_id, int worker);
    void worker_main(Worker& w);
    void run_wave(Worker& w, CacheEntry* entry, std::vector<Item> batch,
                  std::uint64_t wave_id, std::uint64_t t_assemble);
    [[nodiscard]] Plan& plan_for(Worker& w, CacheEntry* entry);

    Options opt_;
    std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
    obs::MetricsRegistry* metrics_ = nullptr; ///< never null after ctor
    obs::TraceSink* trace_ = nullptr;
    obs::EventLog* events_ = nullptr;
    obs::TraceClock clock_;
    obs::Gauge* g_queue_depth_ = nullptr;
    obs::Gauge* g_queue_depth_peak_ = nullptr;
    obs::Gauge* g_queued_bytes_ = nullptr;
    mutable std::mutex mu_;
    std::condition_variable cv_work_;  ///< queue gained an item / stopping
    std::condition_variable cv_space_; ///< queue lost an item / stopping
    std::deque<Item> queue_;
    std::uint64_t queued_bytes_ = 0;
    bool stopping_ = false;
    std::unordered_map<PlanKey, std::unique_ptr<CacheEntry>, PlanKeyHash>
        cache_;
    int next_partition_ = 1; ///< 0 stays the shared default partition
    obs::RequestId next_request_ = 0; ///< guarded by mu_
    std::uint64_t next_wave_ = 0;     ///< guarded by mu_
    Stats stats_;
    std::vector<std::unique_ptr<Worker>> workers_;
};

} // namespace satgpu::sat
