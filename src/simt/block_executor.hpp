// Persistent host workers behind both lowerings' block schedulers.
//
// An Engine owns one BlockExecutor, created on its first multi-threaded
// simulator launch or first native launch, so every sat::Runtime -- and so
// every Service worker -- has workers of its own.  An executor of size n
// has n slots: slot 0 is whichever thread calls run(), slots 1..n-1 are
// threads the executor starts once and keeps.  run() hands one job to the
// first k slots and returns once all of them have finished it; the worker
// threads then park until the next launch.  Launches therefore pay a
// wake-up instead of spawning and joining fresh threads, and a one-slot
// executor (Options::num_threads = 1) starts no thread at all.
//
// Instrumentation contract: a worker thread never has a thread-local sink
// (counters, profiler, hazard checker) installed between jobs.  A job that
// installs one -- the simulator's per-worker scopes -- removes it before
// it returns.  Slot 0 runs on the caller, whose sinks are unknown; a job
// that must run uninstrumented hides them there (native_backend.cpp).
// Each slot also owns one NativeBlockCtx, which the native backend reuses
// across blocks and launches.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace satgpu::simt {

class NativeBlockCtx; // native_backend.hpp

class BlockExecutor {
public:
    /// `slots` (>= 1) slots, so slots - 1 worker threads; each slot's
    /// NativeBlockCtx enforces `smem_capacity_bytes` per block.
    BlockExecutor(int slots, std::int64_t smem_capacity_bytes);
    ~BlockExecutor(); // stops and joins the worker threads
    BlockExecutor(const BlockExecutor&) = delete;
    BlockExecutor& operator=(const BlockExecutor&) = delete;

    [[nodiscard]] int size() const noexcept
    {
        return static_cast<int>(slots_.size());
    }

    /// Call job(i) for every slot i in [0, k), concurrently -- job(0) on
    /// the calling thread -- and return once every call has returned
    /// (1 <= k <= size()).  If calls throw, the exception of the lowest i
    /// is rethrown here.  Calls from different threads take turns; a call
    /// from inside one of this executor's jobs aborts, since it could
    /// never be served.
    void run(int k, const std::function<void(int)>& job);

    /// Slot i's block context.  Only the thread running slot i touches
    /// it, inside a job.
    [[nodiscard]] NativeBlockCtx& native_ctx(int slot) noexcept;

private:
    struct Slot;

    void worker_loop(int slot);

    std::mutex run_mu_; // one run() at a time

    std::mutex mu_; // guards the fields up to slots_
    std::condition_variable wake_; // workers wait for a job or stop
    std::condition_variable done_; // run() waits for pending_ == 0
    const std::function<void(int)>* job_ = nullptr;
    std::uint64_t generation_ = 0; // bumped once per run()
    int active_ = 0;               // slots [1, active_) run this job
    int pending_ = 0;              // ... of which still running
    bool stop_ = false;

    // Last: the worker threads use every member above.
    std::vector<std::unique_ptr<Slot>> slots_;
};

} // namespace satgpu::simt
