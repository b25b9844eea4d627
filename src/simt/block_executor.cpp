#include "simt/block_executor.hpp"

#include "core/check.hpp"
#include "simt/native_backend.hpp"

#include <exception>
#include <thread>
#include <utility>

namespace satgpu::simt {

namespace {
/// The executor whose job this thread is running (null outside jobs; a
/// worker thread's whole life counts as inside).
thread_local const BlockExecutor* t_running = nullptr;
} // namespace

struct BlockExecutor::Slot {
    Slot(std::int64_t smem_capacity_bytes, int index)
        : native(smem_capacity_bytes, index)
    {
    }

    NativeBlockCtx native;
    std::exception_ptr error; // set by a throwing job, cleared by run()
    std::thread thread;       // not started for slot 0 (the caller)
};

BlockExecutor::BlockExecutor(int slots, std::int64_t smem_capacity_bytes)
{
    SATGPU_EXPECTS(slots >= 1);
    slots_.reserve(static_cast<std::size_t>(slots));
    for (int i = 0; i < slots; ++i)
        slots_.push_back(std::make_unique<Slot>(smem_capacity_bytes, i));
    for (int i = 1; i < slots; ++i)
        slots_[static_cast<std::size_t>(i)]->thread =
            std::thread([this, i] { worker_loop(i); });
}

BlockExecutor::~BlockExecutor()
{
    {
        const std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto& s : slots_)
        if (s->thread.joinable())
            s->thread.join();
}

NativeBlockCtx& BlockExecutor::native_ctx(int slot) noexcept
{
    return slots_[static_cast<std::size_t>(slot)]->native;
}

void BlockExecutor::worker_loop(int slot)
{
    t_running = this;
    Slot& self = *slots_[static_cast<std::size_t>(slot)];
    std::uint64_t seen = 0;
    for (;;) {
        const std::function<void(int)>* job = nullptr;
        {
            std::unique_lock<std::mutex> lock(mu_);
            wake_.wait(lock, [&] {
                return stop_ || (generation_ != seen && slot < active_);
            });
            if (stop_)
                return;
            seen = generation_;
            job = job_;
        }
        try {
            (*job)(slot);
        } catch (...) {
            self.error = std::current_exception();
        }
        const std::lock_guard<std::mutex> lock(mu_);
        if (--pending_ == 0)
            done_.notify_one();
    }
}

void BlockExecutor::run(int k, const std::function<void(int)>& job)
{
    SATGPU_CHECK(t_running != this,
                 "BlockExecutor::run called from inside one of its jobs");
    SATGPU_EXPECTS(k >= 1 && k <= size());
    const std::lock_guard<std::mutex> turn(run_mu_);
    if (k > 1) {
        const std::lock_guard<std::mutex> lock(mu_);
        job_ = &job;
        active_ = k;
        pending_ = k - 1;
        ++generation_;
        wake_.notify_all();
    }
    const BlockExecutor* const outer = std::exchange(t_running, this);
    try {
        job(0);
    } catch (...) {
        slots_.front()->error = std::current_exception();
    }
    t_running = outer;
    if (k > 1) {
        std::unique_lock<std::mutex> lock(mu_);
        done_.wait(lock, [&] { return pending_ == 0; });
        job_ = nullptr;
        active_ = 0;
    }
    std::exception_ptr first;
    for (int i = 0; i < k; ++i) {
        std::exception_ptr& e = slots_[static_cast<std::size_t>(i)]->error;
        if (e && !first)
            first = e;
        e = nullptr;
    }
    if (first)
        std::rethrow_exception(first);
}

} // namespace satgpu::simt
