// KernelTask: the coroutine type in which simulated warps execute.
//
// A "warp program" is a C++20 coroutine `KernelTask f(WarpCtx&)`.  Inside it,
// kernel-visible scalars are LaneVec values (one per lane) and
// `co_await w.sync()` is __syncthreads(): the warp suspends until every live
// warp of its block reaches a barrier, at which point the block scheduler
// (engine.cpp) resumes all of them.
//
// A kernel with barriers is written once as a phase list
// (simt/native_backend.hpp), whose simulator lowering is one KernelTask per
// warp; a warp program is one flat frame, with no nested coroutines, so the
// scheduler always resumes the task itself.
//
// Thread confinement: every coroutine frame of a block is created,
// resumed, and destroyed by the single host worker thread that owns the
// block for the duration of the launch.  The promise holds no
// synchronization and needs none; sharing a handle across threads is
// outside the contract.
#pragma once

#include <coroutine>
#include <exception>
#include <utility>

namespace satgpu::simt {

class KernelTask {
public:
    struct promise_type {
        std::exception_ptr exception;

        KernelTask get_return_object()
        {
            return KernelTask(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }
        std::suspend_always initial_suspend() noexcept { return {}; }
        std::suspend_always final_suspend() noexcept { return {}; }
        void return_void() noexcept {}
        void unhandled_exception() noexcept
        {
            exception = std::current_exception();
        }
    };

    KernelTask() = default;
    explicit KernelTask(std::coroutine_handle<promise_type> h) : h_(h) {}

    KernelTask(KernelTask&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
    KernelTask& operator=(KernelTask&& o) noexcept
    {
        if (this != &o) {
            destroy();
            h_ = std::exchange(o.h_, nullptr);
        }
        return *this;
    }
    KernelTask(const KernelTask&) = delete;
    KernelTask& operator=(const KernelTask&) = delete;
    ~KernelTask() { destroy(); }

    [[nodiscard]] bool valid() const noexcept { return h_ != nullptr; }
    [[nodiscard]] bool done() const noexcept { return h_.done(); }

    /// Run the warp until its next suspension point (barrier or completion),
    /// rethrowing anything the kernel body threw.
    void resume()
    {
        h_.resume();
        if (h_.done() && h_.promise().exception)
            std::rethrow_exception(h_.promise().exception);
    }

private:
    void destroy() noexcept
    {
        if (h_) {
            h_.destroy();
            h_ = nullptr;
        }
    }

    std::coroutine_handle<promise_type> h_;
};

} // namespace satgpu::simt
