// Failure-injection tests: the simulator must catch (loudly) the classes of
// bugs that silently corrupt results or hang on real hardware -- out-of-
// bounds accesses, capacity violations, illegal launch shapes, divergent
// shared-memory declarations -- and must propagate kernel exceptions,
// including ones thrown after a barrier.
#include "sat/block_carry.hpp"
#include "sat/brlt.hpp"
#include "sat/brlt_scanrow.hpp"
#include "simt/engine.hpp"
#include "simt/global_memory.hpp"

#include <gtest/gtest.h>

namespace simt = satgpu::simt;
using simt::kWarpSize;
using simt::LaneVec;

namespace {

simt::LaunchConfig one_warp() { return {{1, 1, 1}, {kWarpSize, 1, 1}}; }

} // namespace

TEST(EngineFaults, GlobalLoadOutOfBoundsDies)
{
    simt::Engine eng;
    simt::DeviceBuffer<int> buf(16);
    EXPECT_DEATH(
        eng.launch({"oob", 8, 0}, one_warp(),
                   [&](simt::WarpCtx&) -> simt::KernelTask {
                       (void)buf.load(LaneVec<std::int64_t>::broadcast(16));
                       co_return;
                   }),
        "gmem load out of bounds");
}

TEST(EngineFaults, GlobalStoreOutOfBoundsDies)
{
    simt::Engine eng;
    simt::DeviceBuffer<int> buf(16);
    EXPECT_DEATH(
        eng.launch({"oob", 8, 0}, one_warp(),
                   [&](simt::WarpCtx&) -> simt::KernelTask {
                       buf.store(LaneVec<std::int64_t>::broadcast(-1),
                                 LaneVec<int>::broadcast(0), 0x1u);
                       co_return;
                   }),
        "gmem store out of bounds");
}

TEST(EngineFaults, SmemIndexOutOfBoundsDies)
{
    simt::Engine eng;
    EXPECT_DEATH(
        eng.launch({"smem_oob", 8, 128}, one_warp(),
                   [&](simt::WarpCtx& w) -> simt::KernelTask {
                       auto sm = w.smem_alloc<int>("t", 8);
                       (void)sm.load(LaneVec<std::int64_t>::broadcast(8),
                                     0x1u);
                       co_return;
                   }),
        "smem load out of bounds");
}

TEST(EngineFaults, SmemCapacityExceededDies)
{
    simt::Engine eng(simt::Engine::Options{.smem_capacity_bytes = 1024,
                                           .record_history = false});
    EXPECT_DEATH(
        eng.launch({"smem_cap", 8, 2048}, one_warp(),
                   [&](simt::WarpCtx& w) -> simt::KernelTask {
                       (void)w.smem_alloc<double>("big", 512);
                       co_return;
                   }),
        "capacity");
}

TEST(EngineFaults, SmemRedeclarationWithDifferentExtentDies)
{
    simt::Engine eng;
    EXPECT_DEATH(
        eng.launch({"redecl", 8, 512}, one_warp(),
                   [&](simt::WarpCtx& w) -> simt::KernelTask {
                       (void)w.smem_alloc<int>("t", 8);
                       (void)w.smem_alloc<int>("t", 16);
                       co_return;
                   }),
        "different");
}

TEST(EngineFaults, SmemRedeclarationWithDifferentTypeDies)
{
    // Same byte extent (2 floats == 1 double) must not slip through: the
    // arena would be silently type-punned across warps.
    simt::Engine eng;
    EXPECT_DEATH(
        eng.launch({"pun", 8, 512}, one_warp(),
                   [&](simt::WarpCtx& w) -> simt::KernelTask {
                       (void)w.smem_alloc<float>("t", 2);
                       (void)w.smem_alloc<double>("t", 1);
                       co_return;
                   }),
        "different element type");
}

TEST(EngineFaults, OversizedBlockRejected)
{
    simt::Engine eng;
    EXPECT_DEATH(eng.launch({"big_block", 8, 0},
                            {{1, 1, 1}, {2048, 1, 1}},
                            [&](simt::WarpCtx&) -> simt::KernelTask {
                                co_return;
                            }),
                 "");
}

TEST(EngineFaults, NonWarpMultipleBlockRejected)
{
    simt::Engine eng;
    EXPECT_DEATH(eng.launch({"ragged_block", 8, 0}, {{1, 1, 1}, {48, 1, 1}},
                            [&](simt::WarpCtx&) -> simt::KernelTask {
                                co_return;
                            }),
                 "");
}

TEST(EngineFaults, ExceptionAfterBarrierPropagates)
{
    // The scheduler resumes each warp's task past its barrier; a throw
    // there still reaches the launcher.
    simt::Engine eng;
    EXPECT_THROW(eng.launch({"throw_after_sync", 8, 0},
                            {{1, 1, 1}, {2 * kWarpSize, 1, 1}},
                            [&](simt::WarpCtx& w) -> simt::KernelTask {
                                co_await w.sync();
                                if (w.warp_id() == 1)
                                    throw std::runtime_error("after sync");
                            }),
                 std::runtime_error);
}

TEST(EngineFaults, CountersIsolatedAcrossLaunches)
{
    simt::Engine eng;
    simt::DeviceBuffer<int> buf(64, 1);
    auto body = [&](simt::WarpCtx& w) -> simt::KernelTask {
        (void)buf.load(w.lane());
        co_return;
    };
    const auto s1 = eng.launch({"k1", 8, 0}, one_warp(), body);
    const auto s2 = eng.launch({"k2", 8, 0}, one_warp(), body);
    EXPECT_EQ(s1.counters.gmem_ld_req, 1u);
    EXPECT_EQ(s2.counters.gmem_ld_req, 1u); // not 2: fresh counters
}

// ------------------------------- faults under the parallel scheduler ------
//
// Injected faults must still be detected AND attributed to the right block
// when blocks run on a worker pool: exceptions arrive wrapped in a
// BlockFault naming the lowest faulting linear block (deterministic for any
// thread count), and aborts append a "while executing block (x,y,z)"
// context line from the worker that hit them.

TEST(EngineFaultsParallel, ThrowReportsLowestFaultingBlockDeterministically)
{
    for (const int threads : {1, 2, 4, 7}) {
        simt::Engine eng(simt::Engine::Options{.record_history = false,
                                               .num_threads = threads});
        try {
            eng.launch({"multi_fault", 8, 0}, {{8, 1, 1}, {kWarpSize, 1, 1}},
                       [&](simt::WarpCtx& w) -> simt::KernelTask {
                           if (w.block_idx().x >= 3)
                               throw std::runtime_error("injected");
                           co_return;
                       });
            FAIL() << "launch must rethrow the injected fault (threads="
                   << threads << ")";
        } catch (const simt::BlockFault& f) {
            // Blocks 3..7 all fault; the report must name block 3 no
            // matter which worker saw its fault first.
            EXPECT_EQ(f.block_idx, (simt::Dim3{3, 0, 0}))
                << "threads=" << threads;
            EXPECT_NE(std::string(f.what()).find("block (3,0,0)"),
                      std::string::npos)
                << f.what();
            EXPECT_NE(std::string(f.what()).find("injected"),
                      std::string::npos)
                << f.what();
        }
    }
}

TEST(EngineFaultsParallel, SubTaskBarrierDivergenceNamesBlock)
{
    // One block's warps suspend outside any barrier (a scheduler-contract
    // violation); the abort must name that block even on a worker pool.
    simt::Engine eng(simt::Engine::Options{.record_history = false,
                                           .num_threads = 4});
    EXPECT_DEATH(
        eng.launch({"diverge", 8, 0}, {{4, 1, 1}, {kWarpSize, 1, 1}},
                   [&](simt::WarpCtx& w) -> simt::KernelTask {
                       if (w.block_idx().x == 1)
                           co_await std::suspend_always{};
                       co_return;
                   }),
        "warp suspended outside a barrier");
    EXPECT_DEATH(
        eng.launch({"diverge", 8, 0}, {{4, 1, 1}, {kWarpSize, 1, 1}},
                   [&](simt::WarpCtx& w) -> simt::KernelTask {
                       if (w.block_idx().x == 1)
                           co_await std::suspend_always{};
                       co_return;
                   }),
        "block \\(1,0,0\\) of kernel 'diverge'");
}

TEST(EngineFaultsParallel, SmemOverAllocationNamesBlock)
{
    simt::Engine eng(simt::Engine::Options{.smem_capacity_bytes = 1024,
                                           .record_history = false,
                                           .num_threads = 2});
    EXPECT_DEATH(
        eng.launch({"smem_cap_par", 8, 2048}, {{3, 1, 1}, {kWarpSize, 1, 1}},
                   [&](simt::WarpCtx& w) -> simt::KernelTask {
                       if (w.block_idx().x == 2)
                           (void)w.smem_alloc<double>("big", 512);
                       co_return;
                   }),
        "block \\(2,0,0\\) of kernel 'smem_cap_par'");
}

TEST(EngineFaultsParallel, ExceptionTypePropagatesThroughBlockFault)
{
    // The wrapper preserves catchability: BlockFault IS-A runtime_error and
    // carries the original exception for callers that need it.
    simt::Engine eng(simt::Engine::Options{.record_history = false,
                                           .num_threads = 2});
    try {
        eng.launch({"typed", 8, 0}, {{2, 1, 1}, {kWarpSize, 1, 1}},
                   [&](simt::WarpCtx& w) -> simt::KernelTask {
                       if (w.block_idx().x == 1)
                           throw std::out_of_range("deep fault");
                       co_return;
                   });
        FAIL() << "launch must rethrow";
    } catch (const simt::BlockFault& f) {
        ASSERT_TRUE(f.inner);
        EXPECT_THROW(std::rethrow_exception(f.inner), std::out_of_range);
    }
}

TEST(EngineFaults, BrltRejectsOversizedSmemOnTinyEngine)
{
    // A BRLT launch must fail loudly when the configured device cannot hold
    // the staging tiles (rather than corrupting neighbouring allocations).
    simt::Engine eng(simt::Engine::Options{.smem_capacity_bytes = 4096,
                                           .record_history = false});
    simt::DeviceBuffer<float> in(32 * 32), out(32 * 32);
    EXPECT_DEATH(
        satgpu::sat::launch_brlt_scanrow_pass<float>(eng, in, 32, 32, out),
        "capacity");
}
