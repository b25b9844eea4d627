// Deliberately broken kernel variants for the hazard checker's negative
// tests (tests/test_hazard_checker.cpp, tools/satgpu_check --self-test).
//
// Both variants drop one barrier from a shipped kernel.  Under the
// engine's deterministic round-robin scheduler each warp runs to its next
// suspension point before a sibling resumes, so the OUTPUTS remain
// correct -- which is exactly why golden-output tests cannot catch these
// bugs and a racecheck-style tool is needed: on real hardware the same
// kernels race.  The `*_line()` accessors record, at run time, the
// __LINE__ of the offending shared-memory access (kept on one physical
// line with the access so the defaulted std::source_location of the call
// has the same line), letting tests assert the checker attributes the
// hazard to the exact file:line.
#pragma once

#include "sat/block_carry.hpp"
#include "sat/brlt.hpp"
#include "sat/tile_io.hpp"
#include "simt/engine.hpp"
#include "simt/global_memory.hpp"
#include "simt/hazard_checker.hpp"

#include <atomic>
#include <cstdint>
#include <string_view>

namespace satgpu::sat::broken {

/// Repo-relative path of this header as trim_source_path renders it, for
/// composing expected hazard sites in tests.
inline constexpr std::string_view kFile = "src/sat/broken_kernels.hpp";

/// __LINE__ of the missing-barrier BRLT variant's tile store, recorded
/// when the kernel runs.  Atomic because every block writes it and blocks
/// execute on parallel worker threads (the value is always the same).
inline std::atomic<std::uint32_t>& brlt_store_line_slot() noexcept
{
    static std::atomic<std::uint32_t> line{0};
    return line;
}
[[nodiscard]] inline std::uint32_t brlt_store_line() noexcept
{
    return brlt_store_line_slot().load();
}

/// __LINE__ of the unsynced carry variant's block-total load.
inline std::atomic<std::uint32_t>& carry_load_line_slot() noexcept
{
    static std::atomic<std::uint32_t> line{0};
    return line;
}
[[nodiscard]] inline std::uint32_t carry_load_line() noexcept
{
    return carry_load_line_slot().load();
}

/// __LINE__ of the tiled-carry variant's premature prefix load.
inline std::atomic<std::uint32_t>& tiled_carry_line_slot() noexcept
{
    static std::atomic<std::uint32_t> line{0};
    return line;
}
[[nodiscard]] inline std::uint32_t tiled_carry_line() noexcept
{
    return tiled_carry_line_slot().load();
}

/// The tiled executor's carry composition, miniaturized and broken: warp
/// w stands for macro-tile w of a strip.  It publishes its tile's
/// aggregate into smem slot w, then IMMEDIATELY reads the slots of every
/// tile to its left to form its carry prefix -- without the barrier that
/// must separate publication from consumption (sat/tiled.hpp avoids the
/// problem structurally: carries are reduced on the host between
/// launches).  Round-robin runs each warp to its first suspension point
/// in id order, so lower tiles' aggregates are already published and the
/// prefix comes out right; on hardware warp w races every warp t < w
/// (smem-raw on "tile.carries").
template <typename T>
simt::KernelTask broken_tiled_carry_warp(simt::WarpCtx& w,
                                         const simt::DeviceBuffer<T>& totals,
                                         simt::DeviceBuffer<T>& prefix)
{
    const int wc = w.warps_per_block();
    auto sm = w.smem_alloc<T>("tile.carries", wc);
    const LaneMask lane0 = 1u;
    const auto slot = LaneVec<std::int64_t>::broadcast(w.warp_id());

    sm.store(slot, totals.load(slot, lane0), lane0);
    // BUG: no co_await w.sync() here -- tile w's prefix gather below reads
    // slots its producer warps may not have published yet.
    LaneVec<T> acc{};
    for (int t = 0; t < w.warp_id(); ++t) {
        const auto src = LaneVec<std::int64_t>::broadcast(t);
        { tiled_carry_line_slot() = __LINE__; acc = simt::vadd(acc, sm.load(src, lane0)); }
    }
    prefix.store(slot, acc, lane0);
    co_await w.sync();
}

/// Result of one broken-fixture run: the checked LaunchStats (carrying
/// the HazardReport) plus whether the output was still numerically
/// correct -- it should be, that is the point of the fixtures.
struct BrokenRun {
    simt::LaunchStats stats;
    bool output_correct = false;
};

/// One warp of the missing-barrier fixture: transpose the warp's stacked
/// 32x32 tile of `src` (height x 32) into `dst` in place, through BRLT
/// with the per-round barrier hoisted OUT of the round loop: round r+1's
/// warps overwrite staging tiles that round r's warps wrote and read in the
/// same barrier interval (smem-waw / smem-war on "brlt.tiles").
template <typename T>
simt::KernelTask broken_brlt_warp(simt::WarpCtx& w,
                                  const simt::DeviceBuffer<T>& src,
                                  std::int64_t height,
                                  simt::DeviceBuffer<T>& dst)
{
    RegTile<T> data;
    const std::int64_t row0 = std::int64_t{w.warp_id()} * kWarpSize;
    load_tile_rows(src, height, kWarpSize, row0, 0, data);

    const int group = brlt_group_size<T>();
    constexpr std::int64_t stride = 33;
    auto sm = w.smem_alloc<T>("brlt.tiles", group * 32 * stride);
    const auto lane = LaneVec<std::int64_t>::lane_index();
    const int warp_count = w.warps_per_block();
    for (int i = 0; i < warp_count; i += group) {
        if (i <= w.warp_id() && w.warp_id() < i + group) {
            const std::int64_t k = w.warp_id() - i;
            const std::int64_t base = k * 32 * stride;
            for (int j = 0; j < kWarpSize; ++j)
                { brlt_store_line_slot() = __LINE__; sm.store(lane + (base + j * stride), data[static_cast<std::size_t>(j)]); }
            for (int j = 0; j < kWarpSize; ++j)
                data[static_cast<std::size_t>(j)] =
                    sm.load(lane * stride + (base + j));
        }
        // BUG: no co_await w.sync() here -- the next round reuses tile k
        // without a barrier between the rounds' accesses.
    }
    co_await w.sync();

    store_tile_rows(dst, height, kWarpSize, row0, 0, data);
}

/// One warp of the unsynced-carry fixture: the Fig. 3c block carry
/// without the barrier between warp 0's scan and the gather step, so every
/// other warp reads warp 0's same-interval scan writes (smem-raw on
/// "carry.partials").  partial = warp_id + 1 on every lane; the resulting
/// exclusive prefix and block total go to `excl` / `total` at the warp's
/// row of its block's rows.
template <typename T>
simt::KernelTask broken_carry_warp(simt::WarpCtx& w,
                                   simt::DeviceBuffer<T>& excl,
                                   simt::DeviceBuffer<T>& total)
{
    const int wc = w.warps_per_block();
    auto sm = w.smem_alloc<T>("carry.partials",
                              static_cast<std::int64_t>(wc) * kWarpSize);
    const auto lane = LaneVec<std::int64_t>::lane_index();
    const auto partial =
        LaneVec<T>::broadcast(static_cast<T>(w.warp_id() + 1));

    sm.store(lane + std::int64_t{w.warp_id()} * kWarpSize, partial);
    co_await w.sync();

    if (w.warp_id() == 0) {
        LaneVec<T> acc = sm.load(lane);
        for (int i = 1; i < wc; ++i) {
            const auto v = sm.load(lane + std::int64_t{i} * kWarpSize);
            acc = simt::vadd(acc, v);
            sm.store(lane + std::int64_t{i} * kWarpSize, acc);
        }
    }
    // BUG: no co_await w.sync() here -- the gather below reads the scan's
    // writes without a barrier.

    const LaneVec<T> exclusive =
        w.warp_id() == 0
            ? LaneVec<T>{}
            : sm.load(lane + std::int64_t{w.warp_id() - 1} * kWarpSize);
    LaneVec<T> block_total;
    { carry_load_line_slot() = __LINE__; block_total = sm.load(lane + std::int64_t{wc - 1} * kWarpSize); }

    co_await w.sync();

    const auto idx =
        lane + (w.block_idx().x * wc + w.warp_id()) * kWarpSize;
    excl.store(idx, exclusive);
    total.store(idx, block_total);
}

/// Launch the missing-barrier BRLT on one 16-warp block of u32 tiles
/// (group size 8, so two rounds share the staging tiles) and verify each
/// warp's register tile was still transposed correctly.
[[nodiscard]] inline BrokenRun run_brlt_missing_barrier(simt::Engine& eng)
{
    using T = std::uint32_t;
    constexpr int kWarps = 16;
    constexpr std::int64_t h = kWarps * kWarpSize; // warp tiles stacked
    constexpr std::int64_t w = kWarpSize;

    simt::DeviceBuffer<T> in(h * w);
    {
        auto host = in.host();
        for (std::int64_t i = 0; i < h * w; ++i)
            host[static_cast<std::size_t>(i)] = static_cast<T>(i * 2654435761u);
    }
    simt::DeviceBuffer<T> out(h * w);

    const simt::KernelInfo info{"broken_brlt_missing_barrier", 32,
                                brlt_smem_bytes<T>()};
    const simt::LaunchConfig cfg{{1, 1, 1}, {kWarps * kWarpSize, 1, 1}};
    BrokenRun run;
    run.stats = eng.launch(info, cfg, [&](simt::WarpCtx& wc) {
        return broken_brlt_warp<T>(wc, in, h, out);
    });

    run.output_correct = true;
    const auto src = in.host();
    const auto dst = out.host();
    for (std::int64_t warp = 0; warp < kWarps && run.output_correct; ++warp)
        for (std::int64_t r = 0; r < kWarpSize; ++r)
            for (std::int64_t c = 0; c < kWarpSize; ++c) {
                const std::int64_t base = warp * kWarpSize;
                if (dst[static_cast<std::size_t>((base + r) * w + c)] !=
                    src[static_cast<std::size_t>((base + c) * w + r)]) {
                    run.output_correct = false;
                    break;
                }
            }
    return run;
}

/// Launch the unsynced carry on one 8-warp block (warp w's partial is the
/// constant w+1) and verify the exclusive prefixes and block totals.
[[nodiscard]] inline BrokenRun run_unsynced_smem_tile(simt::Engine& eng)
{
    using T = std::uint32_t;
    constexpr int kWarps = 8;

    simt::DeviceBuffer<T> excl(kWarps * kWarpSize);
    simt::DeviceBuffer<T> total(kWarps * kWarpSize);

    const simt::KernelInfo info{"broken_unsynced_smem_tile", 32,
                                block_carry_smem_bytes<T>(kWarps)};
    const simt::LaunchConfig cfg{{1, 1, 1}, {kWarps * kWarpSize, 1, 1}};
    BrokenRun run;
    run.stats = eng.launch(info, cfg, [&](simt::WarpCtx& wc) {
        return broken_carry_warp<T>(wc, excl, total);
    });

    run.output_correct = true;
    const auto eh = excl.host();
    const auto th = total.host();
    for (int warp = 0; warp < kWarps && run.output_correct; ++warp) {
        const T want_excl = static_cast<T>(warp * (warp + 1) / 2);
        constexpr T want_total = kWarps * (kWarps + 1) / 2;
        for (int l = 0; l < kWarpSize; ++l) {
            const auto i = static_cast<std::size_t>(warp * kWarpSize + l);
            if (eh[i] != want_excl || th[i] != want_total) {
                run.output_correct = false;
                break;
            }
        }
    }
    return run;
}

/// Launch the unpublished tiled-carry prefix on one 8-warp block (tile
/// w's aggregate is the constant w+1) and verify every prefix.
[[nodiscard]] inline BrokenRun run_tiled_carry_prefix(simt::Engine& eng)
{
    using T = std::uint32_t;
    constexpr int kWarps = 8;

    simt::DeviceBuffer<T> totals(kWarps);
    {
        auto host = totals.host();
        for (int i = 0; i < kWarps; ++i)
            host[static_cast<std::size_t>(i)] = static_cast<T>(i + 1);
    }
    simt::DeviceBuffer<T> prefix(kWarps);

    const simt::KernelInfo info{"broken_tiled_carry_prefix", 32,
                                kWarps * static_cast<std::int64_t>(sizeof(T))};
    const simt::LaunchConfig cfg{{1, 1, 1}, {kWarps * kWarpSize, 1, 1}};
    BrokenRun run;
    run.stats = eng.launch(info, cfg, [&](simt::WarpCtx& wc) {
        return broken_tiled_carry_warp<T>(wc, totals, prefix);
    });

    run.output_correct = true;
    const auto ph = prefix.host();
    for (int warp = 0; warp < kWarps; ++warp) {
        const T want = static_cast<T>(warp * (warp + 1) / 2);
        if (ph[static_cast<std::size_t>(warp)] != want) {
            run.output_correct = false;
            break;
        }
    }
    return run;
}

} // namespace satgpu::sat::broken
