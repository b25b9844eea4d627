// Tests for the warp-synchronous hazard checker (simt/hazard_checker.hpp):
// every shipped algorithm is hazard-clean at every thread count and its
// outputs/counters are untouched by checking; the deliberately broken
// kernel variants (sat/broken_kernels.hpp) are flagged with the right
// hazard kind at the exact file:line while still producing correct output
// under the deterministic scheduler; direct unit coverage of the uninit /
// divergence / shuffle / vote detectors; report-JSON determinism across
// thread counts; and the Options / PlanRequest plumbing.
#include "sat/broken_kernels.hpp"
#include "sat/runtime.hpp"
#include "sat/sat.hpp"
#include "simt/hazard_checker.hpp"
#include "simt/shuffle.hpp"
#include "simt/vote.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <thread>

namespace sat = satgpu::sat;
namespace simt = satgpu::simt;
using satgpu::Dtype;
using satgpu::DtypePair;
using satgpu::Matrix;
using simt::kWarpSize;
using simt::LaneVec;

namespace {

constexpr std::int64_t kH = 70;
constexpr std::int64_t kW = 90;

/// Every hazard report attached to `launches` is present and clean.
void expect_all_clean(const std::vector<simt::LaunchStats>& launches)
{
    ASSERT_FALSE(launches.empty());
    for (const auto& l : launches) {
        ASSERT_NE(l.hazards, nullptr) << l.info.name;
        EXPECT_TRUE(l.hazards->clean()) << l.info.name;
    }
    EXPECT_EQ(simt::total_hazards(launches), 0u);
}

[[nodiscard]] const simt::Hazard* find_hazard(const simt::HazardReport& r,
                                              simt::HazardKind kind)
{
    for (const auto& h : r.hazards)
        if (h.kind == kind)
            return &h;
    return nullptr;
}

[[nodiscard]] std::string hazard_json(const simt::LaunchStats& stats)
{
    std::ostringstream os;
    simt::write_hazard_json(os, {&stats, 1});
    return os.str();
}

} // namespace

// ----------------------------------------------------- clean algorithms ----

// All seven shipped algorithms, all seven paper dtype pairs: hazard-clean,
// and the checker changes neither the table nor a single counter.
TEST(HazardClean, AllAlgorithmsAllPairsObservationalOnly)
{
    for (const sat::Algorithm algo : sat::kAllAlgorithms)
        for (const DtypePair pair : satgpu::kPaperDtypePairs) {
            const auto image = sat::AnyMatrix::random(pair.in, kH, kW, 7);
            satgpu::visit_paper_pair(
                pair, [&]<typename Tin, typename Tout>(
                          std::type_identity<Tin>, std::type_identity<Tout>) {
                    simt::Engine plain_eng({.record_history = false});
                    simt::Engine check_eng({.record_history = false});
                    const auto plain = sat::compute_sat<Tout>(
                        plain_eng, image.as<Tin>(), {.algorithm = algo});
                    const auto checked = sat::compute_sat<Tout>(
                        check_eng, image.as<Tin>(),
                        {.algorithm = algo, .check = true});

                    expect_all_clean(checked.launches);
                    // Observational only: bit-identical table + counters.
                    EXPECT_EQ(checked.table, plain.table)
                        << sat::to_string(algo) << " " << pair_name(pair);
                    ASSERT_EQ(checked.launches.size(),
                              plain.launches.size());
                    for (std::size_t i = 0; i < plain.launches.size(); ++i)
                        EXPECT_EQ(checked.launches[i].counters,
                                  plain.launches[i].counters)
                            << sat::to_string(algo) << " launch " << i;
                    // No report without the option.
                    for (const auto& l : plain.launches)
                        EXPECT_EQ(l.hazards, nullptr);
                });
        }
}

// Hazard-clean at 1, 2, and all hardware threads (one representative
// algorithm per engine; the full cross product runs above at default
// threading).
TEST(HazardClean, EveryThreadCount)
{
    const unsigned hw = std::thread::hardware_concurrency();
    for (const int threads : {1, 2, static_cast<int>(hw == 0 ? 4 : hw)}) {
        sat::Runtime rt({.record_history = false, .num_threads = threads});
        for (const sat::Algorithm algo : sat::kAllAlgorithms) {
            const auto plan = rt.plan({.height = kH,
                                       .width = kW,
                                       .dtypes = {Dtype::u8_, Dtype::u32_},
                                       .algorithm = algo,
                                       .check = true});
            const auto image =
                sat::AnyMatrix::random(Dtype::u8_, kH, kW, 11);
            expect_all_clean(plan.execute(image).launches);
        }
    }
}

// ------------------------------------------------------- broken kernels ----

// The missing-barrier BRLT races (WAW across rounds on the staging tiles)
// yet still transposes correctly under round-robin -- the checker must
// flag it at the exact line of the offending store.
TEST(HazardBroken, MissingBarrierBrltFlaggedAtExactSite)
{
    simt::Engine eng({.record_history = false, .check = true});
    const auto run = sat::broken::run_brlt_missing_barrier(eng);

    EXPECT_TRUE(run.output_correct);
    ASSERT_NE(run.stats.hazards, nullptr);
    EXPECT_FALSE(run.stats.hazards->clean());

    const simt::Hazard* waw =
        find_hazard(*run.stats.hazards, simt::HazardKind::kSmemWaw);
    ASSERT_NE(waw, nullptr);
    const std::string want_site =
        std::string(sat::broken::kFile) + ":" +
        std::to_string(sat::broken::brlt_store_line());
    EXPECT_EQ(waw->site, want_site);
    EXPECT_EQ(waw->other_site, want_site); // conflicting write: same store
    EXPECT_EQ(waw->note, "brlt.tiles");
    EXPECT_EQ(waw->first_block, 0);
    EXPECT_GT(waw->count, 0u);
    // Round 2's warps (8..15) overwrite round 1's tiles (warps 0..7).
    EXPECT_GE(waw->warp, 8);
    EXPECT_LT(waw->other_warp, 8);
}

// The unsynced carry's gather reads warp 0's same-interval scan writes.
TEST(HazardBroken, UnsyncedSmemTileFlaggedAtExactSite)
{
    simt::Engine eng({.record_history = false, .check = true});
    const auto run = sat::broken::run_unsynced_smem_tile(eng);

    EXPECT_TRUE(run.output_correct);
    ASSERT_NE(run.stats.hazards, nullptr);

    // Both gather loads race with warp 0's scan writes; each aggregates
    // as its own (kind, site) finding.  Assert the marked block-total
    // load is among them.
    const std::string want_site =
        std::string(sat::broken::kFile) + ":" +
        std::to_string(sat::broken::carry_load_line());
    const simt::Hazard* raw = nullptr;
    for (const auto& h : run.stats.hazards->hazards)
        if (h.kind == simt::HazardKind::kSmemRaw && h.site == want_site)
            raw = &h;
    ASSERT_NE(raw, nullptr);
    EXPECT_EQ(raw->note, "carry.partials");
    EXPECT_EQ(raw->other_warp, 0); // warp 0 wrote during its scan
}

// The aggregated report -- and its serialized bytes -- are identical for
// every engine thread count, like the counters themselves.  A multi-block
// broken launch exercises the per-worker merge.
TEST(HazardBroken, ReportBytesIdenticalForEveryThreadCount)
{
    auto run_at = [](int threads) {
        simt::Engine eng({.record_history = false,
                          .num_threads = threads,
                          .check = true});
        simt::DeviceBuffer<std::uint32_t> excl(8 * 8 * kWarpSize);
        simt::DeviceBuffer<std::uint32_t> total(8 * 8 * kWarpSize);
        const simt::KernelInfo info{"broken_carry_grid", 32,
                                    sat::block_carry_smem_bytes<
                                        std::uint32_t>(8)};
        // 8 blocks x 8 warps; each block gathers into its own output rows.
        const simt::LaunchConfig cfg{{8, 1, 1}, {8 * kWarpSize, 1, 1}};
        return eng.launch(info, cfg, [&](simt::WarpCtx& w) {
            return sat::broken::broken_carry_warp<std::uint32_t>(w, excl,
                                                                 total);
        });
    };

    const auto base = run_at(1);
    ASSERT_NE(base.hazards, nullptr);
    EXPECT_FALSE(base.hazards->clean());
    const std::string base_json = hazard_json(base);
    for (const int threads : {2, 4, 0}) {
        const auto stats = run_at(threads);
        EXPECT_EQ(hazard_json(stats), base_json) << threads << " threads";
    }
}

// ------------------------------------------------------- unit detectors ----

// Reading shared memory no warp has written.
TEST(HazardUnit, UninitializedSmemRead)
{
    simt::Engine eng({.record_history = false, .check = true});
    const simt::KernelInfo info{"uninit_read", 32, 32 * 4};
    const simt::LaunchConfig cfg{{1, 1, 1}, {kWarpSize, 1, 1}};
    const auto stats = eng.launch(info, cfg, [](simt::WarpCtx& w) {
        return [](simt::WarpCtx& wc) -> simt::KernelTask {
            auto sm = wc.smem_alloc<std::uint32_t>("scratch", kWarpSize);
            const auto v = sm.load(LaneVec<std::int64_t>::lane_index());
            (void)v;
            co_return;
        }(w);
    });
    ASSERT_NE(stats.hazards, nullptr);
    const simt::Hazard* h =
        find_hazard(*stats.hazards, simt::HazardKind::kSmemUninitRead);
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->note, "scratch");
    EXPECT_EQ(h->count, 32u); // one per lane
}

// A warp returns before a barrier its siblings reach.
namespace {
std::uint32_t& divergent_sync_line() noexcept
{
    static std::uint32_t line = 0;
    return line;
}

simt::KernelTask divergent_warp(simt::WarpCtx& w)
{
    if (w.warp_id() == 0)
        co_return; // exits without executing the barrier below
    { divergent_sync_line() = __LINE__; co_await w.sync(); }
}
} // namespace

TEST(HazardUnit, BarrierDivergence)
{
    simt::Engine eng({.record_history = false, .check = true});
    const simt::KernelInfo info{"divergent_exit", 32, 0};
    const simt::LaunchConfig cfg{{1, 1, 1}, {4 * kWarpSize, 1, 1}};
    const auto stats = eng.launch(
        info, cfg, [](simt::WarpCtx& w) { return divergent_warp(w); });
    ASSERT_NE(stats.hazards, nullptr);
    const simt::Hazard* h =
        find_hazard(*stats.hazards, simt::HazardKind::kBarrierDivergence);
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->site, "tests/test_hazard_checker.cpp:" +
                           std::to_string(divergent_sync_line()));
    EXPECT_EQ(h->warp, 1);       // the first warp left waiting at the site
    EXPECT_EQ(h->other_warp, 0); // the warp that exited early
}

// Shuffle sourcing a lane outside the active mask, and a vote predicate
// with bits outside it -- exercised directly through the thread-local
// scope the engine installs.
TEST(HazardUnit, ShuffleInactiveSourceAndVotePredicate)
{
    simt::HazardChecker chk;
    const simt::LaneMask lower_half = 0x0000ffffu;
    {
        const simt::HazardCheckerScope scope(&chk);
        chk.begin_block(0);
        chk.set_active_warp(3);

        const auto v = LaneVec<std::int64_t>::lane_index();
        // Lane 15 (active) sources lane 16 (inactive).
        (void)simt::shfl_down(v, 1, kWarpSize, lower_half);
        // Predicate claims lanes the mask excludes.
        (void)simt::ballot(simt::kFullMask, lower_half);

        chk.set_active_warp(-1);
        chk.end_block();
    }
    const auto report = chk.build_report();

    const simt::Hazard* sh =
        find_hazard(report, simt::HazardKind::kShuffleInactiveSource);
    ASSERT_NE(sh, nullptr);
    EXPECT_EQ(sh->count, 1u);
    EXPECT_EQ(sh->detail, 16); // the out-of-mask source lane
    EXPECT_EQ(sh->warp, 3);

    const simt::Hazard* vt =
        find_hazard(report, simt::HazardKind::kVoteInactivePredicate);
    ASSERT_NE(vt, nullptr);
    EXPECT_EQ(vt->detail,
              static_cast<std::int64_t>(simt::kFullMask & ~lower_half));
}

// Masked shuffles within the active set are not flagged, and a full-mask
// vote is clean.
TEST(HazardUnit, MaskedIntrinsicsInsideActiveSetAreClean)
{
    simt::HazardChecker chk;
    {
        const simt::HazardCheckerScope scope(&chk);
        chk.begin_block(0);
        const auto v = LaneVec<std::int64_t>::lane_index();
        (void)simt::shfl_down(v, 1, 16, 0x0000ffffu); // segment 0 only
        (void)simt::shfl(v, 3, 8);
        (void)simt::ballot(0x0000ffffu, 0x0000ffffu);
        chk.end_block();
    }
    EXPECT_TRUE(chk.build_report().clean());
}

// -------------------------------------------------------------- plumbing ----

// PlanRequest::check reaches the engine and back off again (CheckScope
// restores the engine-level option).
TEST(HazardPlumbing, RuntimeAndOptionsPlumb)
{
    sat::Runtime rt({.record_history = false});
    const auto image = sat::AnyMatrix::random(Dtype::u8_, kH, kW, 3);

    const auto unchecked = rt.plan({.height = kH,
                                    .width = kW,
                                    .dtypes = {Dtype::u8_, Dtype::u32_}});
    for (const auto& l : unchecked.execute(image).launches)
        EXPECT_EQ(l.hazards, nullptr);

    const auto checked = rt.plan({.height = kH,
                                  .width = kW,
                                  .dtypes = {Dtype::u8_, Dtype::u32_},
                                  .check = true});
    expect_all_clean(checked.execute(image).launches);

    // One plan's check does not leak into the next execution.
    for (const auto& l : unchecked.execute(image).launches)
        EXPECT_EQ(l.hazards, nullptr);
}

TEST(HazardPlumbing, CheckScopeElevatesAndRestores)
{
    simt::Engine eng({.record_history = false});
    EXPECT_FALSE(eng.options().check);
    {
        const simt::CheckScope scope(eng, true);
        EXPECT_TRUE(eng.options().check);
    }
    EXPECT_FALSE(eng.options().check);

    simt::Engine on({.record_history = false, .check = true});
    {
        // Elevate-only: a check=false computation cannot switch a
        // check=true engine off.
        const simt::CheckScope scope(on, false);
        EXPECT_TRUE(on.options().check);
    }
    EXPECT_TRUE(on.options().check);
}

// Unchecked launches serialize {"checked":false} and count zero hazards.
TEST(HazardPlumbing, UncheckedLaunchJson)
{
    simt::Engine eng({.record_history = false});
    const simt::KernelInfo info{"plain", 32, 0};
    const simt::LaunchConfig cfg{{1, 1, 1}, {kWarpSize, 1, 1}};
    const auto stats = eng.launch(info, cfg, [](simt::WarpCtx& w) {
        return [](simt::WarpCtx&) -> simt::KernelTask { co_return; }(w);
    });
    EXPECT_EQ(stats.hazards, nullptr);
    EXPECT_EQ(hazard_json(stats),
              "{\"schema\":\"satgpu-hazard-v1\",\"launches\":[{\"kernel\":"
              "\"plain\",\"checked\":false}]}\n");
    EXPECT_EQ(simt::total_hazards({&stats, 1}), 0u);
}
