// Tests for the type-erased SAT runtime (sat/runtime.hpp): the paper's
// seven dtype pairs, plan/execute identity with
// the templated compute_sat and the serial CPU oracle, buffer-pool reuse
// guarantees (including partition walls), batched and fused-wave
// execution, the cost-model kAuto policy, the service layer's plan-cache
// key (sat/service.hpp), and result ownership: no returned table aliases
// storage that a later call reuses.
#include "core/random_fill.hpp"
#include "sat/integral_video.hpp"
#include "sat/runtime.hpp"
#include "sat/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <mutex>
#include <set>
#include <thread>
#include <type_traits>

namespace sat = satgpu::sat;
namespace simt = satgpu::simt;
using satgpu::Dtype;
using satgpu::DtypePair;
using satgpu::Matrix;

namespace {

// Ragged, non-multiple-of-32 shape: exercises every partial-tile path.
constexpr std::int64_t kH = 97;
constexpr std::int64_t kW = 130;

/// Runtime result == templated compute_sat result (exact, all dtypes) and
/// == serial oracle (exact for integers, 1e-3 for floats, matching the
/// tolerance test_sat.cpp uses for the templated layer).
void expect_runtime_identical(sat::Runtime& rt, DtypePair dt,
                              sat::Algorithm algo)
{
    const auto image = sat::AnyMatrix::random(dt.in, kH, kW, /*seed=*/7);
    const auto plan = rt.plan(
        {.height = kH, .width = kW, .dtypes = dt, .algorithm = algo});
    const auto got = plan.execute(image);

    satgpu::visit_paper_pair(
        dt, [&]<typename Tin, typename Tout>(std::type_identity<Tin>,
                                             std::type_identity<Tout>) {
            // The type-erased path must be bit-identical to the templated
            // path: same kernels, same order, pooled buffers zeroed like
            // fresh ones.
            simt::Engine eng;
            const auto templated =
                sat::compute_sat<Tout>(eng, image.as<Tin>(), {algo});
            EXPECT_EQ(got.table.as<Tout>(), templated.table)
                << sat::to_string(algo) << " " << pair_name(dt);
            EXPECT_EQ(got.launches.size(), templated.launches.size());

            const auto oracle = sat::sat_serial<Tout>(image.as<Tin>());
            if constexpr (std::is_floating_point_v<Tout>) {
                EXPECT_LE(satgpu::max_abs_diff(got.table.as<Tout>(), oracle),
                          1e-3)
                    << sat::to_string(algo) << " " << pair_name(dt);
            } else {
                EXPECT_EQ(got.table.as<Tout>(), oracle)
                    << sat::to_string(algo) << " " << pair_name(dt);
            }
        });
}

} // namespace

// ------------------------------------------------------------ AnyMatrix ----

TEST(AnyMatrix, ZerosCarriesDtypeAndShape)
{
    const auto m = sat::AnyMatrix::zeros(Dtype::f32_, 3, 5);
    EXPECT_FALSE(m.empty());
    EXPECT_EQ(m.dtype(), Dtype::f32_);
    EXPECT_EQ(m.height(), 3);
    EXPECT_EQ(m.width(), 5);
    EXPECT_EQ(m.as<satgpu::f32>()(2, 4), 0.0F);
}

TEST(AnyMatrix, RandomMatchesTypedFillRandom)
{
    const auto any = sat::AnyMatrix::random(Dtype::u8_, 4, 6, /*seed=*/11);
    Matrix<satgpu::u8> typed(4, 6);
    satgpu::fill_random(typed, /*seed=*/11);
    EXPECT_EQ(any.as<satgpu::u8>(), typed);
}

TEST(AnyMatrix, EqualityComparesDtypeShapeAndBits)
{
    const auto a = sat::AnyMatrix::random(Dtype::i32_, 2, 2, 1);
    const auto b = sat::AnyMatrix::random(Dtype::i32_, 2, 2, 1);
    const auto c = sat::AnyMatrix::random(Dtype::i32_, 2, 2, 2);
    const auto d = sat::AnyMatrix::random(Dtype::u32_, 2, 2, 1);
    EXPECT_TRUE(a == b);
    EXPECT_FALSE(a == c);
    EXPECT_FALSE(a == d); // same bits pattern but a different dtype
}

TEST(AnyMatrix, DefaultConstructedIsEmpty)
{
    EXPECT_TRUE(sat::AnyMatrix{}.empty());
}

// --------------------------------------------------------- dtype parsing ----

TEST(DtypeParsing, AllSevenPaperPairsRoundTrip)
{
    for (const DtypePair p : satgpu::kPaperDtypePairs) {
        const auto parsed = satgpu::parse_dtype_pair(satgpu::pair_name(p));
        ASSERT_TRUE(parsed.has_value()) << satgpu::pair_name(p);
        EXPECT_TRUE(*parsed == p);
    }
}

TEST(DtypeParsing, RejectsMalformedStrings)
{
    EXPECT_FALSE(satgpu::parse_dtype_pair("").has_value());
    EXPECT_FALSE(satgpu::parse_dtype_pair("8u").has_value());
    EXPECT_FALSE(satgpu::parse_dtype_pair("8u32q").has_value());
    EXPECT_FALSE(satgpu::parse_dtype_pair("16u32u").has_value());
    EXPECT_FALSE(satgpu::parse_dtype_pair("8u32u junk").has_value());
}

// ------------------------------------------------------------ kernel set ----

// The kernel set is the compile-time dispatch in visit_paper_pair: one
// typed instantiation per paper pair, and nothing for any other pair.
TEST(KernelRegistry, OneEntryPerPaperPair)
{
    for (const DtypePair p : satgpu::kPaperDtypePairs) {
        const DtypePair dispatched = satgpu::visit_paper_pair(
            p, []<typename Tin, typename Tout>(std::type_identity<Tin>,
                                               std::type_identity<Tout>) {
                return satgpu::make_pair_of<Tin, Tout>();
            });
        EXPECT_TRUE(dispatched == p) << satgpu::pair_name(p);
    }
}

TEST(KernelRegistry, RejectsNonPaperPairs)
{
    // 8u -> 64f is computable in principle but not one of Table 3's pairs.
    const DtypePair p{Dtype::u8_, Dtype::f64_};
    EXPECT_DEATH((void)satgpu::visit_paper_pair(p, [](auto, auto) {}),
                 "outside the paper's seven");
    EXPECT_DEATH(
        {
            sat::Runtime rt;
            (void)rt.plan({.height = 32, .width = 32, .dtypes = p});
        },
        "outside the paper's seven");
}

// ---------------------------------------------------------- paper pairs ----

TEST(Dtype, IsPaperPairExactlyTheSevenPaperPairs)
{
    constexpr Dtype kAll[] = {Dtype::u8_, Dtype::i32_, Dtype::u32_,
                              Dtype::f32_, Dtype::f64_};
    int paper = 0;
    for (const Dtype in : kAll)
        for (const Dtype out : kAll) {
            const DtypePair p{in, out};
            const bool listed =
                std::find(std::begin(satgpu::kPaperDtypePairs),
                          std::end(satgpu::kPaperDtypePairs),
                          p) != std::end(satgpu::kPaperDtypePairs);
            EXPECT_EQ(satgpu::is_paper_pair(p), listed)
                << satgpu::pair_name(p);
            paper += satgpu::is_paper_pair(p) ? 1 : 0;
        }
    EXPECT_EQ(paper, static_cast<int>(std::size(satgpu::kPaperDtypePairs)));
    // 8u -> 64f is computable in principle but not one of Table 3's pairs.
    static_assert(!satgpu::is_paper_pair({Dtype::u8_, Dtype::f64_}));
}

// ------------------------------------------------- plan/execute identity ----

// Every paper dtype pair x every concrete algorithm, on one shared runtime
// (so later combinations also prove pooled-buffer reuse does not perturb
// results).
TEST(RuntimeIdentity, AllPairsAllAlgorithmsMatchTemplatedAndOracle)
{
    sat::Runtime rt;
    for (const DtypePair dt : satgpu::kPaperDtypePairs)
        for (const sat::Algorithm algo : sat::kAllAlgorithms)
            expect_runtime_identical(rt, dt, algo);
}

TEST(RuntimePlan, ResolvesShapeDtypeAndWorkspace)
{
    sat::Runtime rt;
    const auto dt = satgpu::make_pair_of<satgpu::u8, satgpu::u32>();
    const auto plan =
        rt.plan({.height = 64,
                 .width = 48,
                 .dtypes = dt,
                 .algorithm = sat::Algorithm::kScanTransposeScan});
    EXPECT_EQ(plan.algorithm(), sat::Algorithm::kScanTransposeScan);
    EXPECT_EQ(plan.requested(), sat::Algorithm::kScanTransposeScan);
    EXPECT_EQ(plan.height(), 64);
    EXPECT_EQ(plan.width(), 48);
    EXPECT_TRUE(plan.scores().empty()); // no ranking unless kAuto
    // 1 input staging image (u8) + 3 pooled scratch images (u32); the
    // result table is the last pass's own buffer, never leased.
    EXPECT_EQ(plan.workspace_bytes(), 64 * 48 * (1 + 3 * 4));
    EXPECT_FALSE(plan.launch_configs().empty());
    // Every leased buffer is live at once during the pass sequence, so the
    // bound is met exactly.
    (void)plan.execute(sat::AnyMatrix::random(Dtype::u8_, 64, 48, 1));
    EXPECT_EQ(rt.pool().high_water_bytes(/*partition=*/0),
              static_cast<std::uint64_t>(plan.workspace_bytes()));
}

TEST(RuntimePlan, LaunchConfigsMatchExecution)
{
    sat::Runtime rt;
    const auto dt = satgpu::make_pair_of<satgpu::f32, satgpu::f32>();
    const auto plan = rt.plan({.height = kH,
                               .width = kW,
                               .dtypes = dt,
                               .algorithm = sat::Algorithm::kBrltScanRow});
    const auto configs = plan.launch_configs();
    const auto res =
        plan.execute(sat::AnyMatrix::random(dt.in, kH, kW, /*seed=*/3));
    ASSERT_EQ(configs.size(), res.launches.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        EXPECT_EQ(configs[i].grid, res.launches[i].config.grid);
        EXPECT_EQ(configs[i].block, res.launches[i].config.block);
    }
}

// ------------------------------------------------------ buffer pooling ----

TEST(RuntimePooling, SecondExecutePerformsZeroAllocations)
{
    sat::Runtime rt;
    const auto dt = satgpu::make_pair_of<satgpu::u8, satgpu::u32>();
    const auto plan = rt.plan({.height = kH,
                               .width = kW,
                               .dtypes = dt,
                               .algorithm = sat::Algorithm::kBrltScanRow});
    const auto image = sat::AnyMatrix::random(dt.in, kH, kW, /*seed=*/5);

    const auto first = plan.execute(image);
    const auto warm = rt.pool_stats();
    EXPECT_GT(warm.allocations, 0U);
    EXPECT_EQ(warm.outstanding, 0U); // everything returned to the pool

    const auto second = plan.execute(image);
    const auto after = rt.pool_stats();
    EXPECT_EQ(after.allocations, warm.allocations); // zero new allocations
    EXPECT_GT(after.reuses, warm.reuses);
    EXPECT_EQ(after.bytes_allocated, warm.bytes_allocated);
    EXPECT_TRUE(first.table == second.table); // reuse is bit-invisible
}

TEST(RuntimePooling, BatchReusesWarmBuffersAcrossImages)
{
    sat::Runtime rt;
    const auto dt = satgpu::make_pair_of<satgpu::f64, satgpu::f64>();
    const auto plan = rt.plan({.height = 65,
                               .width = 33,
                               .dtypes = dt,
                               .algorithm = sat::Algorithm::kScanRowBrlt});

    std::vector<sat::AnyMatrix> images;
    for (std::uint64_t s = 0; s < 4; ++s)
        images.push_back(sat::AnyMatrix::random(dt.in, 65, 33, s));

    const auto warm = [&] {
        auto r = plan.execute(images[0]); // warm-up allocates the pool
        return rt.pool_stats();
    }();

    std::vector<sat::RuntimeResult> results;
    for (const auto& image : images)
        results.push_back(plan.execute(image));
    const auto after = rt.pool_stats();
    EXPECT_EQ(after.allocations, warm.allocations); // batch allocated nothing
    EXPECT_GT(after.reuses, warm.reuses);

    ASSERT_EQ(results.size(), images.size());
    for (std::size_t i = 0; i < images.size(); ++i) {
        const auto single = plan.execute(images[i]);
        EXPECT_TRUE(results[i].table == single.table) << "image " << i;
    }
}

TEST(RuntimePooling, ReclearContributesNoCountersToNextLaunch)
{
    // acquire()'s re-clear of a dirty reused buffer is host-side
    // bookkeeping, not simulated traffic: it must not leak a single
    // global-memory (or any other) counter into whatever launch runs
    // next.  Pins the invariant the BENCH JSON byte-identity relies on.
    simt::BufferPool pool;
    {
        auto lease = pool.acquire<std::uint32_t>(1024);
        auto host = lease->host();
        std::fill(host.begin(), host.end(), 0xdeadbeefu); // dirty it
    }
    simt::PerfCounters c;
    {
        simt::CounterScope scope(c);
        auto lease = pool.acquire<std::uint32_t>(1024); // re-clears
        for (const std::uint32_t v : lease->host())
            ASSERT_EQ(v, 0u);
    }
    EXPECT_EQ(c, simt::PerfCounters{});
}

TEST(RuntimePooling, DistinctShapesAllocateDistinctBuffers)
{
    sat::Runtime rt;
    const auto dt = satgpu::make_pair_of<satgpu::u8, satgpu::u32>();
    const auto small = rt.plan({.height = 32,
                                .width = 32,
                                .dtypes = dt,
                                .algorithm = sat::Algorithm::kOpencvLike});
    (void)small.execute(sat::AnyMatrix::random(dt.in, 32, 32, 1));
    const auto before = rt.pool_stats();

    const auto big = rt.plan({.height = 64,
                              .width = 64,
                              .dtypes = dt,
                              .algorithm = sat::Algorithm::kOpencvLike});
    (void)big.execute(sat::AnyMatrix::random(dt.in, 64, 64, 1));
    // The pool matches on exact (type, count): a bigger image cannot steal
    // the smaller image's buffers.
    EXPECT_GT(rt.pool_stats().allocations, before.allocations);
}

// ------------------------------------------------------- pool partitions ----

TEST(BufferPoolPartitions, PartitionsNeverShareBuffers)
{
    simt::BufferPool pool;
    const std::uint32_t* p1 = nullptr;
    {
        auto lease = pool.acquire<std::uint32_t>(256, /*partition=*/1);
        p1 = lease->host().data();
    }
    // Same (type, count) from another partition: the partition-1 buffer
    // sits in the pool but must NOT be handed out.
    {
        auto lease = pool.acquire<std::uint32_t>(256, /*partition=*/2);
        EXPECT_NE(lease->host().data(), p1);
    }
    EXPECT_EQ(pool.stats().allocations, 2U);
    EXPECT_EQ(pool.stats().reuses, 0U);
    // Back in partition 1 the original buffer IS reused.
    {
        auto lease = pool.acquire<std::uint32_t>(256, /*partition=*/1);
        EXPECT_EQ(lease->host().data(), p1);
    }
    EXPECT_EQ(pool.stats().reuses, 1U);
}

// The service-layer regression: two clients leasing concurrently from two
// partitions of one (mutex-guarded) pool never observe each other's
// buffers, across many interleaved acquire/release cycles.
TEST(BufferPoolPartitions, ConcurrentLeasesFromTwoPartitionsStayDisjoint)
{
    simt::BufferPool pool;
    std::set<const void*> seen[2];
    std::mutex seen_mu;
    std::vector<std::thread> clients;
    for (int part = 1; part <= 2; ++part)
        clients.emplace_back([&pool, &seen, &seen_mu, part] {
            for (int iter = 0; iter < 50; ++iter) {
                auto a = pool.acquire<std::uint32_t>(128, part);
                auto b = pool.acquire<std::uint32_t>(128, part);
                std::lock_guard lk(seen_mu);
                seen[part - 1].insert(a->host().data());
                seen[part - 1].insert(b->host().data());
            }
        });
    for (auto& t : clients)
        t.join();
    for (const void* p : seen[0])
        EXPECT_EQ(seen[1].count(p), 0U) << "buffer crossed partitions";
    // Each partition stabilized on its own two buffers.
    EXPECT_EQ(pool.stats().allocations, 4U);
    EXPECT_EQ(pool.partition_stats(1).allocations, 2U);
    EXPECT_EQ(pool.partition_stats(2).allocations, 2U);
}

TEST(BufferPoolPartitions, PerPartitionHighWaterTracksPeakBytes)
{
    simt::BufferPool pool;
    {
        auto a = pool.acquire<std::uint32_t>(256, /*partition=*/1); // 1 KiB
        auto b = pool.acquire<std::uint32_t>(256, /*partition=*/1); // 2 KiB
        EXPECT_EQ(pool.partition_stats(1).bytes_outstanding, 2048U);
    }
    EXPECT_EQ(pool.partition_stats(1).outstanding, 0U);
    EXPECT_EQ(pool.partition_stats(1).bytes_outstanding, 0U);
    EXPECT_EQ(pool.high_water_bytes(1), 2048U);
    // A later single lease does not move the peak.
    { auto c = pool.acquire<std::uint32_t>(256, /*partition=*/1); }
    EXPECT_EQ(pool.high_water_bytes(1), 2048U);
    // Untouched partitions report zero; the global peak covers partition 1.
    EXPECT_EQ(pool.high_water_bytes(2), 0U);
    EXPECT_GE(pool.stats().high_water_bytes, 2048U);
    EXPECT_EQ(pool.stats().bytes_outstanding, 0U);
}

TEST(RuntimePartition, PlanPartitionIsolatesPooledBuffers)
{
    sat::Runtime rt;
    const auto dt = satgpu::make_pair_of<satgpu::u8, satgpu::u32>();
    const auto image = sat::AnyMatrix::random(dt.in, 33, 29, /*seed=*/4);
    const auto mk = [&](int partition) {
        return rt.plan({.height = 33,
                        .width = 29,
                        .dtypes = dt,
                        .algorithm = sat::Algorithm::kBrltScanRow,
                        .pool_partition = partition});
    };

    const auto p1 = mk(1);
    (void)p1.execute(image);
    const auto warm = rt.pool_stats();

    // Same shape in another partition: all-new buffers.
    const auto p2 = mk(2);
    (void)p2.execute(image);
    EXPECT_GT(rt.pool_stats().allocations, warm.allocations);

    // Back in partition 1: pure reuse.
    const auto again = rt.pool_stats();
    (void)p1.execute(image);
    EXPECT_EQ(rt.pool_stats().allocations, again.allocations);
    EXPECT_GT(rt.pool_stats().reuses, again.reuses);
    EXPECT_GT(rt.pool().high_water_bytes(1), 0U);
    EXPECT_GT(rt.pool().high_water_bytes(2), 0U);
}

// ------------------------------------------------------------ wave fusion ----

// Plan::execute_wave over K images must return tables bit-identical to K
// execute() calls, while issuing fused grid.z = K launches.
TEST(RuntimeWave, TablesBitIdenticalToPerImageExecute)
{
    sat::Runtime rt;
    constexpr std::size_t kK = 3;
    const sat::Algorithm algos[] = {
        sat::Algorithm::kBrltScanRow,
        sat::Algorithm::kScanRowColumn,
        sat::Algorithm::kScanTransposeScan,
        sat::Algorithm::kOpencvLike,
        sat::Algorithm::kNppLike,
    };
    for (const auto dt : {satgpu::make_pair_of<satgpu::u8, satgpu::u32>(),
                          satgpu::make_pair_of<satgpu::f64, satgpu::f64>()})
        for (const sat::Algorithm algo : algos) {
            const auto plan = rt.plan({.height = kH,
                                       .width = kW,
                                       .dtypes = dt,
                                       .algorithm = algo});
            std::vector<sat::AnyMatrix> images;
            std::vector<const sat::AnyMatrix*> ptrs;
            for (std::uint64_t s = 0; s < kK; ++s)
                images.push_back(sat::AnyMatrix::random(dt.in, kH, kW, s));
            for (const auto& m : images)
                ptrs.push_back(&m);

            const auto wave = plan.execute_wave(ptrs);
            ASSERT_EQ(wave.tables.size(), kK);
            for (std::size_t i = 0; i < kK; ++i)
                EXPECT_TRUE(wave.tables[i] == plan.execute(images[i]).table)
                    << sat::to_string(algo) << " " << pair_name(dt)
                    << " image " << i;

            // Fused: one launch per kernel pass with grid.z = K, not K
            // per-image launch sequences.
            ASSERT_EQ(wave.launches.size(),
                      plan.execute(images[0]).launches.size())
                << sat::to_string(algo);
            for (const auto& l : wave.launches)
                EXPECT_EQ(l.config.grid.z, static_cast<std::int64_t>(kK))
                    << sat::to_string(algo);
        }
}

TEST(RuntimeWave, TiledPlanFallsBackToPerImageLoop)
{
    sat::Runtime rt;
    const auto dt = satgpu::make_pair_of<satgpu::u8, satgpu::u32>();
    const auto plan = rt.plan({.height = kH,
                               .width = kW,
                               .dtypes = dt,
                               .algorithm = sat::Algorithm::kBrltScanRow,
                               .tile = {.tile_h = 64, .tile_w = 64}});
    std::vector<sat::AnyMatrix> images;
    for (std::uint64_t s = 0; s < 2; ++s)
        images.push_back(sat::AnyMatrix::random(dt.in, kH, kW, s));
    const sat::AnyMatrix* ptrs[] = {&images[0], &images[1]};

    const auto wave = plan.execute_wave(ptrs);
    ASSERT_EQ(wave.tables.size(), 2U);
    const auto single = plan.execute(images[0]);
    EXPECT_TRUE(wave.tables[0] == single.table);
    EXPECT_TRUE(wave.tables[1] == plan.execute(images[1]).table);
    // Per-image fallback: the wave concatenates two full launch sequences.
    EXPECT_EQ(wave.launches.size(), 2 * single.launches.size());
}

TEST(RuntimeWave, SecondWaveAllocatesNothing)
{
    sat::Runtime rt;
    const auto dt = satgpu::make_pair_of<satgpu::u8, satgpu::u32>();
    const auto plan = rt.plan({.height = 48,
                               .width = 40,
                               .dtypes = dt,
                               .algorithm = sat::Algorithm::kScanRowColumn});
    std::vector<sat::AnyMatrix> images;
    std::vector<const sat::AnyMatrix*> ptrs;
    for (std::uint64_t s = 0; s < 4; ++s)
        images.push_back(sat::AnyMatrix::random(dt.in, 48, 40, s));
    for (const auto& m : images)
        ptrs.push_back(&m);

    const auto first = plan.execute_wave(ptrs);
    const auto warm = rt.pool_stats();
    const auto second = plan.execute_wave(ptrs);
    const auto after = rt.pool_stats();
    EXPECT_EQ(after.allocations, warm.allocations);
    EXPECT_GT(after.reuses, warm.reuses);
    for (std::size_t i = 0; i < images.size(); ++i)
        EXPECT_TRUE(first.tables[i] == second.tables[i]);
}

// ---------------------------------------------------------- plan-cache key ----

TEST(PlanKeyProperties, EqualRequestsHashAndCompareEqual)
{
    const sat::PlanRequest req{.height = 97,
                               .width = 130,
                               .dtypes = {Dtype::u8_, Dtype::u32_},
                               .algorithm = sat::Algorithm::kBrltScanRow};
    const auto a = sat::plan_key(req);
    const auto b = sat::plan_key(req);
    EXPECT_TRUE(a == b);
    EXPECT_EQ(sat::PlanKeyHash{}(a), sat::PlanKeyHash{}(b));
}

// Any plan-shaping field differing must miss (keys unequal); the fields
// the service owns (pool partition) or fixes service-wide (gpu) must NOT
// affect the key.
TEST(PlanKeyProperties, AnyDifferingPlanFieldMisses)
{
    const sat::PlanRequest base{.height = 97,
                                .width = 130,
                                .dtypes = {Dtype::u8_, Dtype::u32_},
                                .algorithm = sat::Algorithm::kBrltScanRow};
    const auto key = sat::plan_key(base);
    const auto expect_miss = [&](sat::PlanRequest req, const char* what) {
        const auto other = sat::plan_key(req);
        EXPECT_FALSE(key == other) << what;
        // Not guaranteed for an arbitrary hash, but deterministic for
        // these fixed values -- a collision here means the hash lost a
        // field and the cache would still be correct yet quadratic.
        EXPECT_NE(sat::PlanKeyHash{}(key), sat::PlanKeyHash{}(other))
            << what;
    };

    auto r = base;
    r.height = 98;
    expect_miss(r, "height");
    r = base;
    r.width = 131;
    expect_miss(r, "width");
    r = base;
    r.dtypes = {Dtype::u8_, Dtype::i32_};
    expect_miss(r, "dtypes");
    r = base;
    r.algorithm = sat::Algorithm::kScanRowColumn;
    expect_miss(r, "algorithm");
    r = base;
    r.warp_scan = satgpu::scan::WarpScanKind::kBrentKung;
    expect_miss(r, "warp_scan");
    r = base;
    r.padded_smem = false;
    expect_miss(r, "padded_smem");
    r = base;
    r.tile = {.tile_h = 64, .tile_w = 64};
    expect_miss(r, "tile");
    r = base;
    r.tile = {.tile_h = 64, .tile_w = 64, .carry_fanout = 2};
    expect_miss(r, "tile fanout");
    r = base;
    r.check = true;
    expect_miss(r, "check");

    // Excluded fields: same key regardless.
    r = base;
    r.pool_partition = 7;
    EXPECT_TRUE(key == sat::plan_key(r));
    r = base;
    r.gpu = &satgpu::model::tesla_p100();
    EXPECT_TRUE(key == sat::plan_key(r));
}

// ---------------------------------------------------------------- kAuto ----

TEST(RuntimeAuto, RanksAllCandidatesAndNeverPicksNaive)
{
    sat::Runtime rt;
    const DtypePair pairs[] = {
        satgpu::make_pair_of<satgpu::u8, satgpu::u32>(),
        satgpu::make_pair_of<satgpu::f32, satgpu::f32>(),
        satgpu::make_pair_of<satgpu::f64, satgpu::f64>(),
    };
    for (const DtypePair dt : pairs) {
        const auto plan = rt.plan({.height = 1024,
                                   .width = 1024,
                                   .dtypes = dt,
                                   .algorithm = sat::Algorithm::kAuto});
        EXPECT_EQ(plan.requested(), sat::Algorithm::kAuto);
        ASSERT_EQ(plan.scores().size(), std::size(sat::kAllAlgorithms));
        EXPECT_EQ(plan.scores().front().algo, plan.algorithm());
        for (std::size_t i = 1; i < plan.scores().size(); ++i)
            EXPECT_LE(plan.scores()[i - 1].predicted_us,
                      plan.scores()[i].predicted_us);
        // The paper's headline result: the two-pass blocked algorithms beat
        // the naive full-pass scan-scan at every evaluated shape.
        EXPECT_NE(plan.algorithm(), sat::Algorithm::kNaiveScanScan)
            << satgpu::pair_name(dt);
    }
}

TEST(RuntimeAuto, AutoPlanExecutesCorrectly)
{
    sat::Runtime rt;
    const auto dt = satgpu::make_pair_of<satgpu::u8, satgpu::f32>();
    const auto plan = rt.plan({.height = 96,
                               .width = 41,
                               .dtypes = dt,
                               .algorithm = sat::Algorithm::kAuto});
    const auto image = sat::AnyMatrix::random(dt.in, 96, 41, /*seed=*/9);
    const auto res = plan.execute(image);
    const auto want = rt.reference(image, dt.out);
    EXPECT_LE(satgpu::max_abs_diff(res.table.as<satgpu::f32>(),
                                   want.as<satgpu::f32>()),
              1e-3F);
}

TEST(RuntimeAuto, PredictUsIsPositiveAndMonotonicInArea)
{
    sat::Runtime rt;
    const auto dt = satgpu::make_pair_of<satgpu::u8, satgpu::u32>();
    const auto& gpu = satgpu::model::tesla_p100();
    const double t1k = rt.predict_us(sat::Algorithm::kBrltScanRow, dt, 1024,
                                     1024, gpu);
    const double t4k = rt.predict_us(sat::Algorithm::kBrltScanRow, dt, 4096,
                                     4096, gpu);
    EXPECT_GT(t1k, 0.0);
    EXPECT_GT(t4k, 4.0 * t1k); // 16x the pixels must cost well over 4x
}

// ------------------------------------------------------------ reference ----

TEST(RuntimeReference, MatchesSerialOracle)
{
    sat::Runtime rt;
    const auto image = sat::AnyMatrix::random(Dtype::u8_, 13, 17, /*seed=*/2);
    const auto any = rt.reference(image, Dtype::u32_);
    const auto typed = sat::sat_serial<satgpu::u32>(image.as<satgpu::u8>());
    EXPECT_EQ(any.as<satgpu::u32>(), typed);
}

// ------------------------------------------------------ result ownership ----
//
// Returned tables own their storage: the last pass's result buffer is
// handed over without a copy, so it must never be pooled memory that a
// later call reuses.  Each case runs r1 = f(a); r2 = f(b); and demands that
// r1 still equals the oracle of a.

TEST(ResultOwnership, EarlierTablesSurviveLaterExecutes)
{
    sat::Runtime rt({.record_history = false});
    const DtypePair dt{Dtype::u8_, Dtype::u32_};
    const auto a = sat::AnyMatrix::random(dt.in, kH, kW, /*seed=*/1);
    const auto b = sat::AnyMatrix::random(dt.in, kH, kW, /*seed=*/2);
    const auto want_a = rt.reference(a, dt.out);
    const auto want_b = rt.reference(b, dt.out);
    for (const sat::Backend backend : {sat::Backend::kSim, sat::Backend::kNative})
        for (const sat::Algorithm algo : sat::kAllAlgorithms) {
            if (backend == sat::Backend::kNative &&
                !sat::native_supported(algo))
                continue;
            const auto plan = rt.plan({.height = kH,
                                       .width = kW,
                                       .dtypes = dt,
                                       .algorithm = algo,
                                       .backend = backend});
            ASSERT_EQ(plan.backend(), backend) << sat::to_string(algo);
            const std::string what = std::string(sat::to_string(algo)) +
                                     " " +
                                     std::string(sat::to_string(backend));
            const auto r1 = plan.execute(a);
            const auto r2 = plan.execute(b);
            EXPECT_TRUE(r1.table == want_a) << what;
            EXPECT_TRUE(r2.table == want_b) << what;

            const sat::AnyMatrix* ab[] = {&a, &b};
            const sat::AnyMatrix* ba[] = {&b, &a};
            const auto w1 = plan.execute_wave(ab);
            const auto w2 = plan.execute_wave(ba);
            ASSERT_EQ(w1.tables.size(), 2U);
            EXPECT_TRUE(w1.tables[0] == want_a) << what << " wave";
            EXPECT_TRUE(w1.tables[1] == want_b) << what << " wave";
            EXPECT_TRUE(w2.tables[0] == want_b) << what << " wave";
        }
}

TEST(ResultOwnership, EarlierQueryOutputsSurviveLaterExecutes)
{
    sat::Runtime rt({.record_history = false});
    const DtypePair dt{Dtype::u8_, Dtype::u32_};
    const auto a = sat::AnyMatrix::random(dt.in, kH, kW, /*seed=*/3);
    const auto b = sat::AnyMatrix::random(dt.in, kH, kW, /*seed=*/4);
    for (const sat::QuerySpec q :
         {sat::QuerySpec{sat::BoxFilterSpec{4}},
          sat::QuerySpec{sat::AdaptiveThresholdSpec{6, 0.9}},
          sat::QuerySpec{sat::RegionHistogramSpec{8, 3}}}) {
        const auto want_a = rt.query_reference(a, dt.out, q);
        const auto want_b = rt.query_reference(b, dt.out, q);
        for (const sat::QueryMode mode :
             {sat::QueryMode::kFused, sat::QueryMode::kMaterialize})
            for (const sat::Backend backend :
                 {sat::Backend::kSim, sat::Backend::kNative}) {
                const auto plan = rt.plan_query(
                    {.height = kH,
                     .width = kW,
                     .dtypes = dt,
                     .algorithm = sat::Algorithm::kBrltScanRow,
                     .tile = {64, 64},
                     .backend = backend,
                     .query = q,
                     .query_mode = mode});
                ASSERT_EQ(plan.backend(), backend) << sat::query_label(q);
                const auto r1 = plan.execute(a);
                const auto r2 = plan.execute(b);
                EXPECT_TRUE(r1.table == want_a)
                    << sat::query_label(q) << " " << sat::to_string(mode)
                    << " " << sat::to_string(backend);
                EXPECT_TRUE(r2.table == want_b) << sat::query_label(q);
            }
    }
}

TEST(ResultOwnership, LargeTablesSurviveLaterExecutes)
{
    // 4096 x 2304 32-bit outputs are 36 MiB, above kFreshMappingBytes: the
    // tables live on huge-page storage zero-filled across executor slots.
    constexpr std::int64_t kBigH = 4096;
    constexpr std::int64_t kBigW = 2304;
    static_assert(static_cast<std::size_t>(kBigH * kBigW) * 4 >=
                  satgpu::kFreshMappingBytes);
    sat::Runtime rt({.record_history = false, .num_threads = 4});
    const DtypePair dt{Dtype::u8_, Dtype::u32_};
    const auto a = sat::AnyMatrix::random(dt.in, kBigH, kBigW, /*seed=*/5);
    const auto b = sat::AnyMatrix::random(dt.in, kBigH, kBigW, /*seed=*/6);
    const sat::QuerySpec box{sat::BoxFilterSpec{4}};
    const sat::PlanRequest req{.height = kBigH,
                               .width = kBigW,
                               .dtypes = dt,
                               .algorithm = sat::Algorithm::kBrltScanRow,
                               .backend = sat::Backend::kNative};
    sat::PlanRequest qreq = req;
    qreq.query = box;
    qreq.query_mode = sat::QueryMode::kFused;
    const auto plan = rt.plan(req);
    const auto qplan = rt.plan_query(qreq);
    ASSERT_EQ(plan.backend(), sat::Backend::kNative);
    ASSERT_EQ(qplan.backend(), sat::Backend::kNative);
    ASSERT_TRUE(qplan.query_fused());

    const auto r1 = plan.execute(a);
    const auto r2 = plan.execute(b);
    EXPECT_TRUE(r1.table == rt.reference(a, dt.out)) << "SAT, first";
    EXPECT_TRUE(r2.table == rt.reference(b, dt.out)) << "SAT, second";

    const auto q1 = qplan.execute(a);
    const auto q2 = qplan.execute(b);
    EXPECT_TRUE(q1.table == rt.query_reference(a, dt.out, box))
        << "box, first";
    EXPECT_TRUE(q2.table == rt.query_reference(b, dt.out, box))
        << "box, second";
}

TEST(ResultOwnership, WindowTableSurvivesLaterPushes)
{
    using satgpu::u32;
    using satgpu::u8;
    constexpr std::int64_t kFrames = 6;
    std::vector<Matrix<u8>> frames;
    for (std::int64_t t = 0; t < kFrames; ++t) {
        frames.emplace_back(kH, kW);
        satgpu::fill_random(frames.back(), 100 + static_cast<std::uint64_t>(t));
    }
    for (const sat::StreamUpdateMode mode :
         {sat::StreamUpdateMode::kIncremental,
          sat::StreamUpdateMode::kRecompute})
        for (const sat::Backend backend :
             {sat::Backend::kSim, sat::Backend::kNative}) {
            simt::Engine eng({.record_history = false});
            simt::BufferPool pool;
            sat::Options opt;
            opt.pool = &pool;
            opt.backend = backend;
            sat::SlidingWindowSat<u32, u8> win(eng, /*window=*/2, kH, kW,
                                               opt, {}, mode);
            std::vector<Matrix<u32>> tables;
            for (const auto& f : frames) {
                (void)win.push(f);
                tables.push_back(win.window_table());
            }
            for (std::int64_t t = 0; t < kFrames; ++t) {
                std::vector<const Matrix<u8>*> in_window;
                for (std::int64_t k = std::max<std::int64_t>(0, t - 1);
                     k <= t; ++k)
                    in_window.push_back(
                        &frames[static_cast<std::size_t>(k)]);
                EXPECT_EQ(tables[static_cast<std::size_t>(t)],
                          sat::window_sat_serial<u32>(
                              std::span<const Matrix<u8>* const>(in_window)))
                    << "push " << t << " " << sat::to_string(mode) << " "
                    << sat::to_string(backend);
            }
        }
}
