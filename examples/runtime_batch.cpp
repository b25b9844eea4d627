// Batched execution through the type-erased runtime: plan once, stream a
// batch of same-shaped images through the plan, and watch the buffer pool
// recycle every device allocation after the first image.
//
// Exits nonzero when any table disagrees with the serial CPU reference or
// when the pool fails to reuse buffers -- the example doubles as an
// integration test in CI.
//
//   $ ./examples/runtime_batch
#include "sat/runtime.hpp"

#include <iostream>

int main()
{
    using namespace satgpu;

    constexpr std::int64_t kHeight = 384;
    constexpr std::int64_t kWidth = 512;
    constexpr int kBatch = 8;

    const auto pair = parse_dtype_pair("32f32f");

    // One plan for the whole batch: the cost model resolves kAuto to the
    // fastest algorithm for this shape/dtype, and every execute() below
    // inherits that choice.
    sat::Runtime rt;
    const auto plan = rt.plan({.height = kHeight,
                               .width = kWidth,
                               .dtypes = *pair,
                               .algorithm = sat::Algorithm::kAuto});
    std::cout << "plan: " << sat::to_string(plan.algorithm()) << " for "
              << kHeight << "x" << kWidth << " 32f32f, workspace "
              << plan.workspace_bytes() << " device bytes per image\n";

    std::vector<sat::AnyMatrix> images;
    images.reserve(kBatch);
    for (int i = 0; i < kBatch; ++i)
        images.push_back(sat::AnyMatrix::random(
            pair->in, kHeight, kWidth, /*seed=*/100 + std::uint64_t(i)));

    std::vector<sat::RuntimeResult> results;
    for (const auto& image : images)
        results.push_back(plan.execute(image));

    // The first image allocates the plan's working set; every later image
    // reuses it.  `allocations` must therefore stay flat across the batch.
    const auto stats = rt.pool_stats();
    std::cout << "buffer pool after batch of " << kBatch << ": "
              << stats.allocations << " allocations, " << stats.reuses
              << " reuses, " << stats.bytes_allocated << " bytes\n";

    int failures = 0;
    for (std::size_t i = 0; i < images.size(); ++i) {
        const auto want = rt.reference(images[i], pair->out);
        if (!(results[i].table == want)) {
            std::cout << "image " << i << ": MISMATCH vs serial reference\n";
            ++failures;
        }
    }
    if (stats.reuses == 0) {
        std::cout << "buffer pool never reused an allocation\n";
        ++failures;
    }

    std::cout << (failures == 0 ? "all tables match the serial reference\n"
                                : "FAILED\n");
    return failures == 0 ? 0 : 1;
}
