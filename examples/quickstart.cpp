// Quickstart: compute a Summed Area Table through the type-erased runtime,
// query rectangle sums in O(1), and compare the available algorithms.
//
//   $ ./examples/quickstart
#include "model/timing.hpp"
#include "sat/runtime.hpp"

#include <iostream>

int main()
{
    using namespace satgpu;

    // 1. Make an image.  The dtype pair is a runtime tag -- "8u32u" could
    //    come straight from a command line (see tools/satgpu_cli.cpp); all
    //    seven pairs from the paper's Table 3 are supported.
    const auto pair = parse_dtype_pair("8u32u");
    const auto image =
        sat::AnyMatrix::random(pair->in, 512, 512, /*seed=*/2024);

    // 2. Plan once, then execute: the runtime dispatches the dtype pair to
    //    the templated kernels and runs them on the simulated GPU with
    //    pooled device buffers.
    sat::Runtime rt;
    const auto plan = rt.plan({.height = 512,
                               .width = 512,
                               .dtypes = *pair,
                               .algorithm = sat::Algorithm::kBrltScanRow});
    const auto result = plan.execute(image);
    const Matrix<u32>& table = result.table.as<u32>();

    std::cout << "SAT of a 512x512 8u image -> 32u table\n";
    std::cout << "table(511,511) = " << table(511, 511)
              << " (sum of the whole image)\n\n";

    // 3. O(1) rectangle sums via a + d - b - c (paper Fig. 1).
    const Matrix<u8>& img = image.as<u8>();
    std::cout << "sum over rows 100..199, cols 50..149: "
              << sat::rect_sum(table, 100, 50, 199, 149) << '\n';
    std::cout << "sum over single pixel (7, 9):         "
              << sat::rect_sum(table, 7, 9, 7, 9) << " (image says "
              << static_cast<int>(img(7, 9)) << ")\n\n";

    // 4. Every algorithm computes the same table; the launch stats feed the
    //    performance model.  One runtime serves all plans, so the scratch
    //    buffers are recycled across algorithms.
    int failures = 0;
    std::cout << "algorithm        kernels  est. time on P100 (us)\n";
    std::cout << "------------------------------------------------\n";
    for (const auto algo : sat::kAllAlgorithms) {
        const auto p = rt.plan({.height = 512,
                                .width = 512,
                                .dtypes = *pair,
                                .algorithm = algo});
        const auto r = p.execute(image);
        const bool same = r.table == result.table;
        if (!same)
            ++failures;
        std::cout << "  " << sat::to_string(algo);
        for (std::size_t i = sat::to_string(algo).size(); i < 15; ++i)
            std::cout << ' ';
        std::cout << r.launches.size() << "        "
                  << model::estimate_total_us(model::tesla_p100(),
                                              r.launches)
                  << (same ? "" : "   MISMATCH!") << '\n';
    }

    // 5. Or let the cost model choose: Algorithm::kAuto ranks all seven
    //    candidates by predicted time at this shape and dtype.
    const auto auto_plan = rt.plan({.height = 512,
                                    .width = 512,
                                    .dtypes = *pair,
                                    .algorithm = sat::Algorithm::kAuto});
    std::cout << "\ncost model picks: " << sat::to_string(auto_plan.algorithm())
              << " for 512x512 8u32u on P100\n";

    return failures == 0 ? 0 : 1;
}
