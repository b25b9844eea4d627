// Profiles of the library extensions on the simulated GPU: the three-kernel
// device-wide scan, the integral histogram (one SAT per bin, built
// bin-major), and the box-filter consumer gathering from a materialized
// SAT.  Not a paper figure; included so downstream users can see what these
// primitives cost on P100-class hardware.
#include "bench_common.hpp"
#include "core/random_fill.hpp"
#include "sat/integral_histogram.hpp"
#include "scan/device_scan.hpp"

#include <iostream>

int main()
{
    using namespace satgpu;
    const auto& gpu = model::tesla_p100();

    std::cout << "-- device_inclusive_scan over N elements (32s) --\n\n";
    TablePrinter t1({"N", "kernels", "gld sectors", "gst sectors",
                     "est. time (us)"});
    for (const std::int64_t n : {std::int64_t{100000}, std::int64_t{1000000}}) {
        simt::DeviceBuffer<i32> in(n, 1), out(n);
        simt::Engine eng({.record_history = false});
        const auto launches = scan::device_inclusive_scan(eng, in, out);
        std::uint64_t gld = 0, gst = 0;
        for (const auto& l : launches) {
            gld += l.counters.gmem_ld_sectors;
            gst += l.counters.gmem_st_sectors;
        }
        t1.add_row({TablePrinter::fmt_int(n),
                    TablePrinter::fmt_int(
                        static_cast<std::int64_t>(launches.size())),
                    TablePrinter::fmt_int(static_cast<std::int64_t>(gld)),
                    TablePrinter::fmt_int(static_cast<std::int64_t>(gst)),
                    TablePrinter::fmt(
                        model::estimate_total_us(gpu, launches), 1)});
    }
    t1.print(std::cout);

    std::cout << "\n-- integral histogram, 512x512 8u image --\n\n";
    Matrix<u8> img(512, 512);
    fill_random(img, 3, u8{0}, u8{255});
    TablePrinter t2({"bins", "kernel launches", "est. build time (us)",
                     "region query cost"});
    sat::Runtime rt;
    for (const int bins : {4, 8, 16}) {
        const auto ih = sat::integral_histogram_batched(rt, img, bins);
        t2.add_row({TablePrinter::fmt_int(bins),
                    TablePrinter::fmt_int(
                        static_cast<std::int64_t>(ih.launches.size())),
                    TablePrinter::fmt(
                        model::estimate_total_us(gpu, ih.launches), 1),
                    std::to_string(4 * bins) + " table lookups"});
    }
    t2.print(std::cout);

    std::cout << "\n-- box filter gathering from a 1k x 1k SAT --\n\n";
    const auto big = sat::AnyMatrix::random(Dtype::u8_, 1024, 1024, 4);
    TablePrinter t3({"radius", "gld sectors", "est. time (us)"});
    for (const std::int64_t r : {2, 8, 32}) {
        const auto plan =
            rt.plan_query({.height = 1024,
                           .width = 1024,
                           .dtypes = {Dtype::u8_, Dtype::u32_},
                           .algorithm = sat::Algorithm::kBrltScanRow,
                           .query = sat::BoxFilterSpec{r},
                           .query_mode = sat::QueryMode::kMaterialize});
        // Materialized: the SAT passes, then the gather consumer last.
        const simt::LaunchStats stats = plan.execute(big).launches.back();
        t3.add_row({TablePrinter::fmt_int(r),
                    TablePrinter::fmt_int(static_cast<std::int64_t>(
                        stats.counters.gmem_ld_sectors)),
                    TablePrinter::fmt(
                        model::estimate_kernel_time(gpu, stats).total_us,
                        1)});
    }
    t3.print(std::cout);
    std::cout << "\nBox-filter cost is radius independent (four lookups per "
                 "pixel), the\nSAT's raison d'etre.\n";
    return 0;
}
