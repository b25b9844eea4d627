// satgpu_perfbench: wall-clock benchmark of the native SAT stack.
//
//   satgpu_perfbench --workload bulk_4k|serve_mixed|stream_1k_t8
//                    --seed N --seconds S --trace 0|1
//                    [--trace-out FILE] [--smoke]
//
// Prints a human-readable report, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.  Exits 1 when any
// checked output differs from the serial oracle, 2 on bad arguments or a
// failed set-up (no result line then).
#include "common.hpp"
#include "workloads.hpp"

#include <cmath>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <string_view>

namespace {

using namespace perfbench;

int usage()
{
    std::cerr << "usage: satgpu_perfbench --workload "
                 "bulk_4k|serve_mixed|stream_1k_t8 --seed N --seconds S\n"
                 "                        --trace 0|1 [--trace-out FILE] "
                 "[--smoke]\n";
    return 2;
}

void print_metrics(std::string_view title, const std::vector<Metric>& ms)
{
    if (ms.empty())
        return;
    std::cout << title << "\n";
    for (const Metric& m : ms)
        std::cout << "  " << std::left << std::setw(28) << m.name
                  << std::right << std::setw(16) << m.value << " " << m.unit
                  << "\n";
}

void print_result_line(const Outcome& o, const std::vector<Metric>& ms)
{
    std::cout << std::setprecision(std::numeric_limits<double>::max_digits10)
              << "{\"correct\": " << (o.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << o.attempted
              << ", \"failed\": " << o.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < ms.size(); ++i)
        std::cout << (i ? ", " : "") << "\"" << ms[i].name
                  << "\": {\"value\": "
                  << (std::isfinite(ms[i].value) ? ms[i].value : 0.0)
                  << ", \"unit\": \"" << ms[i].unit << "\"}";
    std::cout << "}}" << std::endl;
}

} // namespace

int main(int argc, char** argv)
{
    Config cfg;
    int trace = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--smoke")
            cfg.smoke = true;
        else if (!has_value)
            return usage();
        else if (arg == "--workload")
            cfg.workload = argv[++i];
        else if (arg == "--seed")
            cfg.seed = std::strtoull(argv[++i], nullptr, 10);
        else if (arg == "--seconds")
            cfg.seconds = std::strtod(argv[++i], nullptr);
        else if (arg == "--trace")
            trace = std::atoi(argv[++i]);
        else if (arg == "--trace-out")
            cfg.trace_out = argv[++i];
        else
            return usage();
    }
    if ((trace != 0 && trace != 1) || !(cfg.seconds > 0))
        return usage();
    cfg.trace = trace == 1;

    Outcome o;
    try {
        if (cfg.workload == "bulk_4k")
            o = run_bulk_4k(cfg);
        else if (cfg.workload == "serve_mixed")
            o = run_serve_mixed(cfg);
        else if (cfg.workload == "stream_1k_t8")
            o = run_stream_1k_t8(cfg);
        else
            return usage();
    } catch (const std::exception& e) {
        std::cerr << "satgpu_perfbench: " << e.what() << "\n";
        return 2;
    }

    print_metrics(cfg.trace ? "per-layer metrics (traced run):"
                            : "end-to-end metrics:",
                  cfg.trace ? o.layer : o.e2e);
    print_metrics("workload metrics by name:", o.named);
    if (cfg.trace) {
        tracer().print_self_times(std::cout);
        if (!cfg.trace_out.empty()) {
            std::ofstream os(cfg.trace_out, std::ios::trunc);
            tracer().write_chrome(os);
            std::cout << "chrome trace: " << cfg.trace_out << " ("
                      << tracer().size() << " spans)\n";
        }
    }
    std::cout << "checked " << o.attempted << " operations, " << o.failed
              << " mismatched or failed\n";
    print_result_line(o, cfg.trace ? o.layer : o.e2e);
    return o.failed == 0 ? 0 : 1;
}
