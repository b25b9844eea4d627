// Backend benchmark: wall-clock time of the simulator vs the native
// vectorized backend on the Figure 8 shapes (1k..4k square, 32f32f), for
// the three register-tile algorithms the native lowering implements.
//
// Unlike the figure benches this measures HOST WALL TIME, not modeled GPU
// time: the native backend exists to make the host-side primitive cheap,
// and its whole claim is the per-op overhead it deletes (coroutine frames,
// counter increments, shadow-state bookkeeping).  Wall numbers vary by
// machine, so CI diffs BENCH_backend.json by schema, not by value; the
// speedup itself is asserted here (>= 5x at every point, the PR's
// acceptance bar) so a regression fails the bench rather than silently
// shipping slow numbers.
//
// Every native table is also demanded bit-identical to the simulator's --
// the certification contract (docs/backends.md) made visible in the bench.
//
// Each cell also times the same-host baseline sat_serial (paper Alg. 1)
// and reports native / sat_serial: the ratio the native path is judged by
// on this host, where < 1 means native beats one core's plain loop.
// Reported, not gated.
//
// Native and sat_serial times are the median of kRuns timed runs after
// one warm-up run, reported with their min/max spread; the speedup (and
// its gate) uses the native median.  The simulator is timed once per
// cell: it is the slow side, so its noise cannot flip the gate.
#include "bench_common.hpp"
#include "core/random_fill.hpp"
#include "sat/cpu_reference.hpp"

#include <algorithm>
#include <chrono>
#include <iostream>
#include <vector>

namespace {

using namespace satgpu;
using Clock = std::chrono::steady_clock;

/// Timed repeats per native / sat_serial cell (after one warm-up run).
constexpr int kRuns = 5;

double wall_us_since(Clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
}

/// Median and range of a cell's timed runs.
struct Spread {
    double median_us = 0, min_us = 0, max_us = 0;
};

/// Run `f` once to warm up, then kRuns timed times; `check` sees every
/// result, outside the timed region.
template <typename F, typename Check>
Spread time_runs(F&& f, Check&& check)
{
    check(f());
    std::vector<double> us;
    for (int rep = 0; rep < kRuns; ++rep) {
        const auto t0 = Clock::now();
        const auto result = f();
        us.push_back(wall_us_since(t0));
        check(result);
    }
    std::sort(us.begin(), us.end());
    return {us[us.size() / 2], us.front(), us.back()};
}

} // namespace

int main(int argc, char** argv)
{
    using sat::Algorithm;
    using sat::Backend;
    const auto dt = make_pair_of<f32, f32>();
    sat::Runtime rt(bench::bench_engine_options());
    const bool json = bench::bench_json_requested(argc, argv);

    const Algorithm algos[] = {Algorithm::kBrltScanRow,
                               Algorithm::kScanRowBrlt,
                               Algorithm::kScanRowColumn};

    struct Row {
        Algorithm algo;
        std::int64_t n;
        bool certified;
        double sim_us;
        Spread native;
        double speedup; // sim_us / native median
        Spread serial;
        double over_serial; // native median / serial median
    };
    std::vector<Row> rows;
    double min_speedup = 1e300;

    for (const Algorithm algo : algos) {
        for (std::int64_t k = 1; k <= 4; ++k) {
            const std::int64_t n = k * 1024;
            Matrix<f32> img(n, n);
            // Keep f32 sums exact: area * cap must stay under 2^24.
            const std::int64_t cap = (std::int64_t{1} << 24) / (n * n);
            fill_random_ints(img, /*seed=*/42,
                             static_cast<int>(std::clamp<std::int64_t>(
                                 cap, 1, 15)));

            const Spread serial = time_runs(
                [&] { return sat::sat_serial<f32>(img); },
                [&](const Matrix<f32>& ref) {
                    SATGPU_CHECK(ref.height() == n, "sat_serial shape");
                });
            const sat::AnyMatrix image{std::move(img)};

            const auto sim_plan = rt.plan({.height = n,
                                           .width = n,
                                           .dtypes = dt,
                                           .algorithm = algo,
                                           .backend = Backend::kSim});
            const auto nat_plan = rt.plan({.height = n,
                                           .width = n,
                                           .dtypes = dt,
                                           .algorithm = algo,
                                           .backend = Backend::kNative});
            SATGPU_CHECK(nat_plan.backend() == Backend::kNative,
                         "native plan refused: certification regressed");

            const auto t_sim = Clock::now();
            const auto sim_res = sim_plan.execute(image);
            const double sim_us = wall_us_since(t_sim);

            const Spread native = time_runs(
                [&] { return nat_plan.execute(image); },
                [&](const sat::RuntimeResult& r) {
                    SATGPU_CHECK(r.table == sim_res.table,
                                 "native table differs from the simulator's");
                });

            const double speedup =
                native.median_us > 0 ? sim_us / native.median_us : 0;
            min_speedup = std::min(min_speedup, speedup);
            rows.push_back({algo, n, nat_plan.certified(), sim_us, native,
                            speedup, serial,
                            native.median_us / serial.median_us});
        }
    }

    if (json) {
        JsonWriter w(std::cout);
        bench::bench_json_prelude(w, "backend");
        w.key("dtype");
        w.value(std::string_view{"32f32f"});
        w.key("unit");
        w.value(std::string_view{"us"});
        w.key("runs");
        w.value(static_cast<std::int64_t>(kRuns));
        w.key("rows");
        w.begin_array();
        for (const auto& r : rows) {
            w.begin_object();
            w.key("algorithm");
            w.value(sat::to_string(r.algo));
            w.key("size");
            w.value(static_cast<std::int64_t>(r.n));
            w.key("certified");
            w.value(r.certified);
            w.key("sim_wall_us");
            w.value(r.sim_us);
            w.key("native_wall_us");
            w.value(r.native.median_us);
            w.key("native_min_us");
            w.value(r.native.min_us);
            w.key("native_max_us");
            w.value(r.native.max_us);
            w.key("speedup");
            w.value(r.speedup);
            w.key("serial_wall_us");
            w.value(r.serial.median_us);
            w.key("serial_min_us");
            w.value(r.serial.min_us);
            w.key("serial_max_us");
            w.value(r.serial.max_us);
            w.key("native_over_serial");
            w.value(r.over_serial);
            w.end_object();
        }
        w.end_array();
        w.key("min_speedup");
        w.value(min_speedup);
        w.end_object();
        std::cout << '\n';
    } else {
        std::cout << "Backend wall clock: simulator vs native vs sat_serial, "
                     "32f32f (native and serial: median [min-max] of "
                  << kRuns << " runs)\n\n";
        const auto spread = [](const Spread& x) {
            return TablePrinter::fmt(x.median_us, 0) + " [" +
                   TablePrinter::fmt(x.min_us, 0) + "-" +
                   TablePrinter::fmt(x.max_us, 0) + "]";
        };
        TablePrinter t({"algorithm", "size", "certified", "sim (us)",
                        "native (us)", "speedup", "serial (us)",
                        "native/serial"});
        for (const auto& r : rows)
            t.add_row({std::string(sat::to_string(r.algo)),
                       std::to_string(r.n / 1024) + "k",
                       r.certified ? "yes" : "no",
                       TablePrinter::fmt(r.sim_us, 0), spread(r.native),
                       TablePrinter::fmt(r.speedup, 2), spread(r.serial),
                       TablePrinter::fmt(r.over_serial, 2)});
        t.print(std::cout);
        std::cout << "\nmin speedup: " << TablePrinter::fmt(min_speedup, 2)
                  << "x\n";
    }

    if (min_speedup < 5.0) {
        std::cerr << "FAIL: native speedup fell below 5x (min "
                  << min_speedup << "x)\n";
        return 1;
    }
    return 0;
}
