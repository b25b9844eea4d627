// Section V-A micro-benchmarks.
//
// The paper extends cudabmk to measure shared-memory, shuffle and addition
// latencies on real silicon.  Without silicon, this bench (a) reports the
// measured parameters our model carries for each GPU together with the
// throughput figures from the programming guide, and (b) runs real
// pointer-chase-style kernels on the SIMULATOR and reports the event counts
// they generate, verifying that a dependent chain of N ops is charged
// exactly N latencies by the timing model.
#include "core/table_printer.hpp"
#include "model/gpu_specs.hpp"
#include "model/timing.hpp"
#include "simt/engine.hpp"
#include "simt/native_backend.hpp"
#include "simt/shared_memory.hpp"
#include "simt/shuffle.hpp"

#include <iostream>

namespace {

using namespace satgpu;

/// Dependent-chain kernel: `n` rounds of (smem load -> add -> smem store)
/// in one warp, the simulator analogue of cudabmk's latency probe.
simt::LaunchStats chase_kernel(const char* kind, int n)
{
    simt::Engine eng;
    return simt::launch_warps(
        eng, {"microbench", 16, 256}, {{1, 1, 1}, {32, 1, 1}}, false,
        [&](auto& w) {
            auto sm = w.template smem_alloc<int>("probe", 64);
            const auto lane = simt::LaneVec<std::int64_t>::lane_index();
            auto v = simt::LaneVec<int>::lane_index();
            sm.store(lane, v);
            for (int i = 0; i < n; ++i) {
                if (std::string_view(kind) == "smem") {
                    v = sm.load(lane);
                    sm.store(lane, v);
                } else if (std::string_view(kind) == "shfl") {
                    v = simt::shfl_xor(v, 1);
                } else {
                    v = simt::vadd(v, v);
                }
            }
        });
}

} // namespace

int main()
{
    std::cout << "Section V-A micro-benchmark parameters\n\n";
    TablePrinter t({"GPU", "smem lat (clk)", "shfl lat (clk/warp)",
                    "add lat (clk)", "shfl thru (op/clk)",
                    "add thru (op/clk)", "smem BW (GB/s)", "DRAM BW (GB/s)"});
    for (const auto& g : model::all_specs())
        t.add_row({std::string(g.name), TablePrinter::fmt_int(g.lat_smem),
                   TablePrinter::fmt_int(g.lat_shfl),
                   TablePrinter::fmt_int(g.lat_add),
                   TablePrinter::fmt_int(g.shfl_lanes_per_clk),
                   TablePrinter::fmt_int(g.add_lanes_per_clk),
                   TablePrinter::fmt(g.smem_gbs, 0),
                   TablePrinter::fmt(g.dram_gbs, 0)});
    t.print(std::cout);
    std::cout << "\nPaper's measurements: smem 36 clk (P100) / 27 clk "
                 "(V100); shuffle 33 / 39\nclk per warp; add 6 / 4 clk; "
                 "throughputs 32 / 64 / 64 op/clk per SM [47];\nsmem "
                 "bandwidth 9519 / 13800 GB/s [55].\n";

    std::cout << "\n-- Simulated dependent-chain probes (1024 rounds, one "
                 "warp) --\n\n";
    TablePrinter probes({"probe", "event counted", "events", "expected"});
    const auto smem = chase_kernel("smem", 1024);
    const auto shfl = chase_kernel("shfl", 1024);
    const auto add = chase_kernel("add", 1024);
    probes.add_row({"smem load+store", "smem transactions",
                    TablePrinter::fmt_int(static_cast<std::int64_t>(
                        smem.counters.smem_trans())),
                    "2049 (1 init + 2 per round)"});
    probes.add_row({"shfl chain", "warp shuffles",
                    TablePrinter::fmt_int(static_cast<std::int64_t>(
                        shfl.counters.warp_shfl)),
                    "1024"});
    probes.add_row({"add chain", "lane adds",
                    TablePrinter::fmt_int(
                        static_cast<std::int64_t>(add.counters.lane_add)),
                    "32768 (32 lanes x 1024)"});
    probes.print(std::cout);

    std::cout << "\nLatency charged by the timing model for the shuffle "
                 "chain on P100: "
              << TablePrinter::fmt(
                     model::estimate_kernel_time(model::tesla_p100(), shfl)
                         .latency_us,
                     3)
              << " us\n(1024 dependent shuffles x 33 clk / 1.5 ILP / 1.328 "
                 "GHz = 22.5 us ideal chain).\n";
    return 0;
}
