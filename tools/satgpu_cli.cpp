// satgpu command-line driver: run any SAT algorithm on the simulated GPU,
// verify it against the serial reference, dump per-kernel event counters
// and model-estimated times for a chosen GPU.
//
// Built on the type-erased runtime (sat/runtime.hpp): the dtype string is
// a runtime tag, not a template ladder, and `--batch N` streams N images
// through one plan with pooled device buffers.
//
//   satgpu_cli --algo brlt-scanrow --size 1024x1024 --dtype 8u32u
//              --gpu p100 --verify   (one command line)
//   satgpu_cli --algo auto --dtype 64f64f -v   (cost-model selection)
//   satgpu_cli --list
#include "core/random_fill.hpp"
#include "core/table_printer.hpp"
#include "model/cost_model.hpp"
#include "model/timing.hpp"
#include "sat/integral_video.hpp"
#include "sat/runtime.hpp"
#include "simt/hazard_checker.hpp"
#include "simt/profiler.hpp"

#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

namespace {

using namespace satgpu;

struct Args {
    sat::Algorithm algo = sat::Algorithm::kBrltScanRow;
    std::int64_t height = 1024;
    std::int64_t width = 1024;
    std::string dtype = "8u32u";
    std::string gpu = "p100";
    int batch = 1;
    bool verify = false;
    bool verbose = false;
    bool unpadded = false;
    bool lf_scan = false;
    std::uint64_t seed = 42;
    int threads = 0; // 0 = one worker per hardware thread
    sat::TileGeometry tile{}; // --tile HxW: macro-tile out-of-core path
    bool check = false;       // --check: warp-synchronous hazard checker
    std::string profile_path; // --profile: per-launch JSON report
    std::string trace_path;   // --trace: chrome://tracing timeline
    std::string hazards_path; // --hazards: hazard report JSON
    sat::Backend backend = sat::Backend::kSim; // --backend: execution backend
    sat::QuerySpec query{}; // --query: fused SAT-consumer workload
    sat::QueryMode query_mode = sat::QueryMode::kAuto; // --query-mode
    std::int64_t stream = 0; // --stream T: sliding-window streaming mode
    std::int64_t frames = 0; // --frames N: frames to push (default 2*T)
    sat::StreamUpdateMode stream_mode =
        sat::StreamUpdateMode::kAuto; // --stream-mode
};

std::optional<sat::StreamUpdateMode> parse_stream_mode(std::string_view s)
{
    if (s == "auto")
        return sat::StreamUpdateMode::kAuto;
    if (s == "incremental")
        return sat::StreamUpdateMode::kIncremental;
    if (s == "recompute")
        return sat::StreamUpdateMode::kRecompute;
    return std::nullopt;
}

std::optional<sat::QueryMode> parse_query_mode(std::string_view s)
{
    if (s == "auto")
        return sat::QueryMode::kAuto;
    if (s == "fused")
        return sat::QueryMode::kFused;
    if (s == "materialize")
        return sat::QueryMode::kMaterialize;
    return std::nullopt;
}

std::optional<sat::Backend> parse_backend(std::string_view s)
{
    if (s == "sim")
        return sat::Backend::kSim;
    if (s == "native")
        return sat::Backend::kNative;
    return std::nullopt;
}

std::optional<sat::Algorithm> parse_algo(std::string_view s)
{
    if (s == "auto")
        return sat::Algorithm::kAuto;
    for (auto a : sat::kAllAlgorithms) {
        std::string name{sat::to_string(a)};
        for (char& c : name)
            c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        if (s == name)
            return a;
    }
    return std::nullopt;
}

/// How kAuto resolved: the fixed native choice, or the cost model's pick.
void print_auto_choice(const sat::Plan& plan, const model::GpuSpec& gpu)
{
    std::cout << "auto selected: " << sat::to_string(plan.algorithm());
    if (plan.scores().empty())
        std::cout << " (native default)\n";
    else
        std::cout << " (cost model, " << gpu.name << ")\n";
}

void usage()
{
    std::cout <<
        "usage: satgpu_cli [options]\n"
        "  --algo A      brlt-scanrow | scanrow-brlt | scanrowcolumn |\n"
        "                opencv | npp | naivescanscan | scantransposescan |\n"
        "                auto (cost-model pick; ScanRowColumn with\n"
        "                --backend native; default brlt-scanrow)\n"
        "  --size HxW    matrix size (default 1024x1024)\n"
        "  --dtype D     8u32s | 8u32u | 8u32f | 32s32s | 32u32u | 32f32f |\n"
        "                64f64f (default 8u32u)\n"
        "  --gpu G       m40 | p100 | v100 (default p100)\n"
        "  --batch N     run N images (seeds seed..seed+N-1) through ONE\n"
        "                plan, reusing pooled device buffers (default 1)\n"
        "  --tile HxW    execute out of core in HxW macro-tiles (multiples\n"
        "                of 32); pooled memory stays O(tile area) and the\n"
        "                result is bit-identical to the untiled path\n"
        "  --verify      check every result against the serial reference\n"
        "  -v|--verbose  print cost-model scores (for --algo auto), the\n"
        "                plan's workspace, and buffer-pool statistics\n"
        "  --unpadded    use the 32x32 (bank-conflicting) BRLT staging\n"
        "  --lf          use the Ladner-Fischer warp scan\n"
        "  --seed N      input seed (default 42)\n"
        "  --threads N   host threads simulating blocks; 0 = all hardware\n"
        "                threads, 1 = sequential (default 0; results and\n"
        "                counters are identical for every value)\n"
        "  --backend B   sim | native (default sim).  native runs\n"
        "                hazard-certified plans as plain vectorized loops\n"
        "                (bit-identical tables, no instrumentation) and\n"
        "                falls back to the simulator when the plan is\n"
        "                uncertified or --check/--profile is on\n"
        "  --query Q     run a SAT-consumer query instead of emitting the\n"
        "                table: box:r=N | thresh:r=N[,f=F] | wsum:h=H,w=W |\n"
        "                hist:b=B,r=N (hist needs --dtype 8u32u).  The\n"
        "                fused path never materializes the global SAT\n"
        "  --query-mode M  auto | fused | materialize (default auto: the\n"
        "                traffic forecast picks the cheaper consumer path)\n"
        "  --stream T    maintain a sliding-window aggregate SAT over the\n"
        "                last T frames of a synthetic video instead of a\n"
        "                single image; prints per-push device traffic and\n"
        "                the incremental-vs-recompute forecast\n"
        "  --frames N    frames to push in --stream mode (default 2*T)\n"
        "  --stream-mode M  auto | incremental | recompute (default auto:\n"
        "                the closed-form traffic forecast picks; see\n"
        "                docs/streaming.md)\n"
        "  --check       run the warp-synchronous hazard checker\n"
        "                (racecheck/synccheck analog) on every launch and\n"
        "                report findings; exit 1 if any hazard is found\n"
        "  --hazards F   write the hazard report as JSON to F (implies\n"
        "                --check)\n"
        "  --profile F   write a per-launch profile report (phase ranges,\n"
        "                hotspot tables, virtual timeline) as JSON to F\n"
        "  --trace F     write the virtual timeline as a chrome://tracing /\n"
        "                Perfetto trace-event JSON to F\n"
        "  --list        list algorithms and exit\n";
}

std::optional<Args> parse(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        auto next = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--list") {
            for (auto algo : sat::kAllAlgorithms)
                std::cout << sat::to_string(algo) << '\n';
            std::cout << "Auto\n";
            std::exit(0);
        } else if (arg == "--help" || arg == "-h") {
            usage();
            std::exit(0);
        } else if (arg == "--algo") {
            const char* v = next();
            if (!v)
                return std::nullopt;
            auto algo = parse_algo(v);
            if (!algo) {
                std::cerr << "unknown algorithm: " << v << '\n';
                return std::nullopt;
            }
            a.algo = *algo;
        } else if (arg == "--size") {
            const char* v = next();
            if (!v || std::sscanf(v, "%ldx%ld", &a.height, &a.width) != 2 ||
                a.height <= 0 || a.width <= 0) {
                std::cerr << "bad --size (want HxW)\n";
                return std::nullopt;
            }
        } else if (arg == "--dtype") {
            const char* v = next();
            if (!v)
                return std::nullopt;
            a.dtype = v;
        } else if (arg == "--gpu") {
            const char* v = next();
            if (!v)
                return std::nullopt;
            a.gpu = v;
        } else if (arg == "--batch") {
            const char* v = next();
            if (!v || std::sscanf(v, "%d", &a.batch) != 1 || a.batch < 1) {
                std::cerr << "bad --batch (want a positive count)\n";
                return std::nullopt;
            }
        } else if (arg == "--tile") {
            const char* v = next();
            auto tile = v ? sat::parse_tile_geometry(v) : std::nullopt;
            if (tile && (tile->tile_h % 32 != 0 || tile->tile_w % 32 != 0))
                tile.reset();
            if (!tile) {
                std::cerr << "bad --tile (want HxW, positive multiples of "
                             "32)\n";
                return std::nullopt;
            }
            a.tile = *tile;
        } else if (arg == "--verify") {
            a.verify = true;
        } else if (arg == "-v" || arg == "--verbose") {
            a.verbose = true;
        } else if (arg == "--unpadded") {
            a.unpadded = true;
        } else if (arg == "--lf") {
            a.lf_scan = true;
        } else if (arg == "--seed") {
            const char* v = next();
            if (!v)
                return std::nullopt;
            a.seed = std::strtoull(v, nullptr, 10);
        } else if (arg == "--threads") {
            const char* v = next();
            if (!v || std::sscanf(v, "%d", &a.threads) != 1 ||
                a.threads < 0) {
                std::cerr << "bad --threads (want a non-negative count)\n";
                return std::nullopt;
            }
        } else if (arg == "--backend") {
            const char* v = next();
            auto b = v ? parse_backend(v) : std::nullopt;
            if (!b) {
                std::cerr << "bad --backend (want sim|native)\n";
                return std::nullopt;
            }
            a.backend = *b;
        } else if (arg == "--query") {
            const char* v = next();
            auto q = v ? sat::parse_query_spec(v) : std::nullopt;
            if (!q || !sat::query_enabled(*q)) {
                std::cerr << "bad --query (want box:r=N | thresh:r=N[,f=F] "
                             "| wsum:h=H,w=W | hist:b=B,r=N)\n";
                return std::nullopt;
            }
            a.query = *q;
        } else if (arg == "--query-mode") {
            const char* v = next();
            auto m = v ? parse_query_mode(v) : std::nullopt;
            if (!m) {
                std::cerr << "bad --query-mode (want "
                             "auto|fused|materialize)\n";
                return std::nullopt;
            }
            a.query_mode = *m;
        } else if (arg == "--stream") {
            const char* v = next();
            if (!v || std::sscanf(v, "%ld", &a.stream) != 1 ||
                a.stream < 1) {
                std::cerr << "bad --stream (want a positive window)\n";
                return std::nullopt;
            }
        } else if (arg == "--frames") {
            const char* v = next();
            if (!v || std::sscanf(v, "%ld", &a.frames) != 1 ||
                a.frames < 1) {
                std::cerr << "bad --frames (want a positive count)\n";
                return std::nullopt;
            }
        } else if (arg == "--stream-mode") {
            const char* v = next();
            auto m = v ? parse_stream_mode(v) : std::nullopt;
            if (!m) {
                std::cerr << "bad --stream-mode (want "
                             "auto|incremental|recompute)\n";
                return std::nullopt;
            }
            a.stream_mode = *m;
        } else if (arg == "--check") {
            a.check = true;
        } else if (arg == "--hazards") {
            const char* v = next();
            if (!v)
                return std::nullopt;
            a.hazards_path = v;
            a.check = true;
        } else if (arg == "--profile") {
            const char* v = next();
            if (!v)
                return std::nullopt;
            a.profile_path = v;
        } else if (arg == "--trace") {
            const char* v = next();
            if (!v)
                return std::nullopt;
            a.trace_path = v;
        } else {
            std::cerr << "unknown option: " << arg << '\n';
            return std::nullopt;
        }
    }
    return a;
}

/// --stream T: push a synthetic video through SlidingWindowSat and report
/// the resolved update mode, the closed-form traffic forecast, and the
/// measured per-push device bytes (docs/streaming.md).
int run_stream(const Args& args, DtypePair pair, const model::GpuSpec& gpu)
{
    const std::int64_t window = args.stream;
    const std::int64_t frames =
        args.frames > 0 ? args.frames : 2 * window;
    const double area =
        static_cast<double>(args.height) * static_cast<double>(args.width);

    sat::Algorithm algo = args.algo;
    if (algo == sat::Algorithm::kAuto) {
        // Probe plan: let the cost model pick exactly as the one-shot path
        // would, then drive the stream with the winner.
        sat::Runtime rt({.record_history = false,
                         .num_threads = args.threads});
        const auto probe = rt.plan({.height = args.height,
                                    .width = args.width,
                                    .dtypes = pair,
                                    .algorithm = sat::Algorithm::kAuto,
                                    .gpu = &gpu,
                                    .backend = args.backend});
        algo = probe.algorithm();
        print_auto_choice(probe, gpu);
    }

    const auto mode = sat::resolve_stream_mode(
        args.stream_mode, pair, args.height, args.width, window);
    const auto forecast = model::predict_stream_traffic(
        pair, args.height, args.width, window);
    std::cout << "stream: window=" << window << " frames=" << frames
              << " mode=" << sat::to_string(mode);
    if (args.stream_mode == sat::StreamUpdateMode::kAuto)
        std::cout << " (auto: forecast "
                  << TablePrinter::fmt(forecast.incremental_bytes / area, 1)
                  << " B/px incremental vs "
                  << TablePrinter::fmt(forecast.recompute_bytes / area, 1)
                  << " B/px recompute)";
    std::cout << '\n';

    return visit_paper_pair(pair, [&](auto ti, auto to) -> int {
        using Tin = typename decltype(ti)::type;
        using Tout = typename decltype(to)::type;
        simt::Engine::Options eo{.record_history = false};
        eo.num_threads = args.threads;
        simt::Engine eng(eo);
        const sat::Options opt{
            .algorithm = algo,
            .warp_scan = args.lf_scan ? scan::WarpScanKind::kLadnerFischer
                                      : scan::WarpScanKind::kKoggeStone,
            .padded_smem = !args.unpadded,
            .backend = args.backend};
        sat::SlidingWindowSat<Tout, Tin> win(eng, window, args.height,
                                             args.width, opt, args.tile,
                                             mode);

        std::vector<Matrix<Tin>> history;
        TablePrinter t({"push", "launches", "device bytes", "B/px",
                        "occupancy", "ring bytes"});
        std::uint64_t steady_bytes = 0;
        std::int64_t steady_pushes = 0;
        for (std::int64_t f = 0; f < frames; ++f) {
            Matrix<Tin> frame(args.height, args.width);
            fill_random(frame, args.seed + static_cast<std::uint64_t>(f));
            const auto& launches = win.push(frame);
            const std::uint64_t bytes = sat::device_bytes(launches);
            if (f >= window) { // ring full: steady-state pushes
                steady_bytes += bytes;
                ++steady_pushes;
            }
            t.add_row({std::to_string(f),
                       std::to_string(launches.size()),
                       TablePrinter::fmt_int(
                           static_cast<std::int64_t>(bytes)),
                       TablePrinter::fmt(static_cast<double>(bytes) / area,
                                         2),
                       std::to_string(win.occupancy()),
                       TablePrinter::fmt_int(static_cast<std::int64_t>(
                           win.ring_bytes()))});
            if (args.verify) {
                history.push_back(std::move(frame));
                if (static_cast<std::int64_t>(history.size()) > window)
                    history.erase(history.begin());
            }
        }
        t.print(std::cout);
        if (steady_pushes > 0) {
            const double per_push = static_cast<double>(steady_bytes) /
                                    static_cast<double>(steady_pushes);
            std::cout << "\nsteady state: "
                      << TablePrinter::fmt(per_push, 0)
                      << " device bytes/push ("
                      << TablePrinter::fmt(per_push / area, 2) << " B/px, "
                      << steady_pushes << " full-window pushes)\n";
            if (steady_bytes == 0)
                std::cout << "(the native backend carries no byte "
                             "counters; use --backend sim to meter "
                             "traffic)\n";
        }

        if (args.verify) {
            std::vector<const Matrix<Tin>*> ptrs;
            ptrs.reserve(history.size());
            for (const auto& h : history)
                ptrs.push_back(&h);
            const Matrix<Tout> want = sat::window_sat_serial<Tout, Tin>(
                std::span<const Matrix<Tin>* const>(ptrs));
            const bool ok = win.window_table() == want;
            std::cout << "verification vs window_sat_serial: "
                      << (ok ? "PASS" : "FAIL") << '\n';
            return ok ? 0 : 1;
        }
        return 0;
    });
}

int run(const Args& args)
{
    const auto pair = parse_dtype_pair(args.dtype);
    if (!pair || !is_paper_pair(*pair)) {
        std::cerr << "unknown or unsupported dtype pair: " << args.dtype
                  << '\n';
        return 2;
    }

    const model::GpuSpec* gpu = &model::tesla_p100();
    if (args.gpu == "v100")
        gpu = &model::tesla_v100();
    else if (args.gpu == "m40")
        gpu = &model::tesla_m40();
    else if (args.gpu != "p100") {
        std::cerr << "unknown gpu: " << args.gpu << '\n';
        return 2;
    }

    if (args.stream > 0) {
        if (sat::query_enabled(args.query)) {
            std::cerr << "--stream and --query are mutually exclusive\n";
            return 2;
        }
        return run_stream(args, *pair, *gpu);
    }

    const bool profiling =
        !args.profile_path.empty() || !args.trace_path.empty();
    sat::Runtime rt({.record_history = false,
                     .num_threads = args.threads,
                     .profile = profiling});

    const sat::PlanRequest preq{.height = args.height,
                                .width = args.width,
                                .dtypes = *pair,
                                .algorithm = args.algo,
                                .warp_scan =
                                    args.lf_scan
                                        ? scan::WarpScanKind::kLadnerFischer
                                        : scan::WarpScanKind::kKoggeStone,
                                .padded_smem = !args.unpadded,
                                .gpu = gpu,
                                .tile = args.tile,
                                .check = args.check,
                                .backend = args.backend,
                                .query = args.query,
                                .query_mode = args.query_mode};
    const bool has_query = sat::query_enabled(args.query);
    const auto plan = has_query ? rt.plan_query(preq) : rt.plan(preq);

    if (has_query)
        std::cout << "query: " << sat::query_label(args.query) << " ("
                  << (plan.query_fused() ? "fused tiled pipeline, global "
                                           "SAT never materialized"
                                         : "materialize then consume")
                  << ")\n";
    if (args.algo == sat::Algorithm::kAuto)
        print_auto_choice(plan, *gpu);
    if (args.backend != sat::Backend::kSim)
        std::cout << "backend: " << sat::to_string(plan.backend())
                  << (plan.certified() ? " (hazard-certified)"
                                       : " (uncertified; simulator "
                                         "fallback)")
                  << '\n';
    if (args.verbose) {
        if (!plan.scores().empty()) {
            TablePrinter scores({"candidate", "predicted time (us)"});
            for (const auto& s : plan.scores())
                scores.add_row({std::string(sat::to_string(s.algo)),
                                TablePrinter::fmt(s.predicted_us, 2)});
            scores.print(std::cout);
        }
        std::cout << "plan workspace: " << plan.workspace_bytes()
                  << " device bytes per image\n\n";
    }

    std::vector<sat::AnyMatrix> images;
    images.reserve(static_cast<std::size_t>(args.batch));
    for (int i = 0; i < args.batch; ++i)
        images.push_back(sat::AnyMatrix::random(
            pair->in, args.height, args.width,
            args.seed + static_cast<std::uint64_t>(i)));
    std::vector<sat::RuntimeResult> results;
    results.reserve(images.size());
    for (const auto& image : images)
        results.push_back(plan.execute(image));
    const auto& res = results.front();

    auto write_json = [](const std::string& path, auto&& writer) {
        std::ofstream os(path, std::ios::binary);
        if (!os) {
            std::cerr << "cannot open " << path << " for writing\n";
            return false;
        }
        writer(os);
        return bool(os);
    };
    if (!args.profile_path.empty()) {
        if (!write_json(args.profile_path, [&](std::ostream& os) {
                simt::write_profile_json(os, res.launches);
            }))
            return 2;
        std::cout << "profile report: " << args.profile_path << '\n';
    }
    if (!args.trace_path.empty()) {
        if (!write_json(args.trace_path, [&](std::ostream& os) {
                simt::write_chrome_trace_json(os, res.launches);
            }))
            return 2;
        std::cout << "chrome trace:   " << args.trace_path << '\n';
    }
    if (!args.hazards_path.empty()) {
        if (!write_json(args.hazards_path, [&](std::ostream& os) {
                simt::write_hazard_json(os, res.launches);
            }))
            return 2;
        std::cout << "hazard report:  " << args.hazards_path << '\n';
    }

    std::cout << sat::to_string(plan.algorithm()) << " " << args.dtype << " "
              << args.height << "x" << args.width << " on " << gpu->name;
    if (args.tile.enabled())
        std::cout << " (tiled " << args.tile.tile_h << "x" << args.tile.tile_w
                  << ")";
    if (args.batch > 1)
        std::cout << " (batch of " << args.batch << " through one plan)";
    std::cout << "\n\n";
    TablePrinter t({"kernel", "grid", "block", "gld sectors", "gst sectors",
                    "smem trans", "shuffles", "adds", "barriers",
                    "est. time (us)"});
    double total = 0;
    for (const auto& l : res.launches) {
        const auto bt = model::estimate_kernel_time(*gpu, l);
        total += bt.total_us;
        auto dim = [](simt::Dim3 d) {
            return std::to_string(d.x) + "," + std::to_string(d.y) + "," +
                   std::to_string(d.z);
        };
        t.add_row({l.info.name, dim(l.config.grid), dim(l.config.block),
                   TablePrinter::fmt_int(static_cast<std::int64_t>(
                       l.counters.gmem_ld_sectors)),
                   TablePrinter::fmt_int(static_cast<std::int64_t>(
                       l.counters.gmem_st_sectors)),
                   TablePrinter::fmt_int(static_cast<std::int64_t>(
                       l.counters.smem_trans())),
                   TablePrinter::fmt_int(static_cast<std::int64_t>(
                       l.counters.warp_shfl)),
                   TablePrinter::fmt_int(static_cast<std::int64_t>(
                       l.counters.lane_add)),
                   TablePrinter::fmt_int(static_cast<std::int64_t>(
                       l.counters.barriers)),
                   TablePrinter::fmt(bt.total_us, 2)});
    }
    t.print(std::cout);
    std::cout << "\ntotal estimated time: " << TablePrinter::fmt(total, 2)
              << " us per image\n";

    if (has_query) {
        std::uint64_t moved = 0;
        for (const auto& l : res.launches)
            moved += l.counters.gmem_bytes_ld + l.counters.gmem_bytes_st;
        if (moved != 0) // the native backend carries no byte counters
            std::cout << "device traffic: " << moved << " bytes ("
                      << TablePrinter::fmt(
                             static_cast<double>(moved) /
                                 (static_cast<double>(args.height) *
                                  static_cast<double>(args.width)),
                             2)
                      << " B/px)\n";
    }

    if (args.verbose) {
        const auto ps = rt.pool_stats();
        std::cout << "buffer pool: " << ps.allocations << " allocations, "
                  << ps.reuses << " reuses, " << ps.bytes_allocated
                  << " bytes allocated\n";
    }

    bool hazard_free = true;
    if (args.check) {
        std::uint64_t total_hz = 0;
        for (const auto& res_i : results)
            total_hz += simt::total_hazards(res_i.launches);
        if (total_hz == 0) {
            std::cout << "hazard check: clean ("
                      << results.size() * res.launches.size()
                      << " launches)\n";
        } else {
            hazard_free = false;
            std::cout << "hazard check: " << total_hz << " hazard(s)\n";
            for (const auto& l : res.launches) {
                if (!l.hazards || l.hazards->clean())
                    continue;
                for (const auto& h : l.hazards->hazards) {
                    std::cout << "  [" << l.info.name << "] "
                              << simt::to_string(h.kind) << " at " << h.site;
                    if (!h.other_site.empty())
                        std::cout << " (conflicts with " << h.other_site
                                  << ")";
                    if (!h.note.empty())
                        std::cout << " on '" << h.note << "'";
                    std::cout << " x" << h.count << '\n';
                }
            }
        }
    }

    if (args.verify) {
        bool all_ok = true;
        for (std::size_t i = 0; i < results.size(); ++i) {
            const auto want =
                has_query
                    ? rt.query_reference(images[i], pair->out, args.query)
                    : rt.reference(images[i], pair->out);
            if (!(results[i].table == want)) {
                all_ok = false;
                std::cout << "image " << i << ": FAIL\n";
            }
        }
        std::cout << "verification vs serial reference: "
                  << (all_ok ? "PASS" : "FAIL")
                  << (args.batch > 1
                          ? " (" + std::to_string(args.batch) + " images)"
                          : "")
                  << '\n';
        return all_ok && hazard_free ? 0 : 1;
    }
    return hazard_free ? 0 : 1;
}

} // namespace

int main(int argc, char** argv)
{
    const auto args = parse(argc, argv);
    if (!args) {
        usage();
        return 2;
    }
    return run(*args);
}
