// Region-histogram target localization with integral histograms
// (Poostchi et al. [34], [38]; Han et al. [3] visual tracking) -- the
// real-time tracking workload the paper's introduction motivates.
//
// A textured target patch is planted in a cluttered scene.  The integral
// histogram (one SAT per intensity bin, built on the simulated GPU) gives
// the histogram of ANY candidate window in O(bins); the tracker slides a
// window and maximizes histogram intersection with the target model.
// Without integral histograms each candidate would cost O(window area).
#include "core/dtype.hpp"
#include "core/random_fill.hpp"
#include "core/stopwatch.hpp"
#include "sat/integral_histogram.hpp"

#include <algorithm>
#include <iostream>

namespace {

using namespace satgpu;

constexpr std::int64_t kScene = 320, kWin = 48;
constexpr int kBins = 16;

double intersection(const std::vector<u32>& a, const std::vector<u32>& b)
{
    double s = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        s += std::min(a[i], b[i]);
    return s;
}

} // namespace

int main()
{
    // Scene: mid-gray clutter; target: strongly bimodal texture.
    Matrix<u8> scene(kScene, kScene);
    fill_random(scene, 15, u8{96}, u8{160});
    const std::int64_t ty = 201, tx = 77;
    std::mt19937_64 rng(99);
    for (std::int64_t y = 0; y < kWin; ++y)
        for (std::int64_t x = 0; x < kWin; ++x)
            scene(ty + y, tx + x) = (rng() % 2) ? u8{230} : u8{20};

    // Build the integral histogram on the simulated GPU.
    sat::Runtime rt;
    Stopwatch build;
    const auto ih = sat::integral_histogram_batched(rt, scene, kBins);
    std::cout << "integral histogram: " << kBins << " bins, "
              << ih.launches.size() << " kernel launches, built in "
              << build.elapsed_ms() << " ms (functional simulation)\n";

    // Target model = histogram of the true window (4*bins lookups).
    const auto target =
        ih.region(ty, tx, ty + kWin - 1, tx + kWin - 1);

    // Exhaustive sliding-window search, stride 4.
    Stopwatch search;
    std::int64_t best_y = -1, best_x = -1;
    double best = -1;
    std::int64_t candidates = 0;
    for (std::int64_t y = 0; y + kWin <= kScene; y += 4)
        for (std::int64_t x = 0; x + kWin <= kScene; x += 4) {
            const auto h = ih.region(y, x, y + kWin - 1, x + kWin - 1);
            const double score = intersection(h, target);
            ++candidates;
            if (score > best) {
                best = score;
                best_y = y;
                best_x = x;
            }
        }

    std::cout << candidates << " candidate windows scored in "
              << search.elapsed_ms() << " ms ("
              << 4 * kBins << " lookups each, window-size independent)\n";
    std::cout << "target planted at (" << ty << ", " << tx
              << "), best window at (" << best_y << ", " << best_x
              << "), score " << best << " / " << kWin * kWin << '\n';

    const bool ok = std::abs(best_y - ty) <= 3 && std::abs(best_x - tx) <= 3;
    std::cout << (ok ? "target localized\n" : "MISSED\n");
    return ok ? 0 : 1;
}
