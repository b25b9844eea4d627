// The three benchmark workloads (README.md has the why of each).
#pragma once

#include "common.hpp"

namespace perfbench {

/// Closed loop, one caller: a plain SAT and a fused box filter (r=4) per
/// iteration on a 4096^2 8u image, native BRLT-ScanRow plans.
[[nodiscard]] Outcome run_bulk_4k(const Config& cfg);

/// sat::Service under satgpu_serve's five-template mix: an open loop at a
/// fixed rate below capacity, then a closed loop at a fixed in-flight
/// count for capacity.
[[nodiscard]] Outcome run_serve_mixed(const Config& cfg);

/// SlidingWindowSat<u32, u8>, incremental, T = 8, 1024^2 frames: a closed
/// loop of pushes, each followed by one windowed box-sum read.
[[nodiscard]] Outcome run_stream_1k_t8(const Config& cfg);

} // namespace perfbench
