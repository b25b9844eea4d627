// Device global memory with coalescing accounting.
//
// DeviceBuffer<T> stands in for a cudaMalloc'd array.  Warp-wide loads and
// stores record how many 32-byte DRAM sectors the access touches, which is
// what the timing model charges against device-memory bandwidth -- exactly
// the coalescing consideration the paper optimizes for (Sec. I: "Efficiently
// accessing global memory in a coalesced pattern is critical").
#pragma once

#include "core/check.hpp"
#include "core/matrix.hpp"
#include "simt/access_analysis.hpp"
#include "simt/block_executor.hpp"
#include "simt/lane_vec.hpp"
#include "simt/profiler.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <source_location>
#include <span>
#include <vector>

namespace satgpu::simt {

template <typename T>
class DeviceBuffer {
public:
    DeviceBuffer() = default;

    explicit DeviceBuffer(std::int64_t count, T fill = T{})
        : data_(static_cast<std::size_t>(count), fill)
    {
        SATGPU_EXPECTS(count >= 0);
    }

    [[nodiscard]] static DeviceBuffer from_matrix(const Matrix<T>& m)
    {
        DeviceBuffer b;
        b.data_ = table_copy(m.flat());
        return b;
    }

    /// A value-initialized buffer of `count` elements, like
    /// DeviceBuffer(count), for a fresh result table.  At or above
    /// kFreshMappingBytes the storage is allocated without being written
    /// and each of `ex`'s slots then zero-fills one contiguous slice, so
    /// the table's page faults are taken on every worker (and on huge
    /// pages) instead of serially on the caller.  Not a launch: it records
    /// no LaunchStats and no counters, and must not be called from inside
    /// one of `ex`'s jobs.
    [[nodiscard]] static DeviceBuffer zeroed(BlockExecutor& ex,
                                             std::int64_t count)
    {
        SATGPU_EXPECTS(count >= 0);
        const auto n = static_cast<std::size_t>(count);
        if (!TableAllocator<T>::fresh_mapping(n))
            return DeviceBuffer(count);
        static_assert(kHugePageBytes % sizeof(T) == 0);
        constexpr std::size_t kPage = kHugePageBytes / sizeof(T);
        DeviceBuffer b;
        b.data_.resize(n); // default-initializes: nothing is written yet
        // Whole huge pages per slot, so no page is faulted by two slots.
        const auto k = static_cast<std::size_t>(ex.size());
        const std::size_t pages = (n + kPage - 1) / kPage;
        const std::size_t slice = (pages + k - 1) / k * kPage;
        T* const p = b.data_.data();
        ex.run(ex.size(), [&](int i) {
            const std::size_t lo =
                std::min(n, static_cast<std::size_t>(i) * slice);
            std::fill(p + lo, p + std::min(n, lo + slice), T{});
        });
        return b;
    }

    /// Adopt a host matrix's storage as a device buffer without copying
    /// it (the counterpart of release_matrix).
    [[nodiscard]] static DeviceBuffer adopt(Matrix<T>&& m)
    {
        DeviceBuffer b;
        b.data_ = std::move(m).release();
        return b;
    }

    [[nodiscard]] Matrix<T> to_matrix(std::int64_t height,
                                      std::int64_t width) const
    {
        SATGPU_EXPECTS(height * width == size());
        return Matrix<T>(height, width, table_copy(host()));
    }

    /// Hand the storage over as a height x width host matrix without
    /// copying it (the equivalent of keeping a device allocation as the
    /// result instead of cudaMemcpy'ing it out).  The buffer is left
    /// empty.
    [[nodiscard]] Matrix<T> release_matrix(std::int64_t height,
                                           std::int64_t width) &&
    {
        SATGPU_EXPECTS(height * width == size());
        overlap_.reset();
        return Matrix<T>(height, width, std::move(data_));
    }

    [[nodiscard]] std::int64_t size() const noexcept
    {
        return static_cast<std::int64_t>(data_.size());
    }

    /// Host-side view (the equivalent of cudaMemcpy'ing back).
    [[nodiscard]] std::span<T> host() noexcept { return data_; }
    [[nodiscard]] std::span<const T> host() const noexcept { return data_; }

    /// Debug aid for the parallel engine's disjoint-tile write discipline:
    /// once enabled, every `store`/`store_vec` records which block wrote
    /// each element, and a second store from a DIFFERENT block of the SAME
    /// launch aborts.  Such overlap is a data race under concurrent block
    /// execution (and nondeterministic on real hardware); `atomic_add` is
    /// exempt because cross-block atomics are hardware-sanctioned.
    void debug_detect_overlapping_writes()
    {
        // new[]() value-initializes, so every tag starts at 0 ("untouched").
        // (make_shared<T[]> copy-fills in libstdc++ 12, which atomics
        // forbid.)
        overlap_ = std::shared_ptr<std::atomic<std::uint64_t>[]>(
            new std::atomic<std::uint64_t>[data_.size()]());
    }

    /// Warp-wide load: lane l reads element idx[l]; inactive lanes get T{}.
    /// `site` defaults to the caller's location; the profiler's
    /// uncoalesced-sector hotspot table is keyed by it.
    [[nodiscard]] LaneVec<T> load(const LaneVec<std::int64_t>& idx,
                                  LaneMask active = kFullMask,
                                  std::source_location site = SATGPU_SITE)
        const
    {
        LaneVec<T> r{};
        if (current_counters() == nullptr) {
            // Uninstrumented fast path (every native block): only the
            // bounds-checked data movement.
            for (int l = 0; l < kWarpSize; ++l) {
                if (!lane_active(active, l))
                    continue;
                const std::int64_t i = idx.get(l);
                SATGPU_CHECK(i >= 0 && i < size(),
                             "gmem load out of bounds");
                r.set(l, data_[static_cast<std::size_t>(i)]);
            }
            return r;
        }
        ByteAddrs addrs{};
        for (int l = 0; l < kWarpSize; ++l) {
            if (!lane_active(active, l))
                continue;
            const std::int64_t i = idx.get(l);
            SATGPU_CHECK(i >= 0 && i < size(), "gmem load out of bounds");
            r.set(l, data_[static_cast<std::size_t>(i)]);
            addrs[static_cast<std::size_t>(l)] =
                i * static_cast<std::int64_t>(sizeof(T));
        }
        if (PerfCounters* c = current_counters()) {
            const auto sectors = static_cast<std::uint64_t>(
                gmem_sectors_touched(addrs, active, sizeof(T)));
            const auto bytes = static_cast<std::uint64_t>(
                                   active_lane_count(active)) *
                               sizeof(T);
            c->gmem_ld_req += 1;
            c->gmem_ld_sectors += sectors;
            c->gmem_bytes_ld += bytes;
            if (Profiler* p = current_profiler())
                p->record_gmem(site, /*is_store=*/false, sectors, bytes);
        }
        return r;
    }

    /// Warp-wide store: lane l writes val[l] to element idx[l].
    void store(const LaneVec<std::int64_t>& idx, const LaneVec<T>& val,
               LaneMask active = kFullMask,
               std::source_location site = SATGPU_SITE)
    {
        if (current_counters() == nullptr) {
            // Uninstrumented fast path; see load().
            for (int l = 0; l < kWarpSize; ++l) {
                if (!lane_active(active, l))
                    continue;
                const std::int64_t i = idx.get(l);
                SATGPU_CHECK(i >= 0 && i < size(),
                             "gmem store out of bounds");
                record_write(i);
                data_[static_cast<std::size_t>(i)] = val.get(l);
            }
            return;
        }
        ByteAddrs addrs{};
        for (int l = 0; l < kWarpSize; ++l) {
            if (!lane_active(active, l))
                continue;
            const std::int64_t i = idx.get(l);
            SATGPU_CHECK(i >= 0 && i < size(), "gmem store out of bounds");
            record_write(i);
            data_[static_cast<std::size_t>(i)] = val.get(l);
            addrs[static_cast<std::size_t>(l)] =
                i * static_cast<std::int64_t>(sizeof(T));
        }
        if (PerfCounters* c = current_counters()) {
            const auto sectors = static_cast<std::uint64_t>(
                gmem_sectors_touched(addrs, active, sizeof(T)));
            const auto bytes = static_cast<std::uint64_t>(
                                   active_lane_count(active)) *
                               sizeof(T);
            c->gmem_st_req += 1;
            c->gmem_st_sectors += sectors;
            c->gmem_bytes_st += bytes;
            if (Profiler* p = current_profiler())
                p->record_gmem(site, /*is_store=*/true, sectors, bytes);
        }
    }

    /// Warp-wide CONTIGUOUS load: lane l reads element base + l.  Identical
    /// semantics (and, when instrumented, identical accounting) to
    /// load(lane_index() + base, active) -- the contiguity is a statement
    /// of intent that lets the uninstrumented path move the row as one
    /// straight copy instead of a per-lane gather.
    [[nodiscard]] LaneVec<T> load_row(std::int64_t base,
                                      LaneMask active = kFullMask,
                                      std::source_location site = SATGPU_SITE)
        const
    {
        if (active == kFullMask && current_counters() == nullptr) {
            SATGPU_CHECK(base >= 0 && base + kWarpSize <= size(),
                         "gmem load out of bounds");
            LaneVec<T> r;
            std::memcpy(static_cast<void*>(&r), data_.data() + base,
                        sizeof(r));
            return r;
        }
        return load_row_lanes(base, active, site);
    }

    /// Warp-wide CONTIGUOUS store: lane l writes val[l] to element base + l
    /// (see load_row).
    void store_row(std::int64_t base, const LaneVec<T>& val,
                   LaneMask active = kFullMask,
                   std::source_location site = SATGPU_SITE)
    {
        if (active == kFullMask && current_counters() == nullptr &&
            !overlap_) {
            SATGPU_CHECK(base >= 0 && base + kWarpSize <= size(),
                         "gmem store out of bounds");
            std::memcpy(data_.data() + base, &val, sizeof(val));
            return;
        }
        store_row_lanes(base, val, active, site);
    }

    /// Copy the CONTIGUOUS segment [base, base + dst.size()) into `dst`.
    /// Identical semantics (and, when instrumented, identical accounting)
    /// to the load_row sequence that moves it in 32-element chunks, the
    /// last one masked to the segment's end: the instrumented path runs
    /// exactly that sequence, the uninstrumented path is one span check
    /// and a straight copy.
    void load_segment(std::int64_t base, std::span<T> dst,
                      std::source_location site = SATGPU_SITE) const
    {
        const auto n = static_cast<std::int64_t>(dst.size());
        if (current_counters() == nullptr) {
            SATGPU_CHECK(base >= 0 && base + n <= size(),
                         "gmem load out of bounds");
            std::copy_n(data_.data() + base, n, dst.data());
            return;
        }
        for (std::int64_t b = 0; b < n; b += kWarpSize) {
            const LaneMask m = lanes_in_range(b, n);
            const auto v = load_row(base + b, m, site);
            for (int l = 0; l < active_lane_count(m); ++l)
                dst[static_cast<std::size_t>(b + l)] = v.get(l);
        }
    }

    /// Warp-wide atomicAdd: lane l adds val[l] to element idx[l].  Lanes
    /// hitting the same element serialize but all contribute (hardware
    /// semantics).  Returns the OLD values each lane observed; within a
    /// warp the serialization order is ascending lane, but -- exactly as on
    /// hardware -- the interleaving with atomics from OTHER blocks running
    /// concurrently is unspecified (the final sum is exact for integral T;
    /// floating-point totals may differ in rounding across schedules).
    LaneVec<T> atomic_add(const LaneVec<std::int64_t>& idx,
                          const LaneVec<T>& val, LaneMask active = kFullMask)
    {
        LaneVec<T> old{};
        for (int l = 0; l < kWarpSize; ++l) {
            if (!lane_active(active, l))
                continue;
            const std::int64_t i = idx.get(l);
            SATGPU_CHECK(i >= 0 && i < size(), "gmem atomic out of bounds");
            T& elem = data_[static_cast<std::size_t>(i)];
            if constexpr (std::is_integral_v<T>) {
                old.set(l, std::atomic_ref<T>(elem).fetch_add(
                               val.get(l), std::memory_order_relaxed));
            } else {
                std::atomic_ref<T> ref(elem);
                T prev = ref.load(std::memory_order_relaxed);
                while (!ref.compare_exchange_weak(
                    prev, static_cast<T>(prev + val.get(l)),
                    std::memory_order_relaxed)) {
                }
                old.set(l, prev);
            }
        }
        if (PerfCounters* c = current_counters())
            c->gmem_atomics += static_cast<std::uint64_t>(
                active_lane_count(active));
        return old;
    }

    /// Vector load: lane l reads N consecutive elements starting at
    /// base_idx[l] in ONE wide access (CUDA's uint2/uint4/vectorized
    /// loads; N*sizeof(T) must not exceed the hardware's 16-byte limit).
    /// Used by the OpenCV-style 8u shuffle path, which loads 16 pixels per
    /// thread as a uint4 (Sec. VI-B2).
    template <std::size_t N>
    [[nodiscard]] std::array<LaneVec<T>, N>
    load_vec(const LaneVec<std::int64_t>& base_idx,
             LaneMask active = kFullMask) const
    {
        static_assert(N >= 1 && N * sizeof(T) <= 16,
                      "vector accesses are at most 128-bit");
        std::array<LaneVec<T>, N> r{};
        ByteAddrs addrs{};
        for (int l = 0; l < kWarpSize; ++l) {
            if (!lane_active(active, l))
                continue;
            const std::int64_t i = base_idx.get(l);
            SATGPU_CHECK(i >= 0 &&
                             i + static_cast<std::int64_t>(N) <= size(),
                         "gmem vector load out of bounds");
            for (std::size_t k = 0; k < N; ++k)
                r[k].set(
                    l, data_[static_cast<std::size_t>(i) + k]);
            addrs[static_cast<std::size_t>(l)] =
                i * static_cast<std::int64_t>(sizeof(T));
        }
        if (PerfCounters* c = current_counters()) {
            c->gmem_ld_req += 1;
            c->gmem_ld_sectors += static_cast<std::uint64_t>(
                gmem_sectors_touched(addrs, active, static_cast<int>(N * sizeof(T))));
            c->gmem_bytes_ld +=
                static_cast<std::uint64_t>(active_lane_count(active)) *
                static_cast<std::uint64_t>(N) * sizeof(T);
        }
        return r;
    }

    /// Vector store: lane l writes N consecutive elements at base_idx[l].
    template <std::size_t N>
    void store_vec(const LaneVec<std::int64_t>& base_idx,
                   const std::array<LaneVec<T>, N>& vals,
                   LaneMask active = kFullMask)
    {
        static_assert(N >= 1 && N * sizeof(T) <= 16,
                      "vector accesses are at most 128-bit");
        ByteAddrs addrs{};
        for (int l = 0; l < kWarpSize; ++l) {
            if (!lane_active(active, l))
                continue;
            const std::int64_t i = base_idx.get(l);
            SATGPU_CHECK(i >= 0 &&
                             i + static_cast<std::int64_t>(N) <= size(),
                         "gmem vector store out of bounds");
            for (std::size_t k = 0; k < N; ++k) {
                record_write(i + static_cast<std::int64_t>(k));
                data_[static_cast<std::size_t>(i) + k] =
                    vals[k].get(l);
            }
            addrs[static_cast<std::size_t>(l)] =
                i * static_cast<std::int64_t>(sizeof(T));
        }
        if (PerfCounters* c = current_counters()) {
            c->gmem_st_req += 1;
            c->gmem_st_sectors += static_cast<std::uint64_t>(
                gmem_sectors_touched(addrs, active, static_cast<int>(N * sizeof(T))));
            c->gmem_bytes_st +=
                static_cast<std::uint64_t>(active_lane_count(active)) *
                static_cast<std::uint64_t>(N) * sizeof(T);
        }
    }

private:
    /// load_row off its straight-copy path (kept out of line so the copy
    /// inlines): a masked per-lane copy natively, the accounted gather
    /// when instrumented.
    [[nodiscard]] LaneVec<T> load_row_lanes(std::int64_t base,
                                            LaneMask active,
                                            std::source_location site) const
    {
        if (current_counters() != nullptr)
            return load(LaneVec<std::int64_t>::lane_index() + base, active,
                        site);
        LaneVec<T> r{};
        for (int l = 0; l < kWarpSize; ++l) {
            if (!lane_active(active, l))
                continue;
            const std::int64_t i = base + l;
            SATGPU_CHECK(i >= 0 && i < size(), "gmem load out of bounds");
            r.set(l, data_[static_cast<std::size_t>(i)]);
        }
        return r;
    }

    /// store_row off its straight-copy path (see load_row_lanes); also
    /// the path that feeds the overlap detector.
    void store_row_lanes(std::int64_t base, const LaneVec<T>& val,
                         LaneMask active, std::source_location site)
    {
        if (current_counters() != nullptr) {
            store(LaneVec<std::int64_t>::lane_index() + base, val, active,
                  site);
            return;
        }
        for (int l = 0; l < kWarpSize; ++l) {
            if (!lane_active(active, l))
                continue;
            const std::int64_t i = base + l;
            SATGPU_CHECK(i >= 0 && i < size(), "gmem store out of bounds");
            record_write(i);
            data_[static_cast<std::size_t>(i)] = val.get(l);
        }
    }

    /// Overlap-detector bookkeeping: tag each element with (launch epoch,
    /// writer block).  Stale epochs read as "untouched", so no per-launch
    /// reset pass is needed.  Packing: epoch in the high 40 bits, writer
    /// linear block index + 1 in the low 24 (grids beyond 2^24 - 1 blocks
    /// fall outside the detector's remit and are skipped).
    void record_write(std::int64_t i)
    {
        if (!overlap_)
            return;
        const BlockIdentity id = current_block();
        if (id.linear < 0 || id.linear >= (std::int64_t{1} << 24) - 1)
            return; // outside a simulated block, or untrackably huge grid
        const std::uint64_t tag =
            (id.launch_epoch << 24) |
            static_cast<std::uint64_t>(id.linear + 1);
        const std::uint64_t prev =
            overlap_[static_cast<std::ptrdiff_t>(i)].exchange(
                tag, std::memory_order_relaxed);
        SATGPU_CHECK(prev == 0 || prev == tag || (prev >> 24) != (tag >> 24),
                     "overlapping global-memory writes: two blocks of one "
                     "launch stored to the same element");
    }

    TableStorage<T> data_;
    std::shared_ptr<std::atomic<std::uint64_t>[]> overlap_;
};

} // namespace satgpu::simt
