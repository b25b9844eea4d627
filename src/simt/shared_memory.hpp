// Block-scoped shared (scratchpad) memory with bank-conflict accounting.
//
// A SharedMemory arena belongs to one thread block at a time (the native
// backend's executor slots hand theirs from block to block via reset()).
// Kernels obtain typed views with `alloc<T>(name, count)`; the name makes
// the allocation idempotent across the block's warps, mirroring CUDA's
// one-`__shared__`-array-per-block semantics even though every warp
// coroutine executes the declaration.
// Re-declaring a name with a different extent OR a different element type
// aborts (the latter would silently type-pun the arena).
//
// Every warp-wide load/store is analyzed for bank conflicts
// (simt/access_analysis.hpp) and reported to the active PerfCounters sink,
// which is how the simulator observes the paper's central claim that the
// 32x33 padded layout (Alg. 5 line 2) is conflict free while a 32x32 layout
// serializes 32-way on column access.  When a HazardChecker is installed
// (Engine::Options::check), every active lane's access also feeds the
// per-element shadow state behind the racecheck-style hazard reports.
// With neither installed, every access is only the bounds-checked data
// movement, and the row-shaped ops (store_row / load_row / load_strided)
// reduce a full-mask access to one span check and a straight copy
// (load_transposed: a blocked transpose).
#pragma once

#include "core/check.hpp"
#include "simt/access_analysis.hpp"
#include "simt/hazard_checker.hpp"
#include "simt/lane_vec.hpp"
#include "simt/profiler.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <source_location>
#include <span>
#include <string>
#include <string_view>
#include <typeindex>
#include <typeinfo>
#include <vector>

namespace satgpu::simt {

template <typename T>
class SmemView;

class SharedMemory {
public:
    /// The arena grows on demand, only as far as alloc asks, up to
    /// `capacity_bytes` (enforced on every alloc): a block that declares
    /// no shared memory allocates none.  Every byte a block can see reads
    /// as zero until the block writes it.
    explicit SharedMemory(std::int64_t capacity_bytes)
        : capacity_(capacity_bytes)
    {
    }

    /// Named idempotent allocation: the first call allocates `count` elements
    /// of T; subsequent calls with the same name return the same storage
    /// (and must request the same element type and extent).
    template <typename T>
    [[nodiscard]] SmemView<T> alloc(std::string_view name, std::int64_t count);

    [[nodiscard]] std::int64_t bytes_used() const noexcept { return used_; }
    [[nodiscard]] std::int64_t capacity() const noexcept { return capacity_; }

    /// Hand the arena to a new block: zero the bytes the previous block
    /// used and forget its declarations.  Bytes past bytes_used() were
    /// never handed out since the last reset, so they are still zero and
    /// the new block sees a fully zeroed arena.  Keeps the arena's and the
    /// declaration table's storage, so a reused arena allocates nothing.
    void reset() noexcept
    {
        std::fill_n(arena_.data(), used_, std::byte{0});
        used_ = 0;
        live_ = 0;
    }

private:
    struct Allocation {
        std::string name;
        std::int64_t offset;
        std::int64_t bytes;
        std::int64_t count;   // element count of the declaring alloc<T>
        std::type_index type; // element type of the declaring alloc<T>
    };

    /// Index of the declaration named `name` in allocs_, creating it if
    /// this block has not declared it yet.
    [[nodiscard]] std::size_t allocate_named(std::string_view name,
                                             std::int64_t bytes,
                                             std::int64_t count,
                                             std::int64_t alignment,
                                             std::type_index type)
    {
        for (std::size_t i = 0; i < live_; ++i) {
            const Allocation& a = allocs_[i];
            if (a.name != name)
                continue;
            SATGPU_CHECK(a.type == type,
                         "shared-memory allocation re-declared with a "
                         "different element type");
            SATGPU_CHECK(a.bytes == bytes && a.count == count,
                         "shared-memory allocation re-declared with a "
                         "different extent");
            return i;
        }
        // At least the element's own alignment (so SmemView::base()'s
        // reinterpret_cast is valid for over-aligned types), and at least 8
        // so the historical layout -- which the bank-conflict goldens
        // depend on -- is unchanged for every alignof(T) <= 8 type.
        const std::int64_t align = std::max<std::int64_t>(alignment, 8);
        const std::int64_t offset = (used_ + align - 1) / align * align;
        SATGPU_CHECK(offset + bytes <= capacity(),
                     "shared memory capacity exceeded");
        used_ = offset + bytes;
        if (static_cast<std::size_t>(used_) > arena_.size())
            arena_.resize(static_cast<std::size_t>(used_)); // zero-filled
        // Reuse a slot (and its name's storage) left by an earlier block
        // before growing the table.
        if (live_ == allocs_.size())
            allocs_.push_back(Allocation{{}, 0, 0, 0, type});
        Allocation& a = allocs_[live_];
        a.name.assign(name);
        a.offset = offset;
        a.bytes = bytes;
        a.count = count;
        a.type = type;
        return live_++;
    }

    template <typename T>
    friend class SmemView;

    std::int64_t capacity_;
    std::vector<std::byte> arena_;
    std::int64_t used_ = 0;
    std::vector<Allocation> allocs_; // [0, live_) declared by this block
    std::size_t live_ = 0;
};

template <typename T>
class SmemView {
public:
    SmemView() = default;

    [[nodiscard]] std::int64_t size() const noexcept { return count_; }

    /// Warp-wide store: lane l writes val[l] at element index idx[l].
    /// `site` defaults to the caller's location; the profiler's
    /// bank-conflict hotspot table and the hazard checker's reports are
    /// keyed by it.
    void store(const LaneVec<std::int64_t>& idx, const LaneVec<T>& val,
               LaneMask active = kFullMask,
               std::source_location site = SATGPU_SITE)
    {
        T* const b = base();
        HazardChecker* const hc = current_hazard_checker();
        if (current_counters() == nullptr && hc == nullptr) {
            // Uninstrumented fast path (every native block): only the
            // bounds-checked data movement.
            for (int l = 0; l < kWarpSize; ++l) {
                if (!lane_active(active, l))
                    continue;
                const std::int64_t i = idx.get(l);
                SATGPU_CHECK(i >= 0 && i < count_,
                             "smem store out of bounds");
                b[i] = val.get(l);
            }
            return;
        }
        ByteAddrs addrs{};
        for (int l = 0; l < kWarpSize; ++l) {
            if (!lane_active(active, l))
                continue;
            const std::int64_t i = idx.get(l);
            SATGPU_CHECK(i >= 0 && i < count_, "smem store out of bounds");
            b[i] = val.get(l);
            const std::int64_t byte_off =
                base_offset_ + i * static_cast<std::int64_t>(sizeof(T));
            addrs[static_cast<std::size_t>(l)] = byte_off;
            if (hc)
                hc->record_smem_access(/*is_store=*/true, byte_off, name(),
                                       site);
        }
        if (PerfCounters* c = current_counters()) {
            const auto passes = static_cast<std::uint64_t>(
                smem_conflict_passes(addrs, active, sizeof(T)));
            const auto bytes = static_cast<std::uint64_t>(
                                   active_lane_count(active)) *
                               sizeof(T);
            c->smem_st_req += 1;
            c->smem_st_trans += passes;
            c->smem_bytes_st += bytes;
            if (Profiler* p = current_profiler())
                p->record_smem(site, /*is_store=*/true, passes, bytes);
        }
    }

    /// Warp-wide load: lane l reads element idx[l]; inactive lanes get T{}.
    [[nodiscard]] LaneVec<T> load(const LaneVec<std::int64_t>& idx,
                                  LaneMask active = kFullMask,
                                  std::source_location site = SATGPU_SITE)
        const
    {
        LaneVec<T> r{};
        const T* const b = base();
        HazardChecker* const hc = current_hazard_checker();
        if (current_counters() == nullptr && hc == nullptr) {
            // Uninstrumented fast path; see store().
            for (int l = 0; l < kWarpSize; ++l) {
                if (!lane_active(active, l))
                    continue;
                const std::int64_t i = idx.get(l);
                SATGPU_CHECK(i >= 0 && i < count_, "smem load out of bounds");
                r.set(l, b[i]);
            }
            return r;
        }
        ByteAddrs addrs{};
        for (int l = 0; l < kWarpSize; ++l) {
            if (!lane_active(active, l))
                continue;
            const std::int64_t i = idx.get(l);
            SATGPU_CHECK(i >= 0 && i < count_, "smem load out of bounds");
            r.set(l, b[i]);
            const std::int64_t byte_off =
                base_offset_ + i * static_cast<std::int64_t>(sizeof(T));
            addrs[static_cast<std::size_t>(l)] = byte_off;
            if (hc)
                hc->record_smem_access(/*is_store=*/false, byte_off, name(),
                                       site);
        }
        if (PerfCounters* c = current_counters()) {
            const auto passes = static_cast<std::uint64_t>(
                smem_conflict_passes(addrs, active, sizeof(T)));
            const auto bytes = static_cast<std::uint64_t>(
                                   active_lane_count(active)) *
                               sizeof(T);
            c->smem_ld_req += 1;
            c->smem_ld_trans += passes;
            c->smem_bytes_ld += bytes;
            if (Profiler* p = current_profiler())
                p->record_smem(site, /*is_store=*/false, passes, bytes);
        }
        return r;
    }

    /// Warp-wide CONTIGUOUS store: lane l writes val[l] at element
    /// first + l.  Identical semantics -- and, when instrumented, identical
    /// counters, bank-conflict passes, hazard records and profiler sites --
    /// to store(lane_index() + first, val, active).  The contiguity lets
    /// the uninstrumented full-mask path do one span bounds check and a
    /// straight copy (DeviceBuffer::store_row's twin).
    void store_row(std::int64_t first, const LaneVec<T>& val,
                   LaneMask active = kFullMask,
                   std::source_location site = SATGPU_SITE)
    {
        if (active == kFullMask && uninstrumented()) {
            SATGPU_CHECK(first >= 0 && first + kWarpSize <= count_,
                         "smem store out of bounds");
            std::memcpy(base() + first, &val, sizeof(val));
            return;
        }
        store(LaneVec<std::int64_t>::lane_index() + first, val, active,
              site);
    }

    /// Warp-wide CONTIGUOUS load: lane l reads element first + l (see
    /// store_row; load_strided with stride 1).
    [[nodiscard]] LaneVec<T> load_row(std::int64_t first,
                                      LaneMask active = kFullMask,
                                      std::source_location site = SATGPU_SITE)
        const
    {
        return load_strided(first, 1, active, site);
    }

    /// Warp-wide STRIDED load: lane l reads element first + l * stride --
    /// a column of a row-major tile, e.g. BRLT's padded 32x33 staging tile
    /// (Alg. 5 line 12).  Same contract as load(lane_index() * stride +
    /// first, active); the uninstrumented full-mask path checks the span
    /// once and gathers directly.
    [[nodiscard]] LaneVec<T> load_strided(std::int64_t first,
                                          std::int64_t stride,
                                          LaneMask active = kFullMask,
                                          std::source_location site =
                                              SATGPU_SITE) const
    {
        if (active == kFullMask && stride >= 0 && uninstrumented()) {
            SATGPU_CHECK(first >= 0 &&
                             first + (kWarpSize - 1) * stride < count_,
                         "smem load out of bounds");
            const T* const p = base() + first;
            LaneVec<T> r{};
            for (int l = 0; l < kWarpSize; ++l)
                r.set(l, p[l * stride]);
            return r;
        }
        return load(LaneVec<std::int64_t>::lane_index() * stride + first,
                    active, site);
    }

    /// Tile-shaped STRIDED load: out[j] = load_strided(first + j, stride)
    /// for j < 32, i.e. out[j][l] = element first + l * stride + j -- the
    /// transpose of the 32x32 tile whose rows start `stride` elements
    /// apart (BRLT's column read, Alg. 5 line 12, for a whole register
    /// matrix).  Instrumented, it IS those 32 load_strided calls (same
    /// counters, hazard records and profiler site); uninstrumented, one
    /// span check and a blocked 4x4 transpose over the same elements.
    void load_transposed(std::int64_t first, std::int64_t stride,
                         std::span<LaneVec<T>, kWarpSize> out,
                         std::source_location site = SATGPU_SITE) const
        requires simd::Lane<T>
    {
        if (stride >= 0 && uninstrumented()) {
            SATGPU_CHECK(first >= 0 && first + (kWarpSize - 1) * stride +
                                               kWarpSize - 1 <
                                           count_,
                         "smem load out of bounds");
            static_assert(sizeof(LaneVec<T>) == kWarpSize * sizeof(T));
            simd::transpose_tile<T>(
                reinterpret_cast<const std::byte*>(base() + first), stride,
                reinterpret_cast<std::byte*>(out.data()), kWarpSize);
            return;
        }
        for (int j = 0; j < kWarpSize; ++j)
            out[static_cast<std::size_t>(j)] =
                load_strided(first + j, stride, kFullMask, site);
    }

private:
    friend class SharedMemory;

    SmemView(SharedMemory* owner, std::int64_t offset, std::int64_t count,
             std::size_t slot)
        : owner_(owner), base_offset_(offset), count_(count), slot_(slot)
    {
    }

    [[nodiscard]] static bool uninstrumented() noexcept
    {
        return current_counters() == nullptr &&
               current_hazard_checker() == nullptr;
    }

    /// The declaring alloc's name (the hazard checker's report label).
    [[nodiscard]] std::string_view name() const noexcept
    {
        return owner_->allocs_[slot_].name;
    }

    [[nodiscard]] T* base() const noexcept
    {
        SATGPU_EXPECTS(owner_ != nullptr);
        std::byte* const p = owner_->arena_.data() + base_offset_;
        SATGPU_EXPECTS(reinterpret_cast<std::uintptr_t>(p) % alignof(T) == 0);
        return reinterpret_cast<T*>(p);
    }

    SharedMemory* owner_ = nullptr;
    std::int64_t base_offset_ = 0;
    std::int64_t count_ = 0;
    std::size_t slot_ = 0; // the owner's declaration-table index
};

template <typename T>
SmemView<T> SharedMemory::alloc(std::string_view name, std::int64_t count)
{
    SATGPU_EXPECTS(count >= 0);
    const std::size_t slot = allocate_named(
        name, count * static_cast<std::int64_t>(sizeof(T)), count,
        static_cast<std::int64_t>(alignof(T)), std::type_index(typeid(T)));
    return SmemView<T>(this, allocs_[slot].offset, count, slot);
}

} // namespace satgpu::simt
