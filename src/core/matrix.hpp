// Row-major 2-D matrix used as the host/device image container.
//
// The paper's convention (Sec. III-A) is followed throughout the project:
// a matrix has height H (rows, indexed by y) and width W (columns, indexed
// by x); element (x, y) lives at row y, column x.
#pragma once

#include "core/check.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace satgpu {

/// Tables of at least this many bytes get a huge-page mapping of their own
/// (TableAllocator).  glibc already serves every request this large with a
/// fresh mapping (its DEFAULT_MMAP_THRESHOLD_MAX on 64-bit hosts), so such
/// a table pays its first-touch page faults on every call; smaller ones are
/// recycled warm from the heap and keep the default allocator.
inline constexpr std::size_t kFreshMappingBytes = std::size_t{32} << 20;

/// The page size large tables are aligned to and advised to use.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

namespace detail {
/// A kHugePageBytes-aligned anonymous mapping of `bytes` rounded up to
/// whole huge pages, advised MADV_HUGEPAGE (matrix.cpp).  Throws
/// std::bad_alloc when the mapping fails.
[[nodiscard]] void* map_table(std::size_t bytes);
/// Unmap a map_table(bytes) result as one unit.
void unmap_table(void* p, std::size_t bytes) noexcept;
} // namespace detail

/// Allocator of table storage.  Below kFreshMappingBytes it is
/// std::allocator; at or above it returns huge-page storage
/// (detail::map_table), whose first touch costs one fault per 2 MiB
/// instead of per 4 KiB, and whose release is a single munmap.
/// construct(p) with no arguments DEFAULT-initializes, so a container can
/// be sized without writing it (DeviceBuffer::zeroed); every constructor
/// of Matrix and DeviceBuffer still writes its fill value.
template <typename T>
class TableAllocator {
public:
    using value_type = T;

    TableAllocator() = default;
    template <typename U>
    TableAllocator(const TableAllocator<U>& /*other*/) noexcept
    {
    }

    /// Whether n elements take the huge-page path.
    [[nodiscard]] static constexpr bool fresh_mapping(std::size_t n) noexcept
    {
        return n >= kFreshMappingBytes / sizeof(T);
    }

    [[nodiscard]] T* allocate(std::size_t n)
    {
        if (fresh_mapping(n))
            return static_cast<T*>(detail::map_table(n * sizeof(T)));
        return std::allocator<T>{}.allocate(n);
    }

    void deallocate(T* p, std::size_t n) noexcept
    {
        if (fresh_mapping(n))
            detail::unmap_table(p, n * sizeof(T));
        else
            std::allocator<T>{}.deallocate(p, n);
    }

    /// Default-initialize; std::allocator_traits::construct falls back to
    /// std::construct_at for every call with arguments.
    template <typename U>
    void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>)
    {
        ::new (static_cast<void*>(p)) U;
    }

    friend bool operator==(const TableAllocator&,
                           const TableAllocator&) = default;
};

/// The storage of Matrix and simt::DeviceBuffer.
template <typename T>
using TableStorage = std::vector<T, TableAllocator<T>>;

/// A copy of `src` in new table storage, written once.  std::vector
/// copies through a non-default allocator element by element, which GCC
/// does not turn into a memmove; sizing the storage default-initialized
/// (no writes) and then copying does.
template <typename T>
[[nodiscard]] TableStorage<T> table_copy(std::span<const T> src)
{
    TableStorage<T> s(src.size());
    std::copy(src.begin(), src.end(), s.begin());
    return s;
}

/// Row-major H x W matrix with value semantics.
template <typename T>
class Matrix {
public:
    using value_type = T;

    Matrix() = default;

    Matrix(std::int64_t height, std::int64_t width, T fill = T{})
        : height_(height), width_(width),
          data_(checked_size(height, width), fill)
    {
    }

    /// Adopt `data` (row-major, exactly height * width elements) as the
    /// matrix storage without copying it.
    Matrix(std::int64_t height, std::int64_t width, TableStorage<T>&& data)
        : height_(height), width_(width), data_(std::move(data))
    {
        SATGPU_EXPECTS(data_.size() == checked_size(height, width));
    }

    Matrix(const Matrix& other)
        : height_(other.height_), width_(other.width_),
          data_(table_copy(other.flat()))
    {
    }
    Matrix(Matrix&&) noexcept = default;
    Matrix& operator=(const Matrix& other) { return *this = Matrix(other); }
    Matrix& operator=(Matrix&&) noexcept = default;
    ~Matrix() = default;

    [[nodiscard]] std::int64_t height() const noexcept { return height_; }
    [[nodiscard]] std::int64_t width() const noexcept { return width_; }
    [[nodiscard]] std::int64_t size() const noexcept
    {
        return height_ * width_;
    }
    [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

    [[nodiscard]] T& at(std::int64_t y, std::int64_t x)
    {
        SATGPU_EXPECTS(in_bounds(y, x));
        return data_[static_cast<std::size_t>(y * width_ + x)];
    }
    [[nodiscard]] const T& at(std::int64_t y, std::int64_t x) const
    {
        SATGPU_EXPECTS(in_bounds(y, x));
        return data_[static_cast<std::size_t>(y * width_ + x)];
    }

    /// Unchecked access for hot loops (callers validate bounds once).
    [[nodiscard]] T& operator()(std::int64_t y, std::int64_t x) noexcept
    {
        return data_[static_cast<std::size_t>(y * width_ + x)];
    }
    [[nodiscard]] const T& operator()(std::int64_t y,
                                      std::int64_t x) const noexcept
    {
        return data_[static_cast<std::size_t>(y * width_ + x)];
    }

    [[nodiscard]] std::span<T> row(std::int64_t y)
    {
        SATGPU_EXPECTS(y >= 0 && y < height_);
        return {data_.data() + y * width_, static_cast<std::size_t>(width_)};
    }
    [[nodiscard]] std::span<const T> row(std::int64_t y) const
    {
        SATGPU_EXPECTS(y >= 0 && y < height_);
        return {data_.data() + y * width_, static_cast<std::size_t>(width_)};
    }

    [[nodiscard]] std::span<T> flat() noexcept { return data_; }
    [[nodiscard]] std::span<const T> flat() const noexcept { return data_; }

    /// Give up the storage (row-major, size() elements) without copying
    /// it; the matrix is left empty (0 x 0).
    [[nodiscard]] TableStorage<T> release() &&
    {
        height_ = 0;
        width_ = 0;
        return std::move(data_);
    }

    [[nodiscard]] bool in_bounds(std::int64_t y, std::int64_t x) const noexcept
    {
        return y >= 0 && y < height_ && x >= 0 && x < width_;
    }

    friend bool operator==(const Matrix& a, const Matrix& b) = default;

private:
    static std::size_t checked_size(std::int64_t h, std::int64_t w)
    {
        SATGPU_EXPECTS(h >= 0 && w >= 0);
        return static_cast<std::size_t>(h) * static_cast<std::size_t>(w);
    }

    std::int64_t height_ = 0;
    std::int64_t width_ = 0;
    TableStorage<T> data_;
};

/// Plain O(H*W) transpose, used as a test oracle for BRLT and the
/// scan-transpose-scan pipelines.
template <typename T>
[[nodiscard]] Matrix<T> transpose(const Matrix<T>& m)
{
    Matrix<T> out(m.width(), m.height());
    for (std::int64_t y = 0; y < m.height(); ++y)
        for (std::int64_t x = 0; x < m.width(); ++x)
            out(x, y) = m(y, x);
    return out;
}

/// Elementwise conversion between matrix value types (e.g. 8u input to a
/// 32-bit accumulator image).
template <typename Dst, typename Src>
[[nodiscard]] Matrix<Dst> convert(const Matrix<Src>& m)
{
    Matrix<Dst> out(m.height(), m.width());
    std::transform(m.flat().begin(), m.flat().end(), out.flat().begin(),
                   [](Src v) { return static_cast<Dst>(v); });
    return out;
}

/// Maximum absolute difference between two same-shaped matrices, as a
/// `double`.  Used for approximate comparisons of floating-point SATs.
template <typename T>
[[nodiscard]] double max_abs_diff(const Matrix<T>& a, const Matrix<T>& b)
{
    SATGPU_EXPECTS(a.height() == b.height() && a.width() == b.width());
    double worst = 0.0;
    for (std::int64_t i = 0; i < a.size(); ++i) {
        const double d = std::abs(static_cast<double>(a.flat()[static_cast<std::size_t>(i)]) -
                                  static_cast<double>(b.flat()[static_cast<std::size_t>(i)]));
        worst = std::max(worst, d);
    }
    return worst;
}

} // namespace satgpu
