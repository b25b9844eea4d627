#include "core/matrix.hpp"

#include <sys/mman.h>

#include <cstdint>
#include <new>

namespace satgpu::detail {

namespace {
[[nodiscard]] std::size_t whole_pages(std::size_t bytes) noexcept
{
    return (bytes + kHugePageBytes - 1) / kHugePageBytes * kHugePageBytes;
}
} // namespace

void* map_table(std::size_t bytes)
{
    const std::size_t len = whole_pages(bytes);
    // Over-map by one huge page, then trim the unaligned head and tail.
    void* const raw = ::mmap(nullptr, len + kHugePageBytes,
                             PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED)
        throw std::bad_alloc();
    const auto base = reinterpret_cast<std::uintptr_t>(raw);
    const std::uintptr_t start =
        (base + kHugePageBytes - 1) / kHugePageBytes * kHugePageBytes;
    if (start > base)
        ::munmap(raw, start - base);
    if (const std::size_t tail = kHugePageBytes - (start - base); tail > 0)
        ::munmap(reinterpret_cast<void*>(start + len), tail);
    void* const p = reinterpret_cast<void*>(start);
#ifdef MADV_HUGEPAGE
    // Advice only: without transparent huge pages the table still works,
    // on 4 KiB pages.
    (void)::madvise(p, len, MADV_HUGEPAGE);
#endif
    return p;
}

void unmap_table(void* p, std::size_t bytes) noexcept
{
    ::munmap(p, whole_pages(bytes));
}

} // namespace satgpu::detail
