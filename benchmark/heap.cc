#include "heap.hh"

#include <cstdlib>
#include <new>

#include <sys/resource.h>

namespace {

uint64_t g_live = 0;
// A 16-byte header keeps malloc's alignment and records the size.
// Over-aligned types use the (unreplaced) aligned operators and go
// uncounted; nothing on the measured paths is over-aligned.
constexpr std::size_t kHdr = 16;

} // namespace

// GCC pattern-matches delete(p) -> free(p) and flags the header offset
// as a mismatched free; new applies the same offset.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#pragma GCC diagnostic ignored "-Warray-bounds"

void *
operator new(std::size_t n)
{
    void *base = std::malloc(n + kHdr);
    if (base == nullptr)
        throw std::bad_alloc();
    *static_cast<std::size_t *>(base) = n;
    g_live += n;
    return static_cast<char *>(base) + kHdr;
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void
operator delete(void *p) noexcept
{
    if (p == nullptr)
        return;
    char *base = static_cast<char *>(p) - kHdr;
    g_live -= *reinterpret_cast<std::size_t *>(base);
    std::free(base);
}

void
operator delete[](void *p) noexcept
{
    ::operator delete(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

#pragma GCC diagnostic pop

namespace anicbench {

uint64_t
heapLiveBytes()
{
    return g_live;
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

} // namespace anicbench
