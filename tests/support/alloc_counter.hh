/**
 * @file
 * Counting global operator new for allocation tests.
 *
 * Replaces the global operator new/delete of the test binary, so
 * include it from exactly one translation unit per binary. While
 * AllocCounter::on is set, every allocation bumps calls and bytes;
 * a zero-allocation claim is then an EXPECT_EQ on calls.
 */

#ifndef ANIC_TESTS_SUPPORT_ALLOC_COUNTER_HH
#define ANIC_TESTS_SUPPORT_ALLOC_COUNTER_HH

#include <cstdint>
#include <cstdlib>
#include <new>

// The replaced operator new allocates with malloc, so pairing it with
// free() is correct; GCC cannot see that and warns.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace anic::testing {

struct AllocCounter
{
    static inline bool on = false;
    static inline uint64_t calls = 0;
    static inline uint64_t bytes = 0;

    /** Zeroes the tallies and starts counting. */
    static void
    start()
    {
        calls = 0;
        bytes = 0;
        on = true;
    }

    static void stop() { on = false; }
};

} // namespace anic::testing

void *
operator new(std::size_t n)
{
    if (anic::testing::AllocCounter::on) {
        anic::testing::AllocCounter::calls++;
        anic::testing::AllocCounter::bytes += n;
    }
    void *p = std::malloc(n);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

#endif // ANIC_TESTS_SUPPORT_ALLOC_COUNTER_HH
