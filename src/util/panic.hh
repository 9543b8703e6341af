/**
 * @file
 * Error-reporting helpers in the spirit of gem5's logging.hh.
 *
 * panic()  - invariant violation inside the simulator itself; aborts.
 * fatal()  - unrecoverable user/configuration error; exits cleanly.
 * ANIC_ASSERT - cheap invariant check kept in release builds.
 */

#ifndef ANIC_UTIL_PANIC_HH
#define ANIC_UTIL_PANIC_HH

#include <cstdio>
#include <cstdlib>
#include <string>

namespace anic {

/** Formats like printf into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);

/** *@p p, for a pointer a constructor requires; panics naming @p what
 *  (the field or argument) when it is null. */
template <typename T>
T &
required(T *p, const char *what)
{
    if (p == nullptr)
        panicImpl(__FILE__, __LINE__, std::string(what) + " is null");
    return *p;
}

} // namespace anic

#define panic(...) \
    ::anic::panicImpl(__FILE__, __LINE__, ::anic::strprintf(__VA_ARGS__))

#define fatal(...) \
    ::anic::fatalImpl(__FILE__, __LINE__, ::anic::strprintf(__VA_ARGS__))

#define ANIC_ASSERT(cond, ...)                                            \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::anic::panicImpl(__FILE__, __LINE__,                         \
                std::string("assertion failed: " #cond " ") +             \
                ::anic::strprintf("" __VA_ARGS__));                       \
        }                                                                 \
    } while (0)

#endif // ANIC_UTIL_PANIC_HH
