/**
 * @file
 * Process memory figures. heap.cc replaces the global operator
 * new/delete with a counting pair; the benchmark is single-threaded, so
 * the counter is a plain integer.
 */

#ifndef ANICBENCH_HEAP_HH
#define ANICBENCH_HEAP_HH

#include <cstdint>

namespace anicbench {

/** Bytes currently allocated through operator new. */
uint64_t heapLiveBytes();

/** Peak resident set size of this process so far, in MiB. */
double peakRssMiB();

} // namespace anicbench

#endif // ANICBENCH_HEAP_HH
