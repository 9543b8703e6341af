/**
 * @file
 * Named unit conversions for every simulated quantity the benchmark
 * reports. Ticks are picoseconds (sim/simulator.hh); dividing bytes by
 * ticks directly gives bytes per picosecond, the unit slip that makes a
 * 100 Gbps link read as 0.1. Every conversion goes through one of these.
 */

#ifndef ANICBENCH_UNITS_HH
#define ANICBENCH_UNITS_HH

#include <cstdint>

#include "sim/simulator.hh"

namespace anicbench::units {

/** Simulated ticks -> seconds. */
constexpr double
seconds(anic::sim::Tick t)
{
    return static_cast<double>(t) / static_cast<double>(anic::sim::kSecond);
}

/** Simulated ticks -> microseconds. */
constexpr double
micros(anic::sim::Tick t)
{
    return static_cast<double>(t) /
           static_cast<double>(anic::sim::kMicrosecond);
}

/** Bytes moved over a simulated span -> Gbit/s (decimal giga). */
constexpr double
gbps(uint64_t bytes, anic::sim::Tick span)
{
    return span == 0 ? 0.0
                     : static_cast<double>(bytes) * 8.0 / seconds(span) / 1e9;
}

// Known answer: 12.5 GB in one simulated second is 100 Gbps.
static_assert(gbps(12'500'000'000ull, anic::sim::kSecond) == 100.0);
static_assert(micros(3 * anic::sim::kMicrosecond) == 3.0);
static_assert(seconds(anic::sim::kSecond / 2) == 0.5);

} // namespace anicbench::units

#endif // ANICBENCH_UNITS_HH
