/**
 * @file
 * Off-CPU (QuickAssist-class) accelerator model for the paper's
 * Table 1 study (§2.3): a PCIe crypto device with per-operation
 * invocation overhead and round-trip latency. Single-threaded clients
 * are latency-bound; many threads overlap waiting with useful work
 * and approach the device's throughput cap — reproducing the on-CPU
 * vs off-CPU crossover.
 */

#ifndef ANIC_ACCEL_QAT_HH
#define ANIC_ACCEL_QAT_HH

#include <functional>

#include "host/core.hh"
#include "sim/simulator.hh"

namespace anic::accel {

/** The accelerator device. */
class OffCpuAccelerator
{
  public:
    struct Config
    {
        /** Device crypto throughput (GB/s); Table 1 saturates ~3.1. */
        double deviceGBps = 3.2;
        /** Round-trip latency per operation (submit -> completion). */
        sim::Tick opLatency = 55 * sim::kMicrosecond;
        /** CPU cycles to submit a request and reap its completion. */
        double cpuCyclesPerOp = 2400;
    };

    OffCpuAccelerator(sim::Simulator &sim, Config cfg) : sim_(sim), cfg_(cfg) {}

    /**
     * Submits @p bytes for transformation; @p done fires when the
     * device finishes. CPU submit cost must be charged by the caller
     * (cpuCyclesPerOp/2 at submit, /2 at completion).
     */
    void
    submit(size_t bytes, std::function<void()> done)
    {
        sim::Tick service = static_cast<sim::Tick>(
            static_cast<double>(bytes) / cfg_.deviceGBps * 1e-9 *
            static_cast<double>(sim::kSecond));
        sim::Tick start = std::max(sim_.now(), deviceFreeAt_);
        deviceFreeAt_ = start + service;
        sim_.scheduleAt(deviceFreeAt_ + cfg_.opLatency,
                        [done = std::move(done)] { done(); });
        opsSubmitted_++;
        bytesSubmitted_ += bytes;
    }

    const Config &config() const { return cfg_; }
    uint64_t opsSubmitted() const { return opsSubmitted_; }
    uint64_t bytesSubmitted() const { return bytesSubmitted_; }

  private:
    sim::Simulator &sim_;
    Config cfg_;
    sim::Tick deviceFreeAt_ = 0;
    uint64_t opsSubmitted_ = 0;
    uint64_t bytesSubmitted_ = 0;
};

/** Per-cipher on-CPU cost (cycles/byte) for the Table 1 comparison. */
struct CipherCosts
{
    /** AES-128-CBC-HMAC-SHA1 with AES-NI: AES accelerated, SHA1 not. */
    static constexpr double kCbcHmacSha1PerByte = 3.45;
    /** AES-128-GCM with AES-NI + PCLMUL. */
    static constexpr double kGcmPerByte = 0.76;
};

/**
 * OpenSSL-speed-style driver: @p threads cooperating user threads
 * share ONE core; each loops submit -> wait -> reap. Returns MB/s
 * over the simulated window, after running @p sim until it is idle
 * so no completion outlives the call.
 */
double runAcceleratedSpeedTest(sim::Simulator &sim, host::Core &core,
                               OffCpuAccelerator &dev, int threads,
                               size_t blockSize, sim::Tick duration);

/** On-CPU (AES-NI) speed: pure cycle-bound loop on one core. */
double runOnCpuSpeedTest(sim::Simulator &sim, host::Core &core,
                         double cyclesPerByte, size_t blockSize,
                         sim::Tick duration);

} // namespace anic::accel

#endif // ANIC_ACCEL_QAT_HH
