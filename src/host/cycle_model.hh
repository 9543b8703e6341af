/**
 * @file
 * CPU cycle-cost model.
 *
 * The paper's evaluation runs on 2.0 GHz Xeon E5-2660 v4 servers and
 * reports results that are CPU-cycle-bound (cycles/request, busy
 * cores, single-core Gbps). This model substitutes for the real
 * machine: every software operation on the data path charges cycles
 * to the core it runs on.
 *
 * Constants are calibrated so the *fractions* the paper measures come
 * out in-band (see tests/calibration_test.cpp):
 *   - TLS 16 KiB record processing is 60-74% crypto (Fig. 2, Fig. 11);
 *   - NVMe-TCP 256 KiB request processing is 46-49% copy+CRC (Fig. 2);
 *   - copy costs grow ~4x once the working set spills out of the
 *     32 MiB LLC (Fig. 10, I/O depth >= 128 at 256 KiB).
 */

#ifndef ANIC_HOST_CYCLE_MODEL_HH
#define ANIC_HOST_CYCLE_MODEL_HH

#include <cstddef>
#include <cstdint>

#include "sim/simulator.hh"

namespace anic::host {

/** Cycle costs of the software data path. All values in CPU cycles. */
struct CycleModel
{
    /** Core clock in GHz (cycles per nanosecond). */
    double cpuGhz = 2.0;

    /** Last-level cache size; copies beyond this become DRAM-bound. */
    size_t llcBytes = 32ull << 20;

    // ---------------------------------------------------- per byte
    /** memcpy within the LLC (warm buffers). */
    double copyLlcPerByte = 0.12;
    /** memcpy when the working set exceeds the LLC. */
    double copyDramPerByte = 0.60;
    /** CRC32C with the SSE4.2 instruction (load-limited). */
    double crcPerByte = 0.40;
    /** AES-128-GCM encrypt with AES-NI + PCLMUL. */
    double aesGcmEncryptPerByte = 1.55;
    /** AES-128-GCM decrypt + authenticate. */
    double aesGcmDecryptPerByte = 1.70;
    /** Re-encrypt cost during partial-offload fallback (ciphertext
     *  reconstruction; CTR only, no GHASH). */
    double aesCtrPerByte = 0.90;

    // ---------------------------------------------------- per packet
    /** TCP/IP transmit path per segment (TSO amortizes most of it). */
    double tcpTxPerPacket = 320.0;
    /** TCP/IP receive path per data segment (softirq, reassembly). */
    double tcpRxPerPacket = 1050.0;
    /** Pure-ACK receive processing (GRO coalesces these heavily). */
    double tcpAckRxPerPacket = 150.0;
    /** NIC driver descriptor handling, transmit. */
    double driverTxPerPacket = 100.0;
    /** NIC driver descriptor handling, receive (per packet; charged
     *  once per completion-queue entry). */
    double driverRxPerPacket = 130.0;
    /** MSI-X interrupt entry/exit + NAPI poll setup, charged once per
     *  interrupt fired (one per received packet). interruptCost +
     *  driverRxPerPacket equals the 250 cycles/pkt the pre-multi-queue
     *  model charged, so calibration is unchanged. */
    double interruptCost = 120.0;

    // ------------------------------------------------- per operation
    /** Syscall entry/exit + socket locking, per send/recv call. */
    double syscallCost = 600.0;
    /** kTLS record framing/bookkeeping, per record. */
    double tlsRecordCost = 400.0;
    /** kTLS sendfile non-zero-copy: per-record encrypt-buffer
     *  allocation (the cost our zc offload eliminates). */
    double tlsTxAllocPerRecord = 550.0;
    /** NVMe-TCP + block layer per I/O request (submit + complete). */
    double nvmeRequestCost = 16000.0;
    /** NVMe-TCP PDU header processing, per PDU. */
    double nvmePduCost = 300.0;
    /** HTTP server per request (parse, file lookup, response hdr). */
    double httpRequestCost = 4500.0;
    /** KV store per request (parse, index lookup). */
    double kvRequestCost = 3000.0;
    /** Page-cache lookup/insert per 4 KiB page touched. */
    double pageCachePer4k = 120.0;
    /** Software resync-handling upcall (l5o bookkeeping). */
    double resyncUpcallCost = 350.0;

    /** Copy cost per byte for a given working-set estimate. */
    double
    copyPerByte(size_t workingSetBytes) const
    {
        return workingSetBytes > llcBytes ? copyDramPerByte : copyLlcPerByte;
    }

    /** Converts a cycle count to simulator ticks (picoseconds). */
    sim::Tick
    cyclesToTicks(double cycles) const
    {
        return static_cast<sim::Tick>(cycles * 1000.0 / cpuGhz);
    }

    /** Converts ticks to cycles. */
    double
    ticksToCycles(sim::Tick t) const
    {
        return static_cast<double>(t) * cpuGhz / 1000.0;
    }
};

} // namespace anic::host

#endif // ANIC_HOST_CYCLE_MODEL_HH
