/**
 * @file
 * Example: a remote block device over NVMe-TCP with the paper's
 * storage offloads (§5.1) — CRC32C data-digest verification and
 * zero-copy placement of capsule payloads into block-layer buffers.
 *
 *   $ ./remote_storage [io_kib] [depth]
 *
 * Host B mounts the drive exported by host A and runs a random-read
 * workload twice — software path vs NIC offload — and prints the
 * throughput, CPU, and what the NIC placed/verified.
 */

#include <cstdio>
#include <cstdlib>

#include "app/fio.hh"
#include "experiment.hh"
#include "bench_json.hh"

using namespace anic;
using namespace anic::bench;

namespace {

void
run(bool offload, uint32_t ioKib, int depth)
{
    StorageVariant sv;
    sv.offload = offload;
    auto ex = ExperimentBuilder()
                  .serverCores(1)
                  .generatorCores(8)
                  .remoteStorage(sv)
                  .serverRcvBuf(4 << 20)
                  .generatorSndBuf(4 << 20)
                  .build();
    app::MacroWorld &w = ex->world();

    app::FioConfig fcfg;
    fcfg.blockSize = ioKib << 10;
    fcfg.ioDepth = depth;
    fcfg.verify = true; // end-to-end payload verification
    app::FioJob job(w.sim, *w.storage->queue(0), fcfg);
    job.driveSeed_ = w.drive.config().contentSeed;
    w.b.core(0).post([&job] { job.start(); });

    ex->warm(10 * sim::kMillisecond);
    std::vector<sim::Tick> busy = w.b.busySnapshot();
    uint64_t done0 = job.completions();
    sim::Tick window = 50 * sim::kMillisecond;
    ex->warm(window);

    uint64_t reqs = job.completions() - done0;
    double gbps = static_cast<double>(reqs) * fcfg.blockSize * 8 /
                  sim::ticksToSeconds(window) / 1e9;
    const nvmetcp::NvmeHostStats &st = w.storage->queue(0)->stats();
    std::printf("%-9s %8.2f Gbps %6.2f busy cores | lat %6.0f us | "
                "placed %5.1f MiB, crc skipped %llu / sw %llu, "
                "failures %llu\n",
                offload ? "offload" : "software", gbps,
                w.b.busyCores(busy, window), job.latencyUs().mean(),
                static_cast<double>(st.bytesPlaced) / (1 << 20),
                (unsigned long long)st.crcSkipped,
                (unsigned long long)st.crcSoftware,
                (unsigned long long)(st.failures + job.failures()));
}

} // namespace

int
main(int argc, char **argv)
{
    uint32_t io_kib = argc > 1 ? std::atoi(argv[1]) : 256;
    int depth = argc > 2 ? std::atoi(argv[2]) : 32;
    std::printf("remote NVMe-TCP block device: %u KiB random reads, "
                "depth %d, 100 Gbps fabric, drive capped at 2.67 GB/s\n\n",
                io_kib, depth);
    run(false, io_kib, depth);
    run(true, io_kib, depth);
    anic::bench::emitRegistrySnapshot("remote_storage");
    return 0;
}
