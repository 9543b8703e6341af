/**
 * @file
 * Figure 10: NVMe-TCP/fio cycles per random read on the server as a
 * function of I/O depth, for 4 KiB and 256 KiB requests, with the
 * copy+CRC share of the total. The paper reports 2-8% offloadable
 * work for 4 KiB and 25% (low depth) to ~55% (depth >= 1Ki, LLC
 * overflow) for 256 KiB.
 */

#include "app/fio.hh"
#include "bench_common.hh"

using namespace anic;
using namespace anic::bench;

namespace {

struct Point
{
    double cyclesPerReq = 0;
    double copyCrcPct = 0;
    double idlePct = 0;
};

Point
measure(sim::RunContext &ctx, uint32_t blockSize, int depth)
{
    auto ex = ExperimentBuilder(ctx)
                  .serverCores(1)
                  .generatorCores(8)
                  .remoteStorage()
                  // Deep queues need roomy sockets.
                  .serverRcvBuf(4 << 20)
                  .generatorSndBuf(4 << 20)
                  .build();
    app::MacroWorld &w = ex->world();

    app::FioConfig fcfg;
    fcfg.blockSize = blockSize;
    fcfg.ioDepth = depth;
    app::FioJob job(w.sim, *w.storage->queue(0), fcfg);
    w.b.core(0).post([&job] { job.start(); });

    ex->warm(10 * sim::kMillisecond);
    sim::Tick window = ex->scaledWindow(40 * sim::kMillisecond);
    std::vector<double> cyc = w.b.cycleSnapshot();
    std::vector<sim::Tick> busy = w.b.busySnapshot();
    uint64_t done0 = job.completions();
    ex->warm(window);
    double cycles = w.b.busyCyclesSince(cyc);
    double reqs = static_cast<double>(job.completions() - done0);

    host::CycleModel m;
    // Offloadable share: the copy (depth-dependent locality) + CRC.
    size_t working_set = static_cast<size_t>(blockSize) *
                         static_cast<size_t>(depth);
    double copy_crc =
        (m.copyPerByte(working_set) + m.crcPerByte) * blockSize;

    Point p;
    p.cyclesPerReq = reqs > 0 ? cycles / reqs : 0;
    p.copyCrcPct = p.cyclesPerReq > 0 ? 100.0 * copy_crc / p.cyclesPerReq : 0;
    p.idlePct = 100.0 * (1.0 - w.b.busyCores(busy, window));

    emitRegistrySnapshot(ctx, "fig10",
                         {{"block_kib", tagNum(blockSize >> 10)},
                          {"depth", tagNum(depth)}});
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opt = parseBenchCli(argc, argv);
    printHeader("Figure 10: NVMe-TCP/fio cycles per random read "
                "(copy+crc = offloadable share)");

    const uint32_t blocks[] = {4096, 262144};
    const char *blockNames[] = {"4KiB", "256KiB"};
    const int depths[] = {1, 4, 16, 64, 256, 1024};
    Point pts[2][6]; // [block][depth]
    {
        Sweep sweep("fig10", opt);
        for (int bi = 0; bi < 2; bi++) {
            for (int di = 0; di < 6; di++) {
                uint32_t block = blocks[bi];
                int depth = depths[di];
                std::string label = strprintf("block=%s/depth=%d",
                                              blockNames[bi], depth);
                sweep.add(label,
                          [&pts, bi, di, block, depth](sim::RunContext &ctx) {
                              pts[bi][di] = measure(ctx, block, depth);
                          });
            }
        }
        sweep.drain();
    }

    for (int bi = 0; bi < 2; bi++) {
        std::printf("\n-- %s random reads --\n", blockNames[bi]);
        std::printf("%-8s %14s %10s %8s\n", "depth", "cycles/req",
                    "copy+crc", "idle");
        for (int di = 0; di < 6; di++) {
            const Point &p = pts[bi][di];
            std::printf("%-8d %14.0f %9.1f%% %7.1f%%\n", depths[di],
                        p.cyclesPerReq, p.copyCrcPct, p.idlePct);
        }
    }
    std::printf("\npaper: 4KiB 2-8%%; 256KiB 25%% (low depth) to ~55%% "
                "(>=1Ki, working set exceeds LLC)\n");
    return 0;
}
