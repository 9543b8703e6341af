/**
 * @file
 * Figure 2: L5P overheads — cycles per message and the compute-bound
 * (offloadable) share, for NVMe-TCP client write/read (256 KiB
 * capsules) and TLS transmit/receive (16 KiB records). The paper
 * reports 46%/49% offloadable for NVMe-TCP write/read and 74%/60%
 * for TLS transmit/receive.
 */

#include "app/fio.hh"
#include "bench_common.hh"

using namespace anic;
using namespace anic::bench;

namespace {

struct Row
{
    const char *name = "";
    double cycles = 0;
    double offloadablePct = 0;
};

Row
nvmeRow(sim::RunContext &ctx, bool writes)
{
    auto ex = ExperimentBuilder()
                  .run(ctx)
                  .serverCores(1)
                  .generatorCores(8)
                  .remoteStorage()
                  .serverRcvBuf(4 << 20)
                  .serverSndBuf(4 << 20)
                  .generatorSndBuf(4 << 20)
                  .generatorRcvBuf(4 << 20)
                  .build();
    app::MacroWorld &w = ex->world();

    app::FioConfig fcfg;
    fcfg.blockSize = 262144;
    fcfg.ioDepth = 16;
    fcfg.writes = writes;
    app::FioJob job(w.sim, *w.storage->queue(0), fcfg);
    w.b.core(0).post([&job] { job.start(); });
    ex->warm(10 * sim::kMillisecond);

    sim::Tick window = ex->scaledWindow(40 * sim::kMillisecond);
    std::vector<double> cyc = w.b.cycleSnapshot();
    uint64_t done0 = job.completions();
    ex->warm(window);
    double cycles = w.b.busyCyclesSince(cyc);
    double reqs = static_cast<double>(job.completions() - done0);

    host::CycleModel m;
    // Write: CRC of the outgoing capsule. Read: verify CRC + copy to
    // the block layer.
    double offloadable =
        writes ? m.crcPerByte * fcfg.blockSize
               : (m.crcPerByte + m.copyPerByte(fcfg.blockSize * 16)) *
                     fcfg.blockSize;
    double per_req = reqs > 0 ? cycles / reqs : 0;

    emitRegistrySnapshot(ctx, "fig02",
                         {{"workload", writes ? "nvme_write" : "nvme_read"}});
    return Row{writes ? "NVMe-TCP write" : "NVMe-TCP read", per_req,
               per_req > 0 ? 100.0 * offloadable / per_req : 0};
}

Row
tlsRow(sim::RunContext &ctx, bool rxSide)
{
    auto ex = ExperimentBuilder()
                  .run(ctx)
                  .serverCores(1)
                  .generatorCores(rxSide ? 4 : 1)
                  .pageCache()
                  .build();
    app::MacroWorld &w = ex->world();

    app::IperfConfig icfg;
    icfg.streams = rxSide ? 4 : 1;
    app::IperfRun run(w.a, core::Testbed::kIpA, w.b,
                      core::Testbed::kIpB, icfg);
    run.start();
    ex->warm(10 * sim::kMillisecond);

    sim::Tick window = ex->scaledWindow(30 * sim::kMillisecond);
    core::Node &dut = rxSide ? w.b : w.a;
    std::vector<double> cyc = dut.cycleSnapshot();
    tls::TlsStats s0 = rxSide ? run.receiverTlsStats()
                              : run.senderTlsStats();
    ex->warm(window);
    double cycles = dut.busyCyclesSince(cyc);
    tls::TlsStats s1 = rxSide ? run.receiverTlsStats()
                              : run.senderTlsStats();
    double records =
        rxSide ? static_cast<double>(s1.recordsRx - s0.recordsRx)
               : static_cast<double>(s1.recordsTx - s0.recordsTx);
    double bytes = rxSide ? static_cast<double>(s1.plaintextBytesRx -
                                                s0.plaintextBytesRx)
                          : static_cast<double>(s1.plaintextBytesTx -
                                                s0.plaintextBytesTx);

    host::CycleModel m;
    double crypto = (rxSide ? m.aesGcmDecryptPerByte
                            : m.aesGcmEncryptPerByte) *
                    (records > 0 ? bytes / records : 0);
    double per_rec = records > 0 ? cycles / records : 0;

    emitRegistrySnapshot(ctx, "fig02",
                         {{"workload", rxSide ? "tls_rx" : "tls_tx"}});
    return Row{rxSide ? "TLS receive" : "TLS transmit", per_rec,
               per_rec > 0 ? 100.0 * crypto / per_rec : 0};
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opt = parseBenchCli(argc, argv);
    printHeader("Figure 2: L5P overheads (compute-bound share is what the "
                "NIC can take)");

    Row rows[4];
    {
        Sweep sweep("fig02", opt);
        sweep.add("nvme_write", [&rows](sim::RunContext &ctx) {
            rows[0] = nvmeRow(ctx, true);
        });
        sweep.add("nvme_read", [&rows](sim::RunContext &ctx) {
            rows[1] = nvmeRow(ctx, false);
        });
        sweep.add("tls_tx", [&rows](sim::RunContext &ctx) {
            rows[2] = tlsRow(ctx, false);
        });
        sweep.add("tls_rx", [&rows](sim::RunContext &ctx) {
            rows[3] = tlsRow(ctx, true);
        });
        sweep.drain();
    }

    std::printf("%-16s %16s %14s\n", "workload", "cycles/message",
                "offloadable");
    for (const Row &r : rows) {
        std::printf("%-16s %16.0f %13.0f%%\n", r.name, r.cycles,
                    r.offloadablePct);
    }
    std::printf("\npaper: NVMe write 46%%, read 49%%; TLS transmit 74%%, "
                "receive 60%%\n");
    return 0;
}
