/**
 * @file
 * Figure 11: kernel-TLS iperf cycles per record for record sizes of
 * 2-16 KiB, transmit and receive, split into crypto vs other. The
 * paper reports crypto taking 61-70% (tx) and 54-60% (rx) of record
 * processing at these sizes.
 */

#include "bench_common.hh"

using namespace anic;
using namespace anic::bench;

namespace {

struct Point
{
    double cyclesPerRecord = 0;
    double cryptoPct = 0;
};

Point
measure(sim::RunContext &ctx, size_t recordSize, bool rxSide)
{
    auto ex = ExperimentBuilder(ctx)
                  .serverCores(1)
                  .generatorCores(rxSide ? 4 : 1)
                  .pageCache()
                  .build();
    app::MacroWorld &w = ex->world();

    app::IperfConfig icfg;
    icfg.streams = rxSide ? 4 : 1;
    icfg.clientTls.recordSize = recordSize;
    icfg.serverTls.recordSize = recordSize;

    core::Node &sender = w.a;
    core::Node &receiver = w.b;
    app::IperfRun run(sender, core::Testbed::kIpA, receiver,
                      core::Testbed::kIpB, icfg);
    run.start();
    ex->warm(10 * sim::kMillisecond);

    sim::Tick window = ex->scaledWindow(30 * sim::kMillisecond);
    core::Node &dut = rxSide ? receiver : sender;
    std::vector<double> cyc = dut.cycleSnapshot();
    tls::TlsStats st0 = rxSide ? run.receiverTlsStats()
                               : run.senderTlsStats();
    ex->warm(window);
    double cycles = dut.busyCyclesSince(cyc);
    tls::TlsStats st1 = rxSide ? run.receiverTlsStats()
                               : run.senderTlsStats();
    double records = rxSide
                         ? static_cast<double>(st1.recordsRx - st0.recordsRx)
                         : static_cast<double>(st1.recordsTx - st0.recordsTx);
    double bytes = rxSide ? static_cast<double>(st1.plaintextBytesRx -
                                                st0.plaintextBytesRx)
                          : static_cast<double>(st1.plaintextBytesTx -
                                                st0.plaintextBytesTx);

    host::CycleModel m;
    double crypto_per_rec =
        (rxSide ? m.aesGcmDecryptPerByte : m.aesGcmEncryptPerByte) *
        (records > 0 ? bytes / records : 0.0);

    Point p;
    p.cyclesPerRecord = records > 0 ? cycles / records : 0;
    p.cryptoPct = p.cyclesPerRecord > 0
                      ? 100.0 * crypto_per_rec / p.cyclesPerRecord
                      : 0;

    emitRegistrySnapshot(
        ctx,
        "fig11", {{"record_kib", tagNum(static_cast<double>(recordSize >> 10))},
                  {"side", rxSide ? "rx" : "tx"}});
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opt = parseBenchCli(argc, argv);
    printHeader("Figure 11: kTLS/iperf per-record cycles (software path), "
                "AES-GCM crypto vs other");

    const size_t kibs[] = {2, 4, 8, 16};
    Point pts[4][2]; // [size][tx=0 rx=1]
    {
        Sweep sweep("fig11", opt);
        for (int ki = 0; ki < 4; ki++) {
            for (int rx = 0; rx < 2; rx++) {
                size_t kib = kibs[ki];
                std::string label = strprintf("rec=%zuK/%s", kib,
                                              rx ? "rx" : "tx");
                sweep.add(label, [&pts, ki, rx, kib](sim::RunContext &ctx) {
                    Point p = measure(ctx, kib << 10, rx == 1);
                    pts[ki][rx] = p;
                    std::string rec = std::to_string(kib);
                    const char *side = rx ? "rx" : "tx";
                    jsonRecord(ctx, "fig11",
                               strprintf("%s_cycles_per_record", side)
                                   .c_str(),
                               p.cyclesPerRecord, {{"record_kib", rec}});
                    jsonRecord(ctx, "fig11",
                               strprintf("%s_crypto_pct", side).c_str(),
                               p.cryptoPct, {{"record_kib", rec}});
                });
            }
        }
        sweep.drain();
    }

    std::printf("%-12s %16s %10s %16s %10s\n", "record[KiB]", "tx cyc/rec",
                "tx crypto", "rx cyc/rec", "rx crypto");
    for (int ki = 0; ki < 4; ki++) {
        std::printf("%-12zu %16.0f %9.0f%% %16.0f %9.0f%%\n", kibs[ki],
                    pts[ki][0].cyclesPerRecord, pts[ki][0].cryptoPct,
                    pts[ki][1].cyclesPerRecord, pts[ki][1].cryptoPct);
    }
    std::printf("\npaper: crypto share grows with record size; tx <=74%%, "
                "rx <=60%% at 16 KiB\n");
    return 0;
}
