/**
 * @file
 * Figure 16: packet-loss effect at the TLS *sender* — 128 iperf
 * streams from one saturated core, loss 0-5%: (a) throughput of
 * plain TCP vs TLS offload vs software TLS, (b) the PCIe bandwidth
 * the NIC spends re-reading message data for tx context recovery.
 * Paper: offload stays within 8-11% of plain TCP and >=33% above
 * software TLS even at 5% loss; recovery costs <=2.5% of PCIe.
 */

#include "bench_common.hh"

using namespace anic;
using namespace anic::bench;

namespace {

struct Point
{
    double gbps = 0;
    double pciePct = 0; // context-recovery share of PCIe capacity
};

const char *kModeName[] = {"tcp", "offload", "tls"};

Point
run(sim::RunContext &ctx, double loss, int mode /*0=tcp 1=offload 2=tls*/)
{
    net::Link::Config lc;
    lc.dir[0].lossRate = loss;
    lc.seed = 77;
    auto ex = ExperimentBuilder(ctx)
                  .serverCores(8)    // receiver must not be the bottleneck
                  .generatorCores(1) // the measured, saturated sender core
                  .pageCache()
                  .link(lc)
                  // Modest per-stream socket buffers: with 1 MB each, a
                  // single software-TLS core spends >100 ms
                  // pre-encrypting the initial 128-stream burst before
                  // any ack gets processed.
                  .generatorSndBuf(128 << 10)
                  .serverSndBuf(128 << 10)
                  .build();
    app::MacroWorld &w = ex->world();

    app::IperfConfig icfg;
    icfg.streams = 128;
    icfg.tlsEnabled = mode != 0;
    icfg.clientTls.txOffload = mode == 1;
    app::IperfRun runr(w.a, core::Testbed::kIpA, w.b,
                       core::Testbed::kIpB, icfg);
    runr.start();
    ex->warm(20 * sim::kMillisecond);

    sim::Tick window = ex->scaledWindow(40 * sim::kMillisecond);
    nic::PcieStats pcie0 = w.a.nicDev().pcie();
    ex->measure(
        w.a, window, [&] { runr.measureStart(); },
        [&] { runr.measureStop(); });
    nic::PcieStats pcie1 = w.a.nicDev().pcie();

    Point p;
    p.gbps = runr.meter().gbps();
    uint64_t recovery = pcie1.ctxRecoveryBytes - pcie0.ctxRecoveryBytes;
    p.pciePct = 100.0 * w.a.nicDev().pcieUtilization(recovery, window);

    emitRegistrySnapshot(ctx, "fig16",
                         {{"loss", tagNum(loss)}, {"mode", kModeName[mode]}});
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opt = parseBenchCli(argc, argv);
    printHeader("Figure 16: loss at the sender (1 saturated core, 128 TLS "
                "streams)");

    const double losses[] = {0.0, 0.01, 0.02, 0.03, 0.04, 0.05};
    Point pts[6][3]; // [loss][mode]
    {
        Sweep sweep("fig16", opt);
        for (int li = 0; li < 6; li++) {
            for (int mode = 0; mode < 3; mode++) {
                double loss = losses[li];
                std::string label = strprintf("loss=%g/%s", loss,
                                              kModeName[mode]);
                sweep.add(label,
                          [&pts, li, mode, loss](sim::RunContext &ctx) {
                              pts[li][mode] = run(ctx, loss, mode);
                          });
            }
        }
        sweep.drain();
    }

    std::printf("%-8s %10s %10s %10s %12s %14s\n", "loss", "tcp", "offload",
                "tls(sw)", "off vs tcp", "recovery PCIe");
    for (int li = 0; li < 6; li++) {
        const Point *m = pts[li];
        std::printf("%-7.0f%% %10.2f %10.2f %10.2f %11.0f%% %13.2f%%\n",
                    losses[li] * 100, m[0].gbps, m[1].gbps, m[2].gbps,
                    100.0 * (m[1].gbps / m[0].gbps - 1.0), m[1].pciePct);
    }
    std::printf("\npaper: offload within -8..-11%% of tcp at all loss "
                "rates, >=33%% over software tls; recovery <=2.5%% of "
                "PCIe\n");
    return 0;
}
