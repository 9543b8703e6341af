/**
 * @file
 * Figure 17: packet-loss effect at the TLS *receiver* — one saturated
 * receiver core, 128 streams, loss 0-5%: (a) throughput of tcp vs rx
 * offload vs software tls, (b) classification of records into
 * entirely / partially / not offloaded. Paper: even at 5% loss more
 * than half the records stay fully offloaded and the offload keeps a
 * 19% edge over software TLS.
 */

#include "bench_common.hh"

using namespace anic;
using namespace anic::bench;

namespace {

struct Point
{
    double gbps = 0;
    double fullPct = 0, partialPct = 0, nonePct = 0;
};

const char *kModeName[] = {"tcp", "offload", "tls"};

Point
run(sim::RunContext &ctx, double loss, int mode /*0=tcp 1=offload 2=tls*/)
{
    net::Link::Config lc;
    lc.dir[0].lossRate = loss;
    lc.seed = 78;
    auto ex = ExperimentBuilder()
                  .run(ctx)
                  .serverCores(1)    // the measured, saturated receiver core
                  .generatorCores(8) // sender must not be the bottleneck
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
    icfg.serverTls.rxOffload = mode == 1;
    app::IperfRun runr(w.a, core::Testbed::kIpA, w.b,
                       core::Testbed::kIpB, icfg);
    runr.start();
    ex->warm(20 * sim::kMillisecond);

    sim::Tick window = ex->scaledWindow(40 * sim::kMillisecond);
    tls::TlsStats s0 = runr.receiverTlsStats();
    ex->measure(
        window, [&] { runr.measureStart(); }, [&] { runr.measureStop(); });
    tls::TlsStats s1 = runr.receiverTlsStats();

    Point p;
    p.gbps = runr.meter().gbps();
    double full = static_cast<double>(s1.rxFullyOffloaded -
                                      s0.rxFullyOffloaded);
    double part = static_cast<double>(s1.rxPartiallyOffloaded -
                                      s0.rxPartiallyOffloaded);
    double none = static_cast<double>(s1.rxNotOffloaded -
                                      s0.rxNotOffloaded);
    double total = full + part + none;
    p.fullPct = total > 0 ? 100.0 * full / total : 0;
    p.partialPct = total > 0 ? 100.0 * part / total : 0;
    p.nonePct = total > 0 ? 100.0 * none / total : 0;

    emitRegistrySnapshot(ctx, "fig17",
                         {{"loss", tagNum(loss)}, {"mode", kModeName[mode]}});
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opt = parseBenchCli(argc, argv);
    printHeader("Figure 17: loss at the receiver (1 saturated core, 128 "
                "TLS streams)");

    const double losses[] = {0.0, 0.01, 0.02, 0.03, 0.04, 0.05};
    Point pts[6][3]; // [loss][mode]
    {
        Sweep sweep("fig17", opt);
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

    std::printf("%-8s %10s %10s %10s %11s | %7s %8s %6s\n", "loss", "tcp",
                "offload", "tls(sw)", "off vs sw", "full", "partial",
                "none");
    for (int li = 0; li < 6; li++) {
        const Point *m = pts[li];
        std::printf("%-7.0f%% %10.2f %10.2f %10.2f %10.0f%% | %6.0f%% "
                    "%7.0f%% %5.0f%%\n",
                    losses[li] * 100, m[0].gbps, m[1].gbps, m[2].gbps,
                    100.0 * (m[1].gbps / m[2].gbps - 1.0), m[1].fullPct,
                    m[1].partialPct, m[1].nonePct);
    }
    std::printf("\npaper: >=19%% over software tls even at 5%% loss; more "
                "than half of records remain fully offloaded\n");
    return 0;
}
