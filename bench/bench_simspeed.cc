/**
 * @file
 * Simulator-speed microbenchmark: how many simulated packets and
 * events the engine chews through per wall-clock second. Sweeps
 * packet size (TCP MSS) x flow count x link impairments over a plain
 * TCP iperf world (no TLS, so the measurement tracks the event/packet
 * machinery rather than crypto), and reports
 *
 *   pkts/s   simulated data packets delivered per wall second
 *   events/s simulator events executed per wall second
 *
 * plus a registry snapshot whose sim.alloc.* counters substantiate
 * the zero-allocation claim (poolMisses plateaus after warm-up while
 * poolHits keeps growing).
 */

#include <chrono>

#include "bench_common.hh"

using namespace anic;
using namespace anic::bench;

namespace {

struct Point
{
    double pktsPerSec = 0;
    double eventsPerSec = 0;
    double simPkts = 0;
    double gbps = 0;
};

struct Case
{
    const char *label;
    uint32_t mss;
    int flows;
    bool impaired;
    /** Simulated server/generator cores; 0 = the bench default (4),
     *  overridable with --cores / ANIC_CORES. */
    int cores = 0;
    /** Interrupt coalescing (1/0 = per-packet interrupts). */
    uint32_t coalescePkts = 1;
    sim::Tick coalesceDelay = 0;
};

constexpr Case kCases[] = {
    {"mss256/f8/clean", 256, 8, false},
    {"mss1460/f1/clean", 1460, 1, false},
    {"mss1460/f8/clean", 1460, 8, false},
    {"mss1460/f64/clean", 1460, 64, false},
    {"mss1460/f8/lossy", 1460, 8, true},
    {"mss8960/f8/clean", 8960, 8, false},
    // Multi-queue axes: core scaling (one NIC queue pair per core)
    // and interrupt coalescing on the many-flow point.
    {"mss1460/f8/c1", 1460, 8, false, 1},
    {"mss1460/f8/c8", 1460, 8, false, 8},
    {"mss1460/f64/coal8", 1460, 64, false, 0, 8,
     10 * sim::kMicrosecond},
};
constexpr int kCaseCount = static_cast<int>(std::size(kCases));

Point
measure(sim::RunContext &ctx, const Case &c, int defaultCores)
{
    app::MacroWorld::Config wc;
    int cores = c.cores > 0 ? c.cores : defaultCores;
    wc.serverCores = cores;
    wc.generatorCores = cores;
    wc.remoteStorage = false;
    wc.nicCfg.coalescePkts = c.coalescePkts;
    wc.nicCfg.coalesceDelay = c.coalesceDelay;
    wc.serverTcp.mss = c.mss;
    wc.generatorTcp.mss = c.mss;
    if (c.impaired) {
        wc.link.dir[0].lossRate = 0.005;
        wc.link.dir[0].reorderRate = 0.01;
        wc.link.dir[1].lossRate = 0.005;
    }
    wc.run = &ctx;
    app::MacroWorld w(wc);

    app::IperfConfig icfg;
    icfg.streams = c.flows;
    icfg.tlsEnabled = false;
    icfg.sendChunk = 64 << 10;
    app::IperfRun run(w.generator, app::MacroWorld::kGenIp, w.server,
                      app::MacroWorld::kSrvIp, icfg);
    run.start();
    w.sim.runFor(5 * sim::kMillisecond);

    sim::Tick window = ctx.scaleWindow(40 * sim::kMillisecond);
    uint64_t ev0 = w.sim.eventsExecuted();
    uint64_t pk0 = w.link.stats(0).delivered + w.link.stats(1).delivered;
    uint64_t by0 = run.bytesReceived();
    auto t0 = std::chrono::steady_clock::now();
    w.sim.runFor(window);
    std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - t0;
    uint64_t ev = w.sim.eventsExecuted() - ev0;
    uint64_t pk = w.link.stats(0).delivered + w.link.stats(1).delivered - pk0;
    uint64_t by = run.bytesReceived() - by0;

    Point p;
    p.simPkts = static_cast<double>(pk);
    if (wall.count() > 0) {
        p.pktsPerSec = static_cast<double>(pk) / wall.count();
        p.eventsPerSec = static_cast<double>(ev) / wall.count();
    }
    p.gbps = window > 0 ? static_cast<double>(by) * 8.0 /
                              sim::ticksToSeconds(window) / 1e9
                        : 0.0;

    emitRegistrySnapshot(ctx, "simspeed", {{"case", c.label}});
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opt = parseBenchCli(argc, argv);
    printHeader("simspeed: simulated packets & events per wall second "
                "(plain TCP iperf, pooled hot path)");

    Point pts[kCaseCount];
    {
        Sweep sweep("simspeed", opt);
        // --cores/ANIC_CORES moves the default core count; cases with
        // an explicit cores value (the cN scaling points) keep it.
        const int defaultCores = opt.cores > 0 ? opt.cores : 4;
        for (int i = 0; i < kCaseCount; i++) {
            const Case &c = kCases[i];
            sweep.add(c.label,
                      [&pts, i, &c, defaultCores](sim::RunContext &ctx) {
                Point p = measure(ctx, c, defaultCores);
                pts[i] = p;
                jsonRecord(ctx, "simspeed", "pkts_per_sec", p.pktsPerSec,
                           {{"case", c.label}});
                jsonRecord(ctx, "simspeed", "events_per_sec", p.eventsPerSec,
                           {{"case", c.label}});
                jsonRecord(ctx, "simspeed", "sim_gbps", p.gbps,
                           {{"case", c.label}});
            });
        }
        sweep.drain();
    }

    std::printf("%-20s %14s %14s %12s %10s\n", "case", "pkts/s", "events/s",
                "sim pkts", "sim Gbps");
    for (int i = 0; i < kCaseCount; i++) {
        std::printf("%-20s %14.0f %14.0f %12.0f %10.2f\n", kCases[i].label,
                    pts[i].pktsPerSec, pts[i].eventsPerSec, pts[i].simPkts,
                    pts[i].gbps);
    }
    return 0;
}
