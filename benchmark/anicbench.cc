/**
 * @file
 * anicbench: runs one workload in one single-threaded process and
 * prints every metric as one JSON line.
 *
 *   anicbench --workload NAME --seed N --seconds S [--spans FILE]
 *
 * Phases: set up the world repeatedly (build, open connections,
 * install offloads) and keep the last, warm up for a fixed simulated
 * time, measure a window of 32 equal simulated chunks, stop issuing
 * and drain, audit, then print. The window is --seconds times the
 * simulated time one host second covers on the reference box, so
 * every simulated metric is a pure function of (workload, seed,
 * seconds). Host metrics (pkts/s, set-up time, RSS) are the only ones
 * that vary between runs.
 *
 * Exit codes: 0 with a result line; 2 on a usage error; 3 when the
 * conservation audit fails (the violated identities go to stderr and
 * no metric is printed).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>

#include "audit.hh"
#include "bench.hh"
#include "units.hh"

namespace anicbench {

uint64_t
subSeed(uint64_t seed, uint64_t stream)
{
    uint64_t z = seed + (stream + 1) * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

namespace {

anic::net::Link::Config
linkConfig(const WorldConfig &c, anic::net::PacketPool &pool)
{
    anic::net::Link::Config l = c.link;
    l.seed = subSeed(c.seed, 1);
    l.pool = &pool;
    return l;
}

anic::core::Node::Config
nodeConfig(const WorldConfig &c, bool server, anic::sim::RunContext &run,
           anic::net::PacketPool &pool)
{
    anic::core::Node::Config n;
    n.cores = server ? c.srvCores : c.genCores;
    n.nicCfg = c.nic;
    n.tcpCfg = server ? c.srvTcp : c.genTcp;
    n.stackSeed = subSeed(c.seed, server ? 5 : 4);
    n.name = server ? "srv" : "gen";
    n.pool = &pool;
    n.bindRun(run);
    return n;
}

} // namespace

World::World(const WorldConfig &c)
    : cfg(c), link(sim, linkConfig(c, pool)),
      gen(sim, nodeConfig(c, false, run, pool)),
      srv(sim, nodeConfig(c, true, run, pool))
{
    pool.linkStats(anic::sim::StatsScope(run.registry(), "sim.alloc"));
    gen.attachPort(link, 0, kGenIp);
    srv.attachPort(link, 1, kSrvIp);
}

void
OpLog::completed(Tick due, Tick now, bool ok)
{
    constexpr size_t kMaxSamples = 1000;
    if (!inWindow(due))
        return;
    completed_++;
    if (!ok)
        failed_++;
    latUs_.add(units::micros(now - due));
    if (samples_.size() < kMaxSamples)
        samples_.push_back({due, now, ok});
}

namespace {

// Set-up runs at least kMinSetupReps times and until kSetupBudgetS
// host seconds are spent (at most kMaxSetupReps times); setup_s is the
// median. Millisecond set-ups need many repetitions to be steady.
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 51;
constexpr double kSetupBudgetS = 0.5;
// Host speed is the median over chunks. On a shared machine slow spells
// last seconds; 32 chunks keep the median out of them where 8 did not.
constexpr int kChunks = 32;

// Simulated durations are fixed here; simPerHostSecond was calibrated
// once on the reference box (4 cores, README.md) so that one --seconds
// is about one host second of measurement.
constexpr WorkloadSpec kSpecs[] = {
    {"tcp_bulk", makeTcpBulk, 5 * kMillisecond, 50 * kMillisecond},
    {"tls_rx_lossy", makeTlsRxLossy, 30 * kMillisecond, 200 * kMillisecond},
    {"storage_rw", makeStorageRw, 5 * kMillisecond, 50 * kMillisecond},
    {"flows_many", makeFlowsMany, 20 * kMillisecond, 100 * kMillisecond},
};
// An operation due in the window that is still open this long after it
// closes counts as failed (the slowest, tls_rx_lossy's p99, is ~50 ms).
constexpr Tick kDrainLimit = 500 * kMillisecond;

struct Options
{
    const WorkloadSpec *spec = nullptr;
    uint64_t seed = 1;
    double seconds = 10;
    std::string spansFile;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "anicbench: %s\nusage: anicbench --workload "
                 "tcp_bulk|tls_rx_lossy|storage_rw|flows_many --seed N "
                 "--seconds S [--spans FILE]\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            for (const WorkloadSpec &s : kSpecs) {
                if (std::strcmp(s.name, v) == 0)
                    o.spec = &s;
            }
            if (o.spec == nullptr)
                usage("unknown workload");
        } else if (a == "--seed") {
            o.seed = std::strtoull(v, &end, 10);
            if (*v == '\0' || *end != '\0')
                usage("--seed takes a whole number");
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v, &end);
            if (*v == '\0' || *end != '\0' || !(o.seconds > 0) ||
                o.seconds > 600)
                usage("--seconds takes a number in (0, 600]");
        } else if (a == "--spans") {
            o.spansFile = v;
        } else {
            usage(("unknown option " + a).c_str());
        }
    }
    if (o.spec == nullptr)
        usage("--workload is required");
    return o;
}

/** Counters read at both ends of the window. */
struct Counters
{
    uint64_t events, pkts, poolMisses, linkSent, linkDropped;
    uint64_t ctxHits, ctxMisses, ctxEvictions, irqs, srvRxPkts;
    uint64_t fsmMsgs, fsmResyncReq, fsmResyncConfirmed;
    uint64_t tcpRetx, tcpDataPkts, srvItems, appBytes;
    double srvCycles;
    Tick srvBusy;

    static Counters
    take(Workload &wl)
    {
        World &w = wl.world();
        const anic::nic::Nic &nic = w.srv.nicDev();
        Counters c{};
        c.events = w.sim.eventsExecuted();
        c.pkts = w.wirePkts();
        c.poolMisses = w.pool.misses();
        c.linkSent = w.link.stats(0).sent + w.link.stats(1).sent;
        c.linkDropped = w.link.stats(0).dropped + w.link.stats(1).dropped;
        c.ctxHits = nic.stats().ctxCacheHits;
        c.ctxMisses = nic.stats().ctxCacheMisses;
        c.ctxEvictions = nic.stats().ctxCacheEvictions;
        c.irqs = nic.stats().irqsFired;
        c.srvRxPkts = nic.stats().pktsRx;
        c.fsmMsgs = nic.fsmStats().msgsCompleted;
        c.fsmResyncReq = nic.fsmStats().resyncRequests;
        c.fsmResyncConfirmed = nic.fsmStats().resyncConfirmed;
        for (anic::core::Node *n : {&w.srv, &w.gen}) {
            c.tcpRetx += n->stack().stats().retransmits;
            c.tcpDataPkts += n->stack().stats().dataPktsSent;
        }
        for (int i = 0; i < w.srv.coreCount(); i++) {
            const anic::host::Core &core = w.srv.core(i);
            c.srvItems += core.itemsExecuted();
            c.srvCycles += core.totalBusyCycles();
            c.srvBusy += core.totalBusyTicks();
        }
        c.appBytes = wl.appBytes;
        return c;
    }
};

/** Median with nearest-rank quartiles of host-side samples. */
Metric
spread(const std::string &name, const std::string &unit,
       const std::vector<double> &v, bool sim)
{
    anic::sim::Distribution d;
    for (double x : v)
        d.add(x);
    return {name, unit, d.percentile(50), v.size(), d.percentile(25),
            d.percentile(75), sim};
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/** Chrome-trace spans: host-time phases, plus simulated-time spans of
 *  the first timed operations on a second track. */
class Spans
{
  public:
    Spans() : t0_(std::chrono::steady_clock::now()) {}

    double nowUs() const { return secondsSince(t0_) * 1e6; }

    void
    phase(const std::string &name, double startUs)
    {
        add(name, 1, startUs, nowUs() - startUs);
    }

    void
    ops(const OpLog &log)
    {
        for (const OpLog::Sample &s : log.samples()) {
            add(s.ok ? "op" : "op failed", 2, units::micros(s.due),
                units::micros(s.done - s.due));
        }
    }

    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::fprintf(f, "{\"traceEvents\":[\n"
                        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                        "\"args\":{\"name\":\"host time\"}},\n"
                        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
                        "\"args\":{\"name\":\"simulated time\"}}");
        for (const std::string &e : events_)
            std::fprintf(f, ",\n%s", e.c_str());
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    void
    add(const std::string &name, int pid, double ts, double dur)
    {
        events_.push_back(anic::strprintf(
            "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":1,"
            "\"ts\":%.3f,\"dur\":%.3f}",
            name.c_str(), pid, ts, dur));
    }

    std::chrono::steady_clock::time_point t0_;
    std::vector<std::string> events_;
};

/** Workload-specific per-layer metrics every workload prints, as 0
 *  where the layer does no work. */
const char *const kWorkloadRatios[] = {
    "offload.full_frac", "tls.partial_frac",   "tls.none_frac",
    "nvmetcp.placed_frac", "nvmetcp.digest_sw_frac", "iscsi.placed_frac",
    "iscsi.digest_sw_frac", "host.drive_util",
};

void
printJson(const Options &o, const Workload &wl, uint64_t failed,
          uint64_t totalPkts, const Metrics &m)
{
    std::string out = anic::strprintf(
        "{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%.17g,"
        "\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
        "\"total_pkts\":%llu,\"metrics\":[",
        o.spec->name, static_cast<unsigned long long>(o.seed), o.seconds,
        failed == 0 && wl.ops.attempted() > 0 ? "true" : "false",
        static_cast<unsigned long long>(wl.ops.attempted()),
        static_cast<unsigned long long>(failed),
        static_cast<unsigned long long>(totalPkts));
    bool first = true;
    for (const Metric &x : m.all()) {
        out += anic::strprintf(
            "%s{\"name\":\"%s\",\"unit\":\"%s\",\"value\":%.17g,\"n\":%llu,"
            "\"q1\":%.17g,\"q3\":%.17g,\"sim\":%s}",
            first ? "" : ",", x.name.c_str(), x.unit.c_str(), x.value,
            static_cast<unsigned long long>(x.n), x.q1, x.q3,
            x.sim ? "true" : "false");
        first = false;
    }
    out += "]}";
    std::printf("%s\n", out.c_str());
}

int
runBenchmark(const Options &o)
{
    const WorkloadSpec &spec = *o.spec;
    Spans spans;

    // ---- set-up, repeated; the last world is the one measured
    std::vector<double> setupS, buildS, connectS, offloadS;
    uint64_t retiredPkts = 0; ///< wire packets of discarded set-ups
    std::unique_ptr<Workload> wl;
    double setupSpent = 0;
    for (int rep = 0; rep < kMinSetupReps ||
                    (setupSpent < kSetupBudgetS && rep < kMaxSetupReps);
         rep++) {
        if (wl != nullptr) {
            retiredPkts += wl->world().wirePkts();
            wl.reset();
        }
        wl = spec.make(o.seed);
        double s0 = spans.nowUs();
        wl->build();
        spans.phase("build", s0);
        double s1 = spans.nowUs();
        wl->connect();
        spans.phase("connect", s1);
        buildS.push_back((s1 - s0) * 1e-6);
        connectS.push_back((spans.nowUs() - s1) * 1e-6);
        setupS.push_back(buildS.back() + connectS.back());
        setupSpent += setupS.back();
        offloadS.push_back(wl->offloadInstallS);
    }
    World &w = wl->world();

    // ---- warm-up
    double s2 = spans.nowUs();
    wl->start();
    w.sim.runFor(spec.warmup);
    spans.phase("warm", s2);
    double warmS = (spans.nowUs() - s2) * 1e-6;

    // ---- measured window: kChunks equal simulated chunks
    Tick chunk = static_cast<Tick>(static_cast<double>(spec.simPerHostSecond) *
                                   o.seconds / kChunks);
    Tick window = chunk * kChunks;
    wl->ops.openWindow(w.sim.now(), w.sim.now() + window);
    Counters c0 = Counters::take(*wl);
    WorldSnap snap0 = WorldSnap::take(w);
    std::vector<double> pktRate, chunkGbps;
    for (int k = 0; k < kChunks; k++) {
        uint64_t p0 = w.wirePkts();
        uint64_t b0 = wl->appBytes;
        double s = spans.nowUs();
        w.sim.runFor(chunk);
        spans.phase("chunk " + std::to_string(k), s);
        double wall = (spans.nowUs() - s) * 1e-6;
        pktRate.push_back(static_cast<double>(w.wirePkts() - p0) / wall);
        chunkGbps.push_back(units::gbps(wl->appBytes - b0, chunk));
    }
    Counters c1 = Counters::take(*wl);
    WorldSnap snap1 = WorldSnap::take(w);

    // ---- drain: operations due in the window must finish
    double s3 = spans.nowUs();
    wl->stopIssuing();
    Tick drainStart = w.sim.now();
    while (!wl->ops.drained() && w.sim.now() - drainStart < kDrainLimit)
        w.sim.runFor(kMillisecond);
    spans.phase("drain", s3);
    spans.ops(wl->ops);

    // ---- correctness before any metric
    uint64_t bytes = c1.appBytes - c0.appBytes;
    double goodput = units::gbps(bytes, window);
    double wireGbps = units::gbps(
        snap1.srvRxBytes - snap0.srvRxBytes + snap1.genRxBytes - snap0.genRxBytes,
        window);
    Audit audit;
    auditWorld(audit, w, snap0, snap1, window, wl->installs);
    wl->audit(audit);
    audit.check(goodput <= wireGbps,
                anic::strprintf("goodput %.6f Gbps > wire %.6f Gbps", goodput,
                                wireGbps));
    audit.check(wireGbps <= 2 * w.srv.nicDev().config().gbps,
                anic::strprintf("wire %.6f Gbps > both directions' line rate",
                                wireGbps));
    if (!audit.ok()) {
        std::fprintf(stderr, "anicbench: %s seed %llu: conservation audit "
                             "failed:\n",
                     spec.name, static_cast<unsigned long long>(o.seed));
        for (const std::string &v : audit.violations())
            std::fprintf(stderr, "  %s\n", v.c_str());
        return 3;
    }
    const OpLog &ops = wl->ops;
    uint64_t failed = ops.failedCount() + (ops.attempted() - ops.completedCount()) +
                      wl->integrityFailures;

    // ---- end-to-end metrics
    Metrics m;
    m.add(spread("host_pkts_per_s", "pkts/s", pktRate, false));
    m.add(spread("setup_s", "s", setupS, false));
    m.add("peak_rss_mb", "MiB", peakRssMiB(), false);
    Metric g = spread("sim_goodput_gbps", "Gbps", chunkGbps, true);
    g.value = goodput; // over the whole window; chunks give the spread
    m.add(g);
    m.add("sim_cycles_per_byte", "cycles/B",
          ratio(c1.srvCycles - c0.srvCycles, static_cast<double>(bytes)));
    const anic::sim::Distribution &lat = ops.latencyUs();
    bool haveLat = !lat.empty();
    m.add({"sim_lat_p50_us", "us", haveLat ? lat.percentile(50) : 0,
           lat.count(), haveLat ? lat.percentile(25) : 0,
           haveLat ? lat.percentile(75) : 0, true});
    double p99 = haveLat ? lat.percentile(99) : 0;
    m.add({"sim_lat_p99_us", "us", p99, lat.count(), p99, p99, true});

    // ---- per-layer metrics from counters (gprof ones come from run.py)
    double pkts = static_cast<double>(c1.pkts - c0.pkts);
    double kpkts = pkts / 1000;
    auto d = [](uint64_t a, uint64_t b) { return static_cast<double>(a - b); };
    m.add("sim.events_per_pkt", "events/pkt", ratio(d(c1.events, c0.events), pkts));
    m.add("net.pool_misses_per_kpkt", "misses/kpkt",
          ratio(d(c1.poolMisses, c0.poolMisses), kpkts));
    m.add("net.link_drop_frac", "ratio",
          ratio(d(c1.linkDropped, c0.linkDropped), d(c1.linkSent, c0.linkSent)));
    m.add("nic.ctx_hit_rate", "ratio",
          ratio(d(c1.ctxHits, c0.ctxHits),
                d(c1.ctxHits, c0.ctxHits) + d(c1.ctxMisses, c0.ctxMisses)));
    m.add("nic.ctx_evictions_per_kpkt", "evictions/kpkt",
          ratio(d(c1.ctxEvictions, c0.ctxEvictions), kpkts));
    m.add("nic.irqs_per_pkt", "irqs/pkt",
          ratio(d(c1.irqs, c0.irqs), d(c1.srvRxPkts, c0.srvRxPkts)));
    m.add("nic.pcie_util", "ratio", pcieUtilization(w, snap0, snap1, window));
    m.add("nic.fsm_resync_req_per_kmsg", "requests/kmsg",
          ratio(d(c1.fsmResyncReq, c0.fsmResyncReq),
                d(c1.fsmMsgs, c0.fsmMsgs) / 1000));
    m.add("nic.fsm_resync_confirm_frac", "ratio",
          ratio(d(c1.fsmResyncConfirmed, c0.fsmResyncConfirmed),
                d(c1.fsmResyncReq, c0.fsmResyncReq)));
    m.add("tcp.retx_frac", "ratio",
          ratio(d(c1.tcpRetx, c0.tcpRetx), d(c1.tcpDataPkts, c0.tcpDataPkts)));
    m.add("host.srv_busy_cores", "cores",
          ratio(static_cast<double>(c1.srvBusy - c0.srvBusy),
                static_cast<double>(window)));
    m.add("host.srv_items_per_pkt", "items/pkt",
          ratio(d(c1.srvItems, c0.srvItems), pkts));
    double flows = static_cast<double>(wl->heap.flows);
    m.add("tcp.heap_bytes_per_flow", "B", ratio(wl->heap.tcp, flows));
    m.add("tls.heap_bytes_per_flow", "B", ratio(wl->heap.tls, flows));
    m.add("nic.heap_bytes_per_flow", "B", ratio(wl->heap.nic, flows));
    m.add("app.heap_bytes_per_flow", "B", ratio(wl->heap.app, flows));
    Metrics own;
    wl->report(own);
    for (const char *name : kWorkloadRatios) {
        auto it = std::find_if(own.all().begin(), own.all().end(),
                               [&](const Metric &x) { return x.name == name; });
        m.add(it != own.all().end() ? *it : Metric{name, "ratio", 0, 1, 0, 0, true});
    }
    m.add(spread("setup.build_s", "s", buildS, false));
    m.add(spread("setup.connect_s", "s", connectS, false));
    m.add(spread("setup.offload_s", "s", offloadS, false));
    m.add("setup.warm_s", "s", warmS, false);
    uint64_t totalPkts = retiredPkts + w.wirePkts();
    m.add("trace.cpu_ns_per_pkt", "ns/pkt",
          processCpuSeconds() * 1e9 / static_cast<double>(totalPkts), false);

    if (!o.spansFile.empty() && !spans.write(o.spansFile)) {
        std::fprintf(stderr, "anicbench: cannot write %s\n",
                     o.spansFile.c_str());
        return 2;
    }
    printJson(o, *wl, failed, totalPkts, m);
    return 0;
}

} // namespace

} // namespace anicbench

int
main(int argc, char **argv)
{
    return anicbench::runBenchmark(anicbench::parseArgs(argc, argv));
}
