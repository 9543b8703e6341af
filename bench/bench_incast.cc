/**
 * @file
 * Incast macrobenchmark: N TLS senders converge on one rx-offloaded
 * receiver in synchronized burst rounds — the partition/aggregate
 * microburst that stresses both the congestion controller (shared
 * bottleneck queue, synchronized loss) and the autonomous rx offload
 * (every drop or reorder inside a burst forces the NIC to resync on
 * live traffic). The sweep crosses fan-in x congestion-control
 * algorithm x offload on/off and reports, per point, the offload hit
 * rate (fully-offloaded records / all records), resync pressure,
 * retransmit/ECN activity, and burst completion time.
 *
 * The link carries mild loss + reordering toward the receiver so
 * resyncs actually happen; DCTCP points additionally get the step CE
 * marker (ecnMarkThresholdBytes) its control law expects, so the
 * cwnd trajectory differs by algorithm while the offload oracle stays
 * the same: every plaintext byte delivered, regardless.
 */

#include <memory>

#include "bench_common.hh"
#include "core/testbed.hh"
#include "tls/ktls.hh"

using namespace anic;
using namespace anic::bench;

namespace {

constexpr uint16_t kPort = 443;
constexpr uint64_t kTlsSecret = 0x1ca57;
constexpr size_t kRecordSize = 4096;
constexpr sim::Tick kPoll = 100 * sim::kMicrosecond;
constexpr sim::Tick kStart = 1 * sim::kMillisecond;

struct IncastParams
{
    int fanIn = 8;
    tcp::CcAlgo cc = tcp::CcAlgo::Reno;
    bool offload = true;
    uint64_t bytesPerSender = 64 << 10;
    uint32_t rounds = 3;
    sim::Tick gap = 2 * sim::kMillisecond;
};

struct PointResult
{
    bool completed = false;
    double hitRate = 0;      ///< fully-offloaded records / all records
    uint64_t resyncReq = 0;  ///< rx resync requests at the receiver NIC
    uint64_t resyncConf = 0; ///< of those, confirmed back in sync
    uint64_t fastRetx = 0;   ///< sender fast retransmits
    uint64_t rtoFires = 0;   ///< sender RTO fires
    uint64_t ecnMarked = 0;  ///< CE marks applied toward the receiver
    uint64_t cwndReductions = 0; ///< sender ECN-echo cwnd cuts
    double completionMs = 0; ///< first byte burst start -> all delivered
    double goodputGbps = 0;  ///< plaintext over the completion window
};

/**
 * One incast world on a testbed: sender node a ("gen", all N flows),
 * receiver node b ("srv") whose accepted connections each get an
 * rx-offload(-able) TLS socket. Burst round k releases bytesPerSender
 * more bytes to every sender at kStart + k*gap.
 */
class IncastWorld
{
  public:
    IncastWorld(sim::RunContext &ctx, const IncastParams &p)
        : p_(p), bed_(testbedCfg(ctx, p))
    {
        srvTlsCfg_.recordSize = kRecordSize;
        srvTlsCfg_.rxOffload = p.offload;
        srvTlsCfg_.aggregate = &srvAgg_;
        cliTlsCfg_.recordSize = kRecordSize;

        bed_.b.stack().listen(kPort, bed_.b.tcpConfig(),
                              [this](tcp::TcpConnection &c) { accept(c); });
        senders_.resize(static_cast<size_t>(p.fanIn));
        for (int i = 0; i < p.fanIn; i++) {
            size_t idx = static_cast<size_t>(i);
            bed_.sim.schedule(kStart, [this, idx] { open(idx); });
        }
        roundsOpen_ = 1;
        for (uint32_t k = 1; k < p.rounds; k++)
            bed_.sim.schedule(kStart + k * p.gap, [this] {
                roundsOpen_++;
                for (size_t i = 0; i < senders_.size(); i++)
                    pump(i);
            });
    }

    uint64_t
    expectedBytes() const
    {
        return static_cast<uint64_t>(p_.fanIn) * p_.rounds *
               p_.bytesPerSender;
    }

    bool done() const { return delivered_ >= expectedBytes(); }
    uint64_t delivered() const { return delivered_; }
    core::Testbed &bed() { return bed_; }
    const tls::TlsStats &srvTls() const { return srvAgg_; }

  private:
    struct Sender
    {
        tcp::TcpConnection *conn = nullptr;
        std::unique_ptr<tls::TlsSocket> tls;
        uint64_t sent = 0;
    };

    struct Receiver
    {
        std::unique_ptr<tls::TlsSocket> tls;
    };

    static core::Testbed::Config
    testbedCfg(sim::RunContext &ctx, const IncastParams &p)
    {
        core::Testbed::Config t;
        t.a.name = "gen";
        t.b.name = "srv";
        t.a.tcpCfg.cc = t.b.tcpCfg.cc = p.cc;
        t.bindRun(ctx);
        net::Link::Config &c = t.link;
        c.seed = 0x11ca57;
        // Mild loss + reordering toward the receiver: enough that the
        // NIC's rx FSM pays real resyncs inside the bursts, low enough
        // that an autonomous offload keeps a high hit rate (Figure 18
        // already collapses full offload at percent-level reordering).
        c.dir[0].lossRate = 0.001;
        c.dir[0].reorderRate = 0.003;
        c.dir[0].reorderExtraDelay = 10 * sim::kMicrosecond;
        // DCTCP marking: the step threshold watches the link's
        // in-propagation queue (small — a bandwidth-delay product),
        // plus a low marking rate so bursts see CE even between queue
        // spikes.
        if (p.cc == tcp::CcAlgo::Dctcp) {
            c.dir[0].ecnMarkThresholdBytes = 4 << 10;
            c.dir[0].ecnMarkRate = 0.02;
        }
        return t;
    }

    void
    open(size_t i)
    {
        tcp::TcpConnection &c = bed_.a.stack().connect(
            core::Testbed::kIpA, core::Testbed::kIpB, kPort,
            bed_.a.tcpConfig());
        senders_[i].conn = &c;
        c.setOnConnected([this, i, &c] {
            senders_[i].tls = std::make_unique<tls::TlsSocket>(
                c, tls::SessionKeys::derive(kTlsSecret, true), cliTlsCfg_);
            senders_[i].tls->setOnWritable([this, i] { pump(i); });
            pump(i);
        });
    }

    void
    pump(size_t i)
    {
        Sender &sn = senders_[i];
        if (sn.tls == nullptr)
            return;
        uint64_t target =
            std::min<uint64_t>(roundsOpen_, p_.rounds) * p_.bytesPerSender;
        while (sn.sent < target) {
            size_t n = static_cast<size_t>(
                std::min<uint64_t>(kRecordSize, target - sn.sent));
            Bytes buf(n, 0x5a);
            size_t acc = sn.tls->send(buf);
            sn.sent += acc;
            if (acc < n)
                return;
        }
    }

    void
    accept(tcp::TcpConnection &c)
    {
        // Install the TLS socket (and rx offload context) at accept
        // time, i.e. on the SYN: rcvNxt is still the ISN so the NIC
        // FSM starts byte-synchronized with record 0. Deferring to
        // onConnected would install the context mid-record when the
        // handshake-completing segment carries data, forcing a resync
        // that cannot re-lock until a packet-aligned record boundary.
        auto r = std::make_unique<Receiver>();
        r->tls = std::make_unique<tls::TlsSocket>(
            c, tls::SessionKeys::derive(kTlsSecret, false), srvTlsCfg_);
        if (p_.offload)
            r->tls->enableOffload(bed_.b.device());
        tls::TlsSocket *s = r->tls.get();
        s->setOnReadable([this, s] {
            while (s->readable())
                delivered_ += s->pop().data.size();
        });
        receivers_.push_back(std::move(r));
    }

    IncastParams p_;
    core::Testbed bed_;
    tls::TlsConfig srvTlsCfg_;
    tls::TlsConfig cliTlsCfg_;
    tls::TlsStats srvAgg_;
    std::vector<Sender> senders_;
    std::vector<std::unique_ptr<Receiver>> receivers_;
    uint32_t roundsOpen_ = 0;
    uint64_t delivered_ = 0;
};

PointResult
runPoint(sim::RunContext &ctx, const IncastParams &p)
{
    IncastWorld w(ctx, p);
    sim::Tick limit = 4 * sim::kSecond;
    sim::Simulator &sim = w.bed().sim;
    while (sim.now() < limit && !w.done())
        sim.runFor(kPoll);

    PointResult r;
    r.completed = w.done();
    sim::Tick took = sim.now() > kStart ? sim.now() - kStart : 0;
    r.completionMs = sim::ticksToSeconds(took) * 1e3;
    if (took > 0)
        r.goodputGbps = static_cast<double>(w.delivered()) * 8.0 /
                        sim::ticksToSeconds(took) / 1e9;
    const tls::TlsStats &t = w.srvTls();
    uint64_t full = t.rxFullyOffloaded.value();
    uint64_t classified = full + t.rxPartiallyOffloaded.value() +
                          t.rxNotOffloaded.value();
    r.hitRate = classified > 0
                    ? static_cast<double>(full) /
                          static_cast<double>(classified)
                    : 0.0;
    r.resyncReq = t.rxResyncRequests.value();
    r.resyncConf = t.rxResyncConfirmed.value();
    const tcp::TcpStats &g = w.bed().a.stack().stats();
    r.fastRetx = g.fastRetransmits.value();
    r.rtoFires = g.rtoFires.value();
    r.cwndReductions = g.ecnCwndReductions.value();
    r.ecnMarked = w.bed().link.stats(0).ecnMarked;
    emitRegistrySnapshot(ctx, "incast",
                         {{"cc", tcp::ccAlgoName(p.cc)},
                          {"fan_in", tagNum(p.fanIn)},
                          {"offload", p.offload ? "1" : "0"}});
    return r;
}

constexpr int kFanInsFull[] = {4, 8, 16, 32};
constexpr int kFanInsQuick[] = {4, 32};
constexpr tcp::CcAlgo kAlgos[] = {tcp::CcAlgo::Reno, tcp::CcAlgo::Cubic,
                                  tcp::CcAlgo::Dctcp};
constexpr int kMaxFanIns = static_cast<int>(std::size(kFanInsFull));
constexpr int kAlgoCount = static_cast<int>(std::size(kAlgos));

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opt = parseBenchCli(argc, argv);
    bool quick = opt.quick;
    const int *fanIns = quick ? kFanInsQuick : kFanInsFull;
    const int fanInCount =
        quick ? static_cast<int>(std::size(kFanInsQuick)) : kMaxFanIns;

    printHeader("incast: fan-in x congestion control x rx offload");
    std::printf("N senders -> 1 rx-offloaded receiver, synchronized "
                "burst rounds, lossy+reordering path\n\n");

    PointResult res[kAlgoCount][kMaxFanIns][2] = {};
    {
        Sweep sweep("incast", opt);
        for (int ai = 0; ai < kAlgoCount; ai++) {
            for (int fi = 0; fi < fanInCount; fi++) {
                for (int off = 0; off < 2; off++) {
                    IncastParams p;
                    p.fanIn = fanIns[fi];
                    p.cc = kAlgos[ai];
                    p.offload = off == 1;
                    if (quick) {
                        p.rounds = 2;
                        p.bytesPerSender = 32 << 10;
                    }
                    std::string label =
                        strprintf("%s/f%d/%s", tcp::ccAlgoName(p.cc),
                                  p.fanIn, p.offload ? "offload" : "sw");
                    sweep.add(label, [&res, ai, fi, off,
                                      p](sim::RunContext &ctx) {
                        PointResult r = runPoint(ctx, p);
                        res[ai][fi][off] = r;
                        JsonExtra tags = {
                            {"cc", tcp::ccAlgoName(p.cc)},
                            {"fan_in", tagNum(p.fanIn)},
                            {"offload", p.offload ? "1" : "0"}};
                        jsonRecord(ctx, "incast", "hit_rate", r.hitRate,
                                   tags);
                        jsonRecord(ctx, "incast", "completion_ms",
                                   r.completionMs, tags);
                        jsonRecord(ctx, "incast", "resync_req",
                                   static_cast<double>(r.resyncReq), tags);
                        jsonRecord(ctx, "incast", "fast_retx",
                                   static_cast<double>(r.fastRetx), tags);
                    });
                }
            }
        }
        sweep.drain();
    }

    std::printf("%-6s %4s %-8s %6s %7s %9s %7s %6s %7s %8s %9s\n", "cc",
                "fan", "mode", "done", "hit%", "resyncs", "fretx", "rto",
                "ce", "cwndcut", "burst ms");
    for (int ai = 0; ai < kAlgoCount; ai++) {
        for (int fi = 0; fi < fanInCount; fi++) {
            for (int off = 0; off < 2; off++) {
                const PointResult &r = res[ai][fi][off];
                std::printf(
                    "%-6s %4d %-8s %6s %6.1f%% %4llu/%-4llu %7llu %6llu "
                    "%7llu %8llu %9.2f\n",
                    tcp::ccAlgoName(kAlgos[ai]), fanIns[fi],
                    off == 1 ? "offload" : "sw", r.completed ? "yes" : "NO",
                    100.0 * r.hitRate,
                    static_cast<unsigned long long>(r.resyncConf),
                    static_cast<unsigned long long>(r.resyncReq),
                    static_cast<unsigned long long>(r.fastRetx),
                    static_cast<unsigned long long>(r.rtoFires),
                    static_cast<unsigned long long>(r.ecnMarked),
                    static_cast<unsigned long long>(r.cwndReductions),
                    r.completionMs);
            }
        }
    }
    std::printf("\npaper claim (§4.3): the rx offload is opportunistic — "
                "incast loss costs resyncs, never correctness\n");
    return 0;
}
