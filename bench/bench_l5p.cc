/**
 * @file
 * L5P generality perf smoke: one data point per autonomous offload
 * protocol (TLS records, NVMe-TCP mixed reads+writes, iSCSI mixed
 * reads+writes), each on a clean wire and on a mildly lossy one.
 * Every point reports the offload hit rate — messages fully handled
 * by the NIC engines over all messages — plus zero-copy placement
 * volume and resync pressure. The paper's claim under test: the same
 * stream FSM serves all three L5Ps through the protocol-agnostic
 * l5o_create binding, degrading to software only around loss and
 * recovering via resync.
 *
 * The exit code gates CI: on the clean wire every protocol must
 * complete with a >= 90% hit rate and zero digest/IO failures.
 */

#include <memory>

#include "bench_common.hh"
#include "core/node.hh"
#include "iscsi/session.hh"
#include "nvmetcp/host_queue.hh"
#include "nvmetcp/target.hh"
#include "tls/ktls.hh"

using namespace anic;
using namespace anic::bench;

namespace {

constexpr net::IpAddr kIpA = net::makeIp(10, 2, 0, 1);
constexpr net::IpAddr kIpB = net::makeIp(10, 2, 0, 2);
constexpr sim::Tick kTimeLimit = 4 * sim::kSecond;
constexpr sim::Tick kPoll = 1 * sim::kMillisecond;
constexpr uint32_t kIoLen = 262144;

struct Point
{
    bool completed = false;
    double hitRate = 0;      ///< NIC-verified messages / all messages
    uint64_t placedBytes = 0;
    uint64_t resyncReq = 0;
    uint64_t failures = 0;
};

/** One two-node world per point (worlds never share state). Node "a"
 *  exports the storage target / TLS sink, node "b" drives the load —
 *  the OffloadWorld layout, rebuilt here on a RunContext so points
 *  run under the JobRunner. */
struct World
{
    sim::Simulator sim;
    net::Link link;
    core::Node a;
    core::Node b;

    World(sim::RunContext &ctx, bool lossy)
        : link(sim, linkCfg(lossy)), a(sim, nodeCfg(ctx, "a", 11)),
          b(sim, nodeCfg(ctx, "b", 22))
    {
        a.attachPort(link, 0, kIpA);
        b.attachPort(link, 1, kIpB);
    }

    static net::Link::Config
    linkCfg(bool lossy)
    {
        net::Link::Config c;
        c.seed = 0x15b71;
        if (lossy) {
            // Enough loss that the rx FSMs pay real resyncs, low
            // enough that the offloads keep a useful hit rate and
            // TCP finishes well inside the time limit.
            c.dir[0].lossRate = 0.005;
            c.dir[1].lossRate = 0.005;
        }
        return c;
    }

    static core::Node::Config
    nodeCfg(sim::RunContext &ctx, const char *name, uint64_t seed)
    {
        core::Node::Config c;
        c.name = name;
        c.stackSeed = seed;
        c.bindRun(ctx);
        return c;
    }

    void
    runToCompletion(const std::function<bool()> &done)
    {
        while (sim.now() < kTimeLimit && !done())
            sim.runFor(kPoll);
    }
};

/** TLS: one rx-offloaded flow b -> a streaming fixed-size records. */
Point
runTls(sim::RunContext &ctx, bool lossy, uint64_t bytes)
{
    World w(ctx, lossy);
    constexpr uint16_t kPort = 443;
    constexpr uint64_t kSecret = 0x15b;
    constexpr size_t kRecord = 4096;

    tls::TlsConfig rxCfg;
    rxCfg.recordSize = kRecord;
    rxCfg.rxOffload = true;
    tls::TlsConfig txCfg;
    txCfg.recordSize = kRecord;

    std::unique_ptr<tls::TlsSocket> tx, rx;
    uint64_t sent = 0, received = 0;
    auto pump = [&] {
        while (tx != nullptr && sent < bytes) {
            size_t n = static_cast<size_t>(
                std::min<uint64_t>(kRecord, bytes - sent));
            Bytes buf(n, 0x5a);
            size_t acc = tx->send(buf);
            sent += acc;
            if (acc < n)
                break;
        }
    };
    // Install the rx offload context at accept time (on the SYN) so
    // the NIC FSM starts byte-synchronized with record 0.
    w.a.stack().listen(kPort, w.a.tcpConfig(), [&](tcp::TcpConnection &c) {
        rx = std::make_unique<tls::TlsSocket>(
            c, tls::SessionKeys::derive(kSecret, false), rxCfg);
        rx->enableOffload(w.a.device());
        rx->setOnReadable([&] {
            while (rx->readable())
                received += rx->pop().data.size();
        });
    });
    tcp::TcpConnection &c =
        w.b.stack().connect(kIpB, kIpA, kPort, w.b.tcpConfig());
    c.setOnConnected([&] {
        tx = std::make_unique<tls::TlsSocket>(
            c, tls::SessionKeys::derive(kSecret, true), txCfg);
        tx->setOnWritable(pump);
        pump();
    });
    w.runToCompletion([&] { return received >= bytes; });

    Point p;
    p.completed = received >= bytes;
    if (rx != nullptr) {
        const tls::TlsStats &s = rx->stats();
        uint64_t full = s.rxFullyOffloaded.value();
        uint64_t classified = full + s.rxPartiallyOffloaded.value() +
                              s.rxNotOffloaded.value();
        p.hitRate = classified > 0
                        ? static_cast<double>(full) /
                              static_cast<double>(classified)
                        : 0;
        p.resyncReq = s.rxResyncRequests.value();
        p.failures = s.tagFailures.value();
    }
    return p;
}

/** NVMe-TCP: alternating 256 KiB writes (H2C + R2T credit flow) and
 *  reads, host and target both fully offloaded. */
Point
runNvme(sim::RunContext &ctx, bool lossy, int ops)
{
    World w(ctx, lossy);
    constexpr uint16_t kPort = 4420;
    host::NvmeDrive drive(w.sim, {});
    nvmetcp::WireConfig wc;
    std::unique_ptr<nvmetcp::NvmeTarget> target;
    std::unique_ptr<nvmetcp::NvmeHostQueue> hostq;
    int completed = 0, failed = 0;

    w.a.stack().listen(kPort, w.a.tcpConfig(), [&](tcp::TcpConnection &c) {
        target = std::make_unique<nvmetcp::NvmeTarget>(c, drive, wc);
        nvmetcp::NvmeOffloadConfig tcfg;
        tcfg.crcRx = tcfg.copyRx = tcfg.crcTx = true;
        target->enableOffload(w.a.device(), c, tcfg);
    });
    tcp::TcpConnection &c =
        w.b.stack().connect(kIpB, kIpA, kPort, w.b.tcpConfig());
    c.setOnConnected([&] {
        nvmetcp::NvmeOffloadConfig ocfg;
        ocfg.crcRx = ocfg.copyRx = ocfg.crcTx = true;
        hostq = std::make_unique<nvmetcp::NvmeHostQueue>(c, wc, ocfg);
        hostq->enableOffload(w.b.device(), c);
        for (int i = 0; i < ops; i++) {
            uint64_t slba = static_cast<uint64_t>(kIoLen) * 2 * i;
            if (i % 2 == 0) {
                hostq->write(slba, kIoLen, drive.config().contentSeed,
                             [&](bool ok) {
                                 completed++;
                                 failed += ok ? 0 : 1;
                             });
            } else {
                hostq->read(slba, kIoLen,
                            [&](bool ok, host::BlockBufferPtr) {
                                completed++;
                                failed += ok ? 0 : 1;
                            });
            }
        }
    });
    w.runToCompletion([&] { return completed >= ops; });

    Point p;
    p.completed = completed >= ops;
    p.failures = static_cast<uint64_t>(failed);
    if (hostq != nullptr && target != nullptr) {
        const nvmetcp::NvmeHostStats &h = hostq->stats();
        const nvmetcp::NvmeTargetStats &t = target->stats();
        uint64_t skip = h.crcSkipped.value() + t.h2cDigestSkipped;
        uint64_t total =
            skip + h.crcSoftware.value() + t.h2cDigestSoftware;
        p.hitRate = total > 0 ? static_cast<double>(skip) /
                                    static_cast<double>(total)
                              : 0;
        p.placedBytes = h.bytesPlaced.value() + t.h2cBytesPlaced;
        p.resyncReq = h.resyncRequests.value() + t.resyncRequests;
        p.failures += h.crcFailures.value() + t.digestFailures;
    }
    return p;
}

/** iSCSI: alternating unsolicited Data-Out writes and reads,
 *  initiator and target both offloaded (digest rx/tx + placement). */
Point
runIscsi(sim::RunContext &ctx, bool lossy, int ops)
{
    World w(ctx, lossy);
    constexpr uint16_t kPort = 3260;
    host::NvmeDrive drive(w.sim, {});
    iscsi::IscsiWireConfig wc;
    std::unique_ptr<iscsi::IscsiTarget> target;
    std::unique_ptr<iscsi::IscsiInitiator> init;
    int completed = 0, failed = 0;

    w.a.stack().listen(kPort, w.a.tcpConfig(), [&](tcp::TcpConnection &c) {
        target = std::make_unique<iscsi::IscsiTarget>(c, drive, wc);
        iscsi::IscsiOffloadConfig tcfg;
        tcfg.crcRx = tcfg.copyRx = tcfg.crcTx = true;
        target->enableOffload(w.a.device(), c, tcfg);
    });
    tcp::TcpConnection &c =
        w.b.stack().connect(kIpB, kIpA, kPort, w.b.tcpConfig());
    c.setOnConnected([&] {
        iscsi::IscsiOffloadConfig ocfg;
        ocfg.crcRx = ocfg.copyRx = ocfg.crcTx = true;
        init = std::make_unique<iscsi::IscsiInitiator>(c, wc, ocfg);
        init->enableOffload(w.b.device(), c);
        for (int i = 0; i < ops; i++) {
            uint64_t slba = static_cast<uint64_t>(kIoLen) * 2 * i;
            if (i % 2 == 0) {
                init->write(slba, kIoLen, drive.config().contentSeed,
                            [&](bool ok) {
                                completed++;
                                failed += ok ? 0 : 1;
                            });
            } else {
                init->read(slba, kIoLen,
                           [&](bool ok, host::BlockBufferPtr) {
                               completed++;
                               failed += ok ? 0 : 1;
                           });
            }
        }
    });
    w.runToCompletion([&] { return completed >= ops; });

    Point p;
    p.completed = completed >= ops;
    p.failures = static_cast<uint64_t>(failed);
    if (init != nullptr && target != nullptr) {
        const iscsi::IscsiInitiatorStats &h = init->stats();
        const iscsi::IscsiTargetStats &t = target->stats();
        uint64_t skip = h.digestSkipped.value() + t.digestSkipped.value();
        uint64_t total = skip + h.digestSoftware.value() +
                         t.digestSoftware.value();
        p.hitRate = total > 0 ? static_cast<double>(skip) /
                                    static_cast<double>(total)
                              : 0;
        p.placedBytes = h.bytesPlaced.value() + t.bytesPlaced.value();
        p.resyncReq =
            h.resyncRequests.value() + t.resyncRequests.value();
        p.failures += h.digestFailures.value() + t.digestFailures.value();
    }
    return p;
}

constexpr int kProtoCount = 3;
const char *kProtoNames[kProtoCount] = {"tls", "nvme", "iscsi"};

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opt = parseBenchCli(argc, argv);
    bool quick = opt.quick;
    uint64_t tlsBytes = quick ? (512 << 10) : (4 << 20);
    int ops = quick ? 8 : 24;

    printHeader("L5P generality smoke: offload hit rate per protocol");
    std::printf("TLS records / NVMe-TCP r+w / iSCSI r+w through the "
                "unified l5o_create binding\n\n");

    Point pts[kProtoCount][2] = {}; // [proto][clean, lossy]
    {
        Sweep sweep("l5p", opt);
        for (int pi = 0; pi < kProtoCount; pi++) {
            for (int li = 0; li < 2; li++) {
                bool lossy = li == 1;
                const char *wire = lossy ? "lossy" : "clean";
                std::string label =
                    strprintf("%s/%s", kProtoNames[pi], wire);
                sweep.add(label, [&pts, pi, li, lossy, wire, tlsBytes,
                                  ops](sim::RunContext &ctx) {
                    Point p;
                    if (pi == 0)
                        p = runTls(ctx, lossy, tlsBytes);
                    else if (pi == 1)
                        p = runNvme(ctx, lossy, ops);
                    else
                        p = runIscsi(ctx, lossy, ops);
                    pts[pi][li] = p;
                    JsonExtra tags = {{"proto", kProtoNames[pi]},
                                      {"wire", wire}};
                    jsonRecord(ctx, "l5p", "offload_hit_rate", p.hitRate,
                               tags);
                    jsonRecord(ctx, "l5p", "placed_bytes",
                               static_cast<double>(p.placedBytes), tags);
                    jsonRecord(ctx, "l5p", "resync_req",
                               static_cast<double>(p.resyncReq), tags);
                });
            }
        }
        sweep.drain();
    }

    std::printf("%-8s %-6s %9s %12s %8s %6s %5s\n", "proto", "wire",
                "hit%", "placed_KiB", "resyncs", "fails", "done");
    for (int pi = 0; pi < kProtoCount; pi++) {
        for (int li = 0; li < 2; li++) {
            const Point &p = pts[pi][li];
            std::printf("%-8s %-6s %8.1f%% %12llu %8llu %6llu %5s\n",
                        kProtoNames[pi], li == 0 ? "clean" : "lossy",
                        100.0 * p.hitRate,
                        static_cast<unsigned long long>(p.placedBytes >>
                                                        10),
                        static_cast<unsigned long long>(p.resyncReq),
                        static_cast<unsigned long long>(p.failures),
                        p.completed ? "yes" : "NO");
        }
    }

    // The smoke gate: on the clean wire every protocol must be nearly
    // fully offloaded and failure-free. Lossy points are reported but
    // only gated on completion (resync pressure
    // varies with the loss draw; correctness never does).
    bool ok = true;
    for (int pi = 0; pi < kProtoCount; pi++) {
        const Point &clean = pts[pi][0];
        if (!clean.completed || clean.hitRate < 0.9 ||
            clean.failures != 0)
            ok = false;
        if (!pts[pi][1].completed)
            ok = false;
    }
    std::printf("\n%s\n",
                ok ? "PASS: clean-wire hit rate >= 90% on all three "
                     "protocols, no failures"
                   : "FAIL: offload hit rate, completion, or failure "
                     "gate tripped");
    return ok ? 0 : 1;
}
