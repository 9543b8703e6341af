/**
 * @file
 * ECN negotiation and fallback: both-ends ECN with a marking link
 * (classic and DCTCP feedback loops close), asymmetric negotiation
 * falling back to non-ECN cleanly, CE marks on pure acks being
 * ignored, and a mid-stream impairment flip under an rx-offloaded TLS
 * flow holding every FSM invariant. The point throughout: ECN is a
 * performance signal, never a correctness dependency, and it must not
 * desync the autonomous offload FSM.
 */

#include <gtest/gtest.h>

#include "core/testbed.hh"
#include "support/test_net.hh"
#include "testing/invariants.hh"
#include "tls/ktls.hh"

namespace anic {
namespace {

using tcp::CcAlgo;
using tcp::TcpConnection;
using testing::TwoHostWorld;

constexpr uint64_t kBytes = 2 << 20;

/** Plain-TCP bulk transfer with per-side Config; returns the client. */
struct EcnBulk
{
    explicit EcnBulk(TwoHostWorld &w, TcpConnection::Config cliCfg,
                     TcpConnection::Config srvCfg, uint64_t bytes = kBytes)
        : total(bytes)
    {
        w.stackB->listen(80, srvCfg, [this](TcpConnection &c) {
            server = &c;
            c.setOnReadable([this, &c] {
                while (c.readable()) {
                    tcp::RxSegment seg = c.pop();
                    if (!checkDeterministic(seg.data, 5, seg.streamOff))
                        corrupt = true;
                    received += seg.data.size();
                }
            });
        });
        client = &w.stackA->connect(TwoHostWorld::kIpA, TwoHostWorld::kIpB,
                                    80, cliCfg);
        client->setOnWritable([this] { pump(); });
        client->setOnConnected([this] {
            client->core().post([this] { pump(); });
        });
    }

    void
    pump()
    {
        while (sent < total && client->sendSpace() > 0) {
            size_t n = std::min<uint64_t>(client->sendSpace(),
                                          std::min<uint64_t>(total - sent,
                                                             65536));
            Bytes chunk(n);
            fillDeterministic(chunk, 5, sent);
            size_t acc = client->send(chunk);
            sent += acc;
            if (acc < n)
                break;
        }
    }

    uint64_t total;
    uint64_t sent = 0;
    uint64_t received = 0;
    bool corrupt = false;
    TcpConnection *client = nullptr;
    TcpConnection *server = nullptr;
};

TEST(EcnNegotiation, BothEndsMarkEchoAndReduce)
{
    net::Link::Config lcfg;
    lcfg.dir[0].ecnMarkRate = 0.05; // mark ECT data toward the server
    TwoHostWorld w(lcfg);

    TcpConnection::Config cfg;
    cfg.cc = CcAlgo::Reno;
    cfg.ecn = true;
    EcnBulk bulk(w, cfg, cfg);
    w.sim.runUntil(2 * sim::kSecond);

    EXPECT_EQ(bulk.received, kBytes);
    EXPECT_FALSE(bulk.corrupt);
    ASSERT_NE(bulk.server, nullptr);
    EXPECT_TRUE(bulk.client->ecnEnabled());
    EXPECT_TRUE(bulk.server->ecnEnabled());
    EXPECT_GT(w.link.stats(0).ecnMarked, 0u);
    EXPECT_GT(bulk.server->stats().ecnCeRcvd, 0u);
    EXPECT_GT(bulk.client->stats().ecnEchoesRcvd, 0u);
    EXPECT_GT(bulk.client->stats().ecnCwndReductions, 0u);
    // ECN did its job without costing a single retransmission.
    EXPECT_EQ(bulk.client->stats().rtoFires, 0u);
}

TEST(EcnNegotiation, DctcpImpliesEcnAndReactsPerWindow)
{
    net::Link::Config lcfg;
    lcfg.dir[0].ecnMarkRate = 0.05;
    TwoHostWorld w(lcfg);

    TcpConnection::Config cfg;
    cfg.cc = CcAlgo::Dctcp; // note: no explicit cfg.ecn
    EcnBulk bulk(w, cfg, cfg);
    w.sim.runUntil(2 * sim::kSecond);

    EXPECT_EQ(bulk.received, kBytes);
    EXPECT_FALSE(bulk.corrupt);
    EXPECT_TRUE(bulk.client->ecnEnabled());
    EXPECT_TRUE(bulk.server->ecnEnabled());
    EXPECT_GT(bulk.client->stats().ecnEchoesRcvd, 0u);
    EXPECT_GT(bulk.client->stats().ecnCwndReductions, 0u);
}

TEST(EcnNegotiation, NonEcnPeerFallsBackCleanly)
{
    net::Link::Config lcfg;
    // A link that would mark everything: with negotiation refused,
    // nothing is ECT so nothing can be marked.
    lcfg.dir[0].ecnMarkRate = 1.0;
    TwoHostWorld w(lcfg);

    TcpConnection::Config cli;
    cli.cc = CcAlgo::Reno;
    cli.ecn = true;
    TcpConnection::Config srv; // ECN not offered on the SYN-ACK
    EcnBulk bulk(w, cli, srv);
    w.sim.runUntil(2 * sim::kSecond);

    EXPECT_EQ(bulk.received, kBytes);
    EXPECT_FALSE(bulk.corrupt);
    EXPECT_FALSE(bulk.client->ecnEnabled());
    EXPECT_FALSE(bulk.server->ecnEnabled());
    EXPECT_EQ(w.link.stats(0).ecnMarked, 0u);
    EXPECT_EQ(bulk.client->stats().ecnEchoesRcvd, 0u);
    EXPECT_EQ(bulk.client->stats().ecnCwndReductions, 0u);
}

TEST(EcnNegotiation, DctcpSenderAgainstNonEcnPeerDegradesToReno)
{
    net::Link::Config lcfg;
    lcfg.dir[0].ecnMarkRate = 1.0;
    lcfg.dir[0].lossRate = 0.005; // real loss still recovered sans ECN
    TwoHostWorld w(lcfg);

    TcpConnection::Config cli;
    cli.cc = CcAlgo::Dctcp;
    TcpConnection::Config srv;
    EcnBulk bulk(w, cli, srv);
    w.sim.runUntil(4 * sim::kSecond);

    EXPECT_EQ(bulk.received, kBytes);
    EXPECT_FALSE(bulk.corrupt);
    EXPECT_FALSE(bulk.client->ecnEnabled());
    EXPECT_EQ(bulk.client->stats().ecnCwndReductions, 0u);
    EXPECT_GT(bulk.client->stats().fastRetransmits +
                  bulk.client->stats().rtoFires,
              0u);
}

TEST(EcnNegotiation, CeOnPureAcksIsIgnored)
{
    TwoHostWorld w;
    TcpConnection::Config cfg;
    cfg.ecn = true;
    EcnBulk bulk(w, cfg, cfg, /*bytes=*/64 << 10);
    w.sim.runUntil(100 * sim::kMillisecond);
    ASSERT_EQ(bulk.received, 64u << 10);
    ASSERT_NE(bulk.server, nullptr);

    // A buggy or hostile peer reflecting CE on pure acks: RFC 3168
    // only defines CE on ECT packets, and this stack only inspects
    // data segments — the acks must not latch an echo or cut cwnd.
    for (int i = 0; i < 2; i++) { // two: stays below dup-ack threshold
        net::Ipv4Header ip;
        ip.src = TwoHostWorld::kIpB;
        ip.dst = TwoHostWorld::kIpA;
        ip.tos = net::kEcnCe;
        net::TcpHeader th;
        th.srcPort = 80;
        th.dstPort = bulk.client->localFlow().srcPort;
        th.seq = bulk.server->sndNextByteSeq();
        th.ack = bulk.client->sndUna();
        th.flags = net::kTcpAck;
        th.window = 1 << 20;
        net::PacketPtr pkt = w.stackA->pool().makeTcp(ip, th, 0);
        host::Core &core = w.stackA->steer(pkt->flow().reversed());
        core.post([&w, pkt] { w.stackA->input(pkt); });
        w.sim.runUntil(w.sim.now() + 1 * sim::kMillisecond);
    }

    // More data flows; nobody saw CE, nobody echoed, nobody cut.
    bulk.total += 64 << 10;
    bulk.client->core().post([&] { bulk.pump(); });
    w.sim.runUntil(w.sim.now() + 100 * sim::kMillisecond);
    EXPECT_EQ(bulk.received, 128u << 10);
    EXPECT_FALSE(bulk.corrupt);
    EXPECT_EQ(bulk.client->stats().ecnCeRcvd, 0u);
    EXPECT_EQ(bulk.server->stats().ecnCeRcvd, 0u);
    EXPECT_EQ(bulk.client->stats().ecnEchoesRcvd, 0u);
    EXPECT_EQ(bulk.client->stats().ecnCwndReductions, 0u);
    EXPECT_EQ(bulk.server->stats().ecnEchoesRcvd, 0u);
}

/**
 * Mid-stream ECN/impairment flips under an rx-offloaded TLS flow: the
 * marking (and light reordering) appears and disappears while the NIC
 * FSM is live. The FSM invariant probe must stay silent and the
 * stream must be delivered exactly.
 */
TEST(EcnOffloadInteraction, MidStreamImpairmentFlipHoldsFsmInvariants)
{
    testing::FsmInvariantChecker checker;

    core::Testbed::Config cfg;
    cfg.a.tcpCfg.cc = CcAlgo::Dctcp;
    cfg.b.tcpCfg.cc = CcAlgo::Dctcp;
    cfg.b.nicCfg.fsmProbe = &checker;
    core::Testbed w(cfg);

    constexpr uint64_t kTlsBytes = 4 << 20;
    constexpr uint64_t kSecret = 0xeca57;
    tls::TlsStats agg;
    tls::TlsConfig srvTls;
    srvTls.recordSize = 4096;
    srvTls.rxOffload = true;
    srvTls.aggregate = &agg;
    tls::TlsConfig cliTls;
    cliTls.recordSize = 4096;

    uint64_t received = 0;
    bool corrupt = false;
    std::unique_ptr<tls::TlsSocket> rxTls, txTls;
    w.b.stack().listen(443, w.b.tcpConfig(), [&](TcpConnection &c) {
        rxTls = std::make_unique<tls::TlsSocket>(
            c, tls::SessionKeys::derive(kSecret, false), srvTls);
        rxTls->enableOffload(w.b.device());
        rxTls->setOnReadable([&] {
            while (rxTls->readable()) {
                tcp::RxSegment seg = rxTls->pop();
                if (!checkDeterministic(seg.data, 3, seg.streamOff))
                    corrupt = true;
                received += seg.data.size();
            }
        });
    });

    uint64_t sent = 0;
    TcpConnection &c = w.a.stack().connect(core::Testbed::kIpA,
                                           core::Testbed::kIpB, 443,
                                           w.a.tcpConfig());
    auto pump = [&] {
        while (sent < kTlsBytes) {
            size_t n = std::min<uint64_t>(4096, kTlsBytes - sent);
            Bytes chunk(n);
            fillDeterministic(chunk, 3, sent);
            size_t acc = txTls->send(chunk);
            sent += acc;
            if (acc < n)
                break;
        }
    };
    c.setOnConnected([&] {
        txTls = std::make_unique<tls::TlsSocket>(
            c, tls::SessionKeys::derive(kSecret, true), cliTls);
        txTls->setOnWritable(pump);
        pump();
    });

    // Flip marking + mild reordering on at 100 us (inside the
    // ramp-up), off at 1 ms, on again at 2 ms: the FSM rides through
    // every transition.
    net::Impairments rough;
    rough.ecnMarkRate = 0.3;
    rough.reorderRate = 0.01;
    rough.reorderExtraDelay = 5 * sim::kMicrosecond;
    w.sim.schedule(100 * sim::kMicrosecond,
                   [&] { w.link.setImpairments(0, rough); });
    w.sim.schedule(1 * sim::kMillisecond,
                   [&] { w.link.setImpairments(0, net::Impairments{}); });
    w.sim.schedule(2 * sim::kMillisecond,
                   [&] { w.link.setImpairments(0, rough); });

    w.sim.runUntil(2 * sim::kSecond);

    EXPECT_EQ(received, kTlsBytes);
    EXPECT_FALSE(corrupt);
    EXPECT_TRUE(checker.violations().empty())
        << checker.violations().front();
    EXPECT_GT(checker.eventsSeen(), 0u);
    // The offload did real work and ECN feedback really closed the
    // loop while it ran.
    EXPECT_GT(agg.rxFullyOffloaded, 0u);
    EXPECT_GT(w.link.stats(0).ecnMarked, 0u);
    EXPECT_GT(w.a.stack().stats().ecnCwndReductions, 0u);
}

} // namespace
} // namespace anic
