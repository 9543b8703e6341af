/**
 * @file
 * Unit tests for the core offload framework: the tx message tracker
 * (seq->message map with ack trimming) and driver-level behaviours —
 * resync response staleness matching and shadow-context recovery —
 * exercised through a minimal TLS offload — and testbed teardown.
 */

#include <gtest/gtest.h>

#include "core/testbed.hh"
#include "core/l5p_stream.hh"
#include "tls/ktls.hh"

namespace anic {
namespace {

using core::TxMsgTracker;

TEST(TxMsgTracker, FindsContainingMessage)
{
    TxMsgTracker t;
    t.add(1000, 100, 0);
    t.add(1100, 50, 1);
    t.add(1150, 200, 2);

    EXPECT_EQ(t.find(1000)->msgIdx, 0u);
    EXPECT_EQ(t.find(1099)->msgIdx, 0u);
    EXPECT_EQ(t.find(1100)->msgIdx, 1u);
    EXPECT_EQ(t.find(1349)->msgIdx, 2u);
    EXPECT_EQ(t.find(1350), nullptr);
    EXPECT_EQ(t.find(999), nullptr);
}

TEST(TxMsgTracker, TrimsOnlyFullyAckedMessages)
{
    TxMsgTracker t;
    t.add(0, 100, 0);
    t.add(100, 100, 1);
    t.trimAcked(150); // message 1 partially acked: must stay
    EXPECT_EQ(t.size(), 1u);
    EXPECT_EQ(t.find(120)->msgIdx, 1u);
    t.trimAcked(200);
    EXPECT_TRUE(t.empty());
}

TEST(TxMsgTracker, SequenceWrapAround)
{
    TxMsgTracker t;
    uint32_t near_wrap = 0xffffff00u;
    t.add(near_wrap, 0x200, 7); // wraps past zero
    EXPECT_EQ(t.find(0x40)->msgIdx, 7u); // inside, post-wrap
    EXPECT_EQ(t.find(0x100), nullptr);
    t.trimAcked(0x100);
    EXPECT_TRUE(t.empty());
}

TEST(TxMsgTracker, RetainedBytesServeRebuilds)
{
    TxMsgTracker t;
    Bytes payload(300);
    fillDeterministic(payload, 5, 0);
    auto msg = std::make_shared<const Bytes>(std::move(payload));
    t.add(5000, 300, 3, msg);
    const TxMsgTracker::Entry *e = t.find(5100);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->msg, msg) << "the map shares the sent buffer";
    EXPECT_TRUE(checkDeterministic(ByteView(*e->msg).first(100), 5, 0));
    t.trimAcked(5300);
    EXPECT_EQ(msg.use_count(), 1) << "a trim drops the map's reference";
}

// ------------------------------------------------- driver behaviours

TEST(OffloadDriver, StaleResyncResponseIsDropped)
{
    // Covered behaviourally: a response for a speculation the NIC
    // abandoned must not confirm the new speculation. Exercised at
    // the unit level via the public l5o handle.
    sim::RunContext ctx;
    core::Testbed w(ctx);
    std::unique_ptr<tls::TlsSocket> server;
    std::unique_ptr<tls::TlsSocket> client;
    w.b.stack().listen(443, {}, [&](tcp::TcpConnection &c) {
        tls::TlsConfig scfg;
        scfg.rxOffload = true;
        server = std::make_unique<tls::TlsSocket>(
            c, tls::SessionKeys::derive(1, false), scfg);
        server->enableOffload(w.b.device());
    });
    tcp::TcpConnection &c =
        w.a.stack().connect(core::Testbed::kIpA,
                            core::Testbed::kIpB, 443, {});
    c.setOnConnected([&] {
        client = std::make_unique<tls::TlsSocket>(
            c, tls::SessionKeys::derive(1, true), tls::TlsConfig{});
    });
    w.sim.runUntil(10 * sim::kMillisecond);
    ASSERT_NE(server, nullptr);

    // No speculation pending: an unsolicited response is ignored.
    server->offload()->resyncRxResp(12345, true, 99);
    EXPECT_EQ(server->rxFsmStats()->resyncConfirmed, 0u);
}

TEST(OffloadDriver, TxRecoveryFeedsRebuildOverPcie)
{
    net::Link::Config lc;
    lc.dir[0].lossRate = 0.05;
    lc.seed = 3;
    sim::RunContext ctx;
    core::Testbed w(ctx, {.link = lc});

    std::unique_ptr<tls::TlsSocket> server;
    std::unique_ptr<tls::TlsSocket> client;
    uint64_t received = 0;
    bool corrupt = false;
    constexpr uint64_t kSeed = 9;

    w.b.stack().listen(443, {}, [&](tcp::TcpConnection &c) {
        server = std::make_unique<tls::TlsSocket>(
            c, tls::SessionKeys::derive(2, false), tls::TlsConfig{});
        server->setOnReadable([&] {
            while (server->readable()) {
                tcp::RxSegment seg = server->pop();
                if (!checkDeterministic(seg.data, kSeed, seg.streamOff))
                    corrupt = true;
                received += seg.data.size();
            }
        });
    });
    tcp::TcpConnection &c =
        w.a.stack().connect(core::Testbed::kIpA,
                            core::Testbed::kIpB, 443, {});
    uint64_t sent = 0;
    constexpr uint64_t kTotal = 1 << 20;
    c.setOnConnected([&] {
        tls::TlsConfig ccfg;
        ccfg.txOffload = true;
        client = std::make_unique<tls::TlsSocket>(
            c, tls::SessionKeys::derive(2, true), ccfg);
        client->enableOffload(w.a.device());
        auto pump = [&] {
            while (sent < kTotal) {
                size_t n = std::min<uint64_t>(kTotal - sent, 32768);
                Bytes b(n);
                fillDeterministic(b, kSeed, sent);
                size_t acc = client->send(b);
                sent += acc;
                if (acc < n)
                    break;
            }
        };
        client->setOnWritable(pump);
        pump();
    });

    w.sim.runUntil(5 * sim::kSecond);
    EXPECT_EQ(received, kTotal);
    EXPECT_FALSE(corrupt);

    // Every tx resync DMA-read a rebuild prefix, and each one came from
    // exactly one message-state upcall.
    const nic::NicStats &ns = w.a.nicDev().stats();
    EXPECT_GT(ns.txResyncs, 0u);
    EXPECT_GT(w.a.nicDev().pcie().ctxRecoveryBytes, 0u);
    EXPECT_EQ(client->stats().txMsgStateUpcalls, ns.txResyncs);
}

// ------------------------------------------------------------ teardown

TEST(Testbed, TeardownMidTransferReleasesEveryPacket)
{
    // Packets in flight sit in a sim event (serializing on a's NIC),
    // on the link and, pinned by zero-copy segments, in an unread
    // socket buffer. Destroying the testbed must release all of them
    // before the pool's destructor asserts liveCount == 0.
    sim::RunContext ctx;
    auto w = std::make_unique<core::Testbed>(ctx);
    tcp::TcpConnection *server = nullptr;
    w->b.stack().listen(80, {}, [&](tcp::TcpConnection &c) { server = &c; });
    tcp::TcpConnection &c = w->a.stack().connect(
        core::Testbed::kIpA, core::Testbed::kIpB, 80, {});
    Bytes data(1 << 20);
    fillDeterministic(data, 4, 0);
    c.setOnConnected([&] { c.send(data); });

    auto inFlight = [&] {
        const net::LinkStats &ls = w->link.stats(0);
        return server != nullptr && server->readable() &&
               w->a.nicDev().stats().pktsTx.value() > ls.sent &&
               ls.delivered > w->b.nicDev().stats().pktsRx.value();
    };
    while (!inFlight() && w->sim.now() < sim::kMillisecond)
        w->sim.runFor(100 * sim::kNanosecond);
    ASSERT_TRUE(inFlight());
    EXPECT_GT(w->pool.liveCount(), 0u);
    w.reset();
}

TEST(NodeDeathTest, MissingPoolRegistryOrTracePanicsNamingTheField)
{
    // A node takes all three from its world; none falls back to
    // thread-local state.
    sim::RunContext ctx;
    net::PacketPool pool;
    sim::Simulator sim;
    auto bound = [&] {
        core::Node::Config c;
        c.bindRun(ctx);
        c.pool = &pool;
        return c;
    };
    core::Node::Config noPool = bound();
    noPool.pool = nullptr;
    EXPECT_DEATH(core::Node(sim, noPool), "Node::Config::pool is null");
    core::Node::Config noRegistry = bound();
    noRegistry.registry = nullptr;
    EXPECT_DEATH(core::Node(sim, noRegistry),
                 "Node::Config::registry is null");
    core::Node::Config noTrace = bound();
    noTrace.trace = nullptr;
    EXPECT_DEATH(core::Node(sim, noTrace), "Node::Config::trace is null");
}

} // namespace
} // namespace anic
