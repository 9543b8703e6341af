/**
 * @file
 * TCP substrate tests: handshake, bulk transfer, loss/reorder/
 * duplication recovery, flow control, congestion control, teardown,
 * and metadata-preserving reassembly.
 */

#include <gtest/gtest.h>

#include "support/test_net.hh"
#include "tcp/seq.hh"

namespace anic {
namespace {

using testing::TwoHostWorld;
using tcp::TcpConnection;

// ------------------------------------------------------------- seq math

TEST(SeqMath, WrapAroundComparisons)
{
    EXPECT_TRUE(tcp::seqLt(0xfffffff0u, 0x10u));
    EXPECT_TRUE(tcp::seqGt(0x10u, 0xfffffff0u));
    EXPECT_TRUE(tcp::seqLeq(5u, 5u));
    EXPECT_TRUE(tcp::seqGeq(5u, 5u));
    EXPECT_EQ(tcp::seqDiff(0x10u, 0xfffffff0u), 0x20u);
    EXPECT_EQ(tcp::seqMax(0xfffffff0u, 0x10u), 0x10u);
    EXPECT_EQ(tcp::seqMin(0xfffffff0u, 0x10u), 0xfffffff0u);
}

// ------------------------------------------------------ test application

/** Sends a deterministic byte stream and verifies it at the sink. */
struct BulkReceiver
{
    uint64_t seed;
    uint64_t received = 0;
    bool corrupt = false;
    bool peerClosed = false;

    void
    attach(tcp::StreamSocket &s)
    {
        s.setOnReadable([this, &s] {
            while (s.readable()) {
                tcp::RxSegment seg = s.pop();
                if (!checkDeterministic(seg.data, seed, seg.streamOff))
                    corrupt = true;
                received += seg.data.size();
            }
        });
        s.setOnPeerClosed([this] { peerClosed = true; });
    }
};

/** Pushes totalBytes of deterministic content through a socket. */
struct BulkSender
{
    uint64_t seed;
    uint64_t total;
    uint64_t sent = 0;
    bool closeWhenDone = false;

    void
    attach(tcp::StreamSocket &s)
    {
        auto pushMore = [this, &s] {
            while (sent < total && s.sendSpace() > 0) {
                size_t n = std::min<uint64_t>(s.sendSpace(),
                                              std::min<uint64_t>(
                                                  total - sent, 65536));
                Bytes chunk(n);
                fillDeterministic(chunk, seed, sent);
                size_t accepted = s.send(chunk);
                sent += accepted;
                if (accepted < n)
                    break;
            }
            if (sent >= total && closeWhenDone)
                s.close();
        };
        s.setOnWritable(pushMore);
    }

    void
    start(tcp::StreamSocket &s)
    {
        s.core().post([this, &s] {
            // Kick the first write from a core work item.
            while (sent < total && s.sendSpace() > 0) {
                size_t n = std::min<uint64_t>(
                    s.sendSpace(), std::min<uint64_t>(total - sent, 65536));
                Bytes chunk(n);
                fillDeterministic(chunk, seed, sent);
                size_t accepted = s.send(chunk);
                sent += accepted;
                if (accepted == 0)
                    break;
            }
            if (sent >= total && closeWhenDone)
                s.close();
        });
    }
};

/** Runs a one-direction bulk transfer over the given link config. */
struct BulkResult
{
    uint64_t received;
    bool corrupt;
    tcp::TcpStats clientStats;
    bool peerClosed;
};

BulkResult
runBulk(net::Link::Config linkCfg, uint64_t bytes, sim::Tick horizon,
        bool closeWhenDone = true, TcpConnection::Config ccfg = {})
{
    TwoHostWorld w(linkCfg);
    BulkReceiver rx{/*seed=*/77};
    BulkSender tx{/*seed=*/77, bytes};
    tx.closeWhenDone = closeWhenDone;

    w.stackB->listen(8080, ccfg, [&](TcpConnection &c) { rx.attach(c); });
    TcpConnection &client =
        w.stackA->connect(TwoHostWorld::kIpA, TwoHostWorld::kIpB, 8080, ccfg);
    tx.attach(client);
    client.setOnConnected([&] { tx.start(client); });

    w.sim.runUntil(horizon);
    return BulkResult{rx.received, rx.corrupt, client.stats(), rx.peerClosed};
}

// ---------------------------------------------------------------- tests

TEST(TcpHandshake, EstablishesAndAcceptsData)
{
    TwoHostWorld w;
    bool serverGotConn = false;
    w.stackB->listen(80, {}, [&](TcpConnection &) { serverGotConn = true; });

    TcpConnection &c =
        w.stackA->connect(TwoHostWorld::kIpA, TwoHostWorld::kIpB, 80, {});
    bool connected = false;
    c.setOnConnected([&] { connected = true; });

    w.sim.runUntil(10 * sim::kMillisecond);
    EXPECT_TRUE(connected);
    EXPECT_TRUE(serverGotConn);
    EXPECT_EQ(c.state(), TcpConnection::State::Established);
    EXPECT_EQ(w.stackB->connectionCount(), 1u);
}

TEST(TcpHandshake, SynLossRecoversByRetransmission)
{
    net::Link::Config cfg;
    cfg.dir[0].lossRate = 1.0; // drop the first SYN...
    TwoHostWorld w(cfg);
    w.stackB->listen(80, {}, [](TcpConnection &) {});
    TcpConnection &c =
        w.stackA->connect(TwoHostWorld::kIpA, TwoHostWorld::kIpB, 80, {});
    bool connected = false;
    c.setOnConnected([&] { connected = true; });

    w.sim.runUntil(5 * sim::kMillisecond);
    EXPECT_FALSE(connected);
    w.link.setImpairments(0, {}); // ...then heal the link
    w.sim.runUntil(200 * sim::kMillisecond);
    EXPECT_TRUE(connected);
}

TEST(TcpBulk, CleanLinkDeliversExactly)
{
    BulkResult r = runBulk({}, 4 << 20, 2 * sim::kSecond);
    EXPECT_EQ(r.received, 4u << 20);
    EXPECT_FALSE(r.corrupt);
    EXPECT_EQ(r.clientStats.retransmits, 0u);
    EXPECT_TRUE(r.peerClosed);
}

TEST(TcpBulk, SmallWritesAreCoalescedIntoStream)
{
    TwoHostWorld w;
    BulkReceiver rx{5};
    w.stackB->listen(80, {}, [&](TcpConnection &c) { rx.attach(c); });
    TcpConnection &c =
        w.stackA->connect(TwoHostWorld::kIpA, TwoHostWorld::kIpB, 80, {});
    c.setOnConnected([&] {
        c.core().post([&] {
            uint64_t off = 0;
            for (int i = 0; i < 100; i++) {
                Bytes b(37);
                fillDeterministic(b, 5, off);
                ASSERT_EQ(c.send(b), b.size());
                off += b.size();
            }
        });
    });
    w.sim.runUntil(100 * sim::kMillisecond);
    EXPECT_EQ(rx.received, 3700u);
    EXPECT_FALSE(rx.corrupt);
}

TEST(TcpBulk, LossyLinkRecovers)
{
    net::Link::Config cfg;
    cfg.dir[0].lossRate = 0.02;
    cfg.seed = 42;
    BulkResult r = runBulk(cfg, 2 << 20, 5 * sim::kSecond);
    EXPECT_EQ(r.received, 2u << 20);
    EXPECT_FALSE(r.corrupt);
    EXPECT_GT(r.clientStats.retransmits, 0u);
}

TEST(TcpBulk, HeavyLossStillCompletes)
{
    net::Link::Config cfg;
    cfg.dir[0].lossRate = 0.10;
    cfg.dir[1].lossRate = 0.05; // acks too
    cfg.seed = 43;
    BulkResult r = runBulk(cfg, 256 << 10, 20 * sim::kSecond);
    EXPECT_EQ(r.received, 256u << 10);
    EXPECT_FALSE(r.corrupt);
}

TEST(TcpBulk, ReorderingLinkRecovers)
{
    net::Link::Config cfg;
    cfg.dir[0].reorderRate = 0.05;
    cfg.seed = 44;
    BulkResult r = runBulk(cfg, 2 << 20, 5 * sim::kSecond);
    EXPECT_EQ(r.received, 2u << 20);
    EXPECT_FALSE(r.corrupt);
}

TEST(TcpBulk, DuplicationIsHarmless)
{
    net::Link::Config cfg;
    cfg.dir[0].duplicateRate = 0.05;
    cfg.dir[1].duplicateRate = 0.05;
    cfg.seed = 45;
    BulkResult r = runBulk(cfg, 1 << 20, 5 * sim::kSecond);
    EXPECT_EQ(r.received, 1u << 20);
    EXPECT_FALSE(r.corrupt);
}

TEST(TcpBulk, CombinedImpairments)
{
    net::Link::Config cfg;
    cfg.dir[0].lossRate = 0.02;
    cfg.dir[0].reorderRate = 0.02;
    cfg.dir[0].duplicateRate = 0.01;
    cfg.seed = 46;
    BulkResult r = runBulk(cfg, 1 << 20, 10 * sim::kSecond);
    EXPECT_EQ(r.received, 1u << 20);
    EXPECT_FALSE(r.corrupt);
}

TEST(TcpBulk, ThroughputIsCpuBoundNotTrivial)
{
    // One core at 2 GHz should push multiple Gbps but cannot exceed
    // the line; sanity-check the cycle accounting plumbing.
    TwoHostWorld w;
    BulkReceiver rx{9};
    BulkSender tx{9, 1ull << 30};
    w.stackB->listen(80, {}, [&](TcpConnection &c) { rx.attach(c); });
    TcpConnection &c =
        w.stackA->connect(TwoHostWorld::kIpA, TwoHostWorld::kIpB, 80, {});
    tx.attach(c);
    c.setOnConnected([&] { tx.start(c); });
    w.sim.runUntil(50 * sim::kMillisecond);

    double gbps = static_cast<double>(rx.received) * 8 /
                  sim::ticksToSeconds(w.sim.now()) / 1e9;
    EXPECT_GT(gbps, 2.0);
    EXPECT_LT(gbps, 100.0);
    EXPECT_GT(w.coresA[0]->totalBusyTicks(), 0u);
    EXPECT_GT(w.coresB[0]->totalBusyTicks(), 0u);
}

TEST(TcpFlowControl, SlowReaderThrottlesSender)
{
    TwoHostWorld w;
    TcpConnection::Config ccfg;
    ccfg.rcvBufSize = 64 << 10;

    tcp::StreamSocket *serverSock = nullptr;
    w.stackB->listen(80, ccfg,
                     [&](TcpConnection &c) { serverSock = &c; });

    BulkSender tx{3, 4 << 20};
    TcpConnection &c =
        w.stackA->connect(TwoHostWorld::kIpA, TwoHostWorld::kIpB, 80, ccfg);
    tx.attach(c);
    c.setOnConnected([&] { tx.start(c); });

    // Reader never pops: sender must stall at ~the receive window.
    w.sim.runUntil(200 * sim::kMillisecond);
    ASSERT_NE(serverSock, nullptr);
    TcpConnection *sc = static_cast<TcpConnection *>(serverSock);
    // Window advertisement lags in-flight data by up to an RTT, so a
    // small overrun past the nominal buffer is expected (real stacks
    // absorb it in rcvbuf slack too).
    EXPECT_LE(sc->rxQueuedBytes(), ccfg.rcvBufSize + 4 * 1460);
    EXPECT_LT(tx.sent, 4u << 20);

    // Now drain; transfer must resume and complete.
    uint64_t drained = 0;
    bool corrupt = false;
    serverSock->setOnReadable([&] {
        while (serverSock->readable()) {
            tcp::RxSegment seg = serverSock->pop();
            if (!checkDeterministic(seg.data, 3, seg.streamOff))
                corrupt = true;
            drained += seg.data.size();
        }
    });
    serverSock->core().post([&] {
        while (serverSock->readable()) {
            tcp::RxSegment seg = serverSock->pop();
            if (!checkDeterministic(seg.data, 3, seg.streamOff))
                corrupt = true;
            drained += seg.data.size();
        }
    });
    w.sim.runUntil(5 * sim::kSecond);
    EXPECT_EQ(drained, 4u << 20);
    EXPECT_FALSE(corrupt);
}

TEST(TcpTeardown, BothSidesClose)
{
    TwoHostWorld w;
    TcpConnection *server = nullptr;
    w.stackB->listen(80, {}, [&](TcpConnection &c) {
        server = &c;
        c.setOnPeerClosed([&c] { c.close(); });
    });
    TcpConnection &client =
        w.stackA->connect(TwoHostWorld::kIpA, TwoHostWorld::kIpB, 80, {});
    bool clientSawClose = false;
    client.setOnPeerClosed([&] { clientSawClose = true; });
    client.setOnConnected([&] {
        client.core().post([&] {
            Bytes b(1000, 0xab);
            client.send(b);
            client.close();
        });
    });

    w.sim.runUntil(2 * sim::kSecond);
    ASSERT_NE(server, nullptr);
    EXPECT_TRUE(clientSawClose);
    EXPECT_EQ(client.state(), TcpConnection::State::Closed);
    EXPECT_EQ(server->state(), TcpConnection::State::Closed);
}

TEST(TcpCongestion, CwndGrowsFromInitial)
{
    TwoHostWorld w;
    BulkReceiver rx{8};
    BulkSender tx{8, 64 << 20};
    w.stackB->listen(80, {}, [&](TcpConnection &c) { rx.attach(c); });
    TcpConnection &c =
        w.stackA->connect(TwoHostWorld::kIpA, TwoHostWorld::kIpB, 80, {});
    tx.attach(c);
    c.setOnConnected([&] { tx.start(c); });
    w.sim.runUntil(50 * sim::kMillisecond);
    EXPECT_GT(c.cwndBytes(), 10u * 1460u);
}

TEST(TcpCongestion, LossShrinksCwnd)
{
    net::Link::Config cfg;
    cfg.dir[0].lossRate = 0.05;
    cfg.seed = 77;
    TwoHostWorld w(cfg);
    BulkReceiver rx{8};
    BulkSender tx{8, 64 << 20};
    w.stackB->listen(80, {}, [&](TcpConnection &c) { rx.attach(c); });
    TcpConnection &c =
        w.stackA->connect(TwoHostWorld::kIpA, TwoHostWorld::kIpB, 80, {});
    tx.attach(c);
    c.setOnConnected([&] { tx.start(c); });
    w.sim.runUntil(300 * sim::kMillisecond);
    EXPECT_GT(c.stats().fastRetransmits + c.stats().rtoFires, 0u);
    EXPECT_LT(c.cwndBytes(), c.config().maxCwndSegs * c.config().mss);
}

TEST(TcpBackpressure, TinyTxRingStillDeliversEverything)
{
    TwoHostWorld w;
    // Rebuild device A with a 8-descriptor ring.
    w.devA = std::make_unique<testing::SimpleDevice>(
        w.sim, w.link, 0, TwoHostWorld::kIpA, 100.0, /*txRing=*/8);
    auto cores = std::vector<host::Core *>{w.coresA[0].get()};
    w.stackA = std::make_unique<tcp::TcpStack>(w.sim, cores, 1);
    w.stackA->addDevice(w.devA.get());
    w.devA->attachStack(w.stackA.get());

    BulkReceiver rx{6};
    BulkSender tx{6, 8 << 20};
    w.stackB->listen(80, {}, [&](TcpConnection &c) { rx.attach(c); });
    TcpConnection &c =
        w.stackA->connect(TwoHostWorld::kIpA, TwoHostWorld::kIpB, 80, {});
    tx.attach(c);
    c.setOnConnected([&] { tx.start(c); });
    w.sim.runUntil(3 * sim::kSecond);
    EXPECT_EQ(rx.received, 8u << 20);
    EXPECT_FALSE(rx.corrupt);
}

TEST(TcpBackpressure, DestroyWhileTxBlockedIsSafe)
{
    // Regression for the blocked-writer queue: a connection waiting
    // for tx-ring space is linked on TcpStack::blocked_; destroying it
    // must unlink it, or the next tx-space wakeup walks a dangling
    // pointer. Two bulk streams share a tiny, slow ring so both are
    // persistently blocked; one is destroyed mid-flight and the other
    // must still finish.
    TwoHostWorld w({}, /*coresPerHost=*/1, /*gbps=*/0.1);
    w.devA = std::make_unique<testing::SimpleDevice>(
        w.sim, w.link, 0, TwoHostWorld::kIpA, 0.1, /*txRing=*/2);
    auto cores = std::vector<host::Core *>{w.coresA[0].get()};
    w.stackA = std::make_unique<tcp::TcpStack>(w.sim, cores, 1);
    w.stackA->addDevice(w.devA.get());
    w.devA->attachStack(w.stackA.get());

    BulkReceiver rx1{31};
    BulkReceiver rx2{32};
    BulkSender tx1{31, 512 << 10};
    BulkSender tx2{32, 64 << 10};
    int accepts = 0;
    w.stackB->listen(80, {}, [&](TcpConnection &c) {
        (accepts++ == 0 ? rx1 : rx2).attach(c);
    });
    TcpConnection &c1 =
        w.stackA->connect(TwoHostWorld::kIpA, TwoHostWorld::kIpB, 80, {});
    tx1.attach(c1);
    c1.setOnConnected([&] { tx1.start(c1); });
    TcpConnection &c2 =
        w.stackA->connect(TwoHostWorld::kIpA, TwoHostWorld::kIpB, 80, {});
    tx2.attach(c2);
    c2.setOnConnected([&] { tx2.start(c2); });

    // Mid-transfer both writers are stalled behind the 2-slot ring.
    w.sim.runUntil(20 * sim::kMillisecond);
    EXPECT_GT(rx1.received, 0u);
    EXPECT_LT(rx1.received, tx1.total);
    w.stackA->destroy(c1); // unlinks from the blocked queue

    w.sim.runUntil(20 * sim::kSecond);
    EXPECT_EQ(rx2.received, tx2.total);
    EXPECT_FALSE(rx2.corrupt);
    EXPECT_EQ(w.stackA->connectionCount(), 1u);
}

TEST(TcpLifetime, DestroyWithTimersArmedIsSafe)
{
    // Regression: the RTO, RTO re-arm and delayed-ACK closures read the
    // connection (its core, its timer generation) before knowing it was
    // alive, so a timer firing after destroy() read a dead object
    // (UBSan: invalid vptr; ASan: the freed slab slot is poisoned).
    // Destroy a connection with both timers armed and run past both
    // deadlines before anything can reuse its slot.
    TwoHostWorld w;
    TcpConnection *peer = nullptr;
    w.stackB->listen(80, {}, [&](TcpConnection &c) { peer = &c; });
    TcpConnection &c =
        w.stackA->connect(TwoHostWorld::kIpA, TwoHostWorld::kIpB, 80, {});
    w.sim.runUntil(10 * sim::kMillisecond);
    ASSERT_NE(peer, nullptr);
    ASSERT_EQ(c.state(), TcpConnection::State::Established);

    Bytes msg(100, 0x5a);
    peer->send(msg); // one segment: the delayed ACK arms on arrival
    w.sim.runFor(100 * sim::kMicrosecond);
    c.send(msg); // unacked data: the RTO arms
    w.stackA->destroy(c);
    w.sim.runFor(sim::kSecond);
    EXPECT_EQ(w.stackA->connectionCount(), 0u);

    // The stack still works, including on the recycled slot.
    BulkReceiver rx{41};
    BulkSender tx{41, 256 << 10};
    w.stackB->listen(81, {}, [&](TcpConnection &c2) { rx.attach(c2); });
    TcpConnection &c2 =
        w.stackA->connect(TwoHostWorld::kIpA, TwoHostWorld::kIpB, 81, {});
    tx.attach(c2);
    c2.setOnConnected([&] { tx.start(c2); });
    w.sim.runFor(2 * sim::kSecond);
    EXPECT_EQ(rx.received, tx.total);
    EXPECT_FALSE(rx.corrupt);
}

TEST(TcpBackpressure, TinyRingsBothSidesEchoCompletes)
{
    // Tiny rings on BOTH hosts: data and the acks flowing back both
    // bounce off full rings, so the receiver's ack path registers on
    // the blocked queue over and over (the dedupe case — without the
    // once-per-stall guard the queue grows by one entry per bounced
    // ack and wakeups go quadratic).
    TwoHostWorld w;
    for (int side = 0; side < 2; side++) {
        auto &dev = side == 0 ? w.devA : w.devB;
        auto &stack = side == 0 ? w.stackA : w.stackB;
        auto &coresV = side == 0 ? w.coresA : w.coresB;
        dev = std::make_unique<testing::SimpleDevice>(
            w.sim, w.link, side,
            side == 0 ? TwoHostWorld::kIpA : TwoHostWorld::kIpB, 100.0,
            /*txRing=*/4);
        auto cores = std::vector<host::Core *>{coresV[0].get()};
        stack = std::make_unique<tcp::TcpStack>(w.sim, cores, side + 1);
        stack->addDevice(dev.get());
        dev->attachStack(stack.get());
    }

    uint64_t echoed = 0;
    bool corrupt = false;
    w.stackB->listen(80, {}, [&](TcpConnection &c) {
        c.setOnReadable([&c] {
            while (c.readable()) {
                tcp::RxSegment seg = c.pop();
                c.send(seg.data); // echo through the tiny ring
            }
        });
    });
    TcpConnection &client =
        w.stackA->connect(TwoHostWorld::kIpA, TwoHostWorld::kIpB, 80, {});
    client.setOnReadable([&] {
        while (client.readable()) {
            tcp::RxSegment seg = client.pop();
            if (!checkDeterministic(seg.data, 33, seg.streamOff))
                corrupt = true;
            echoed += seg.data.size();
        }
    });
    BulkSender tx{33, 2 << 20};
    tx.attach(client);
    client.setOnConnected([&] { tx.start(client); });

    w.sim.runUntil(10 * sim::kSecond);
    EXPECT_EQ(echoed, 2u << 20);
    EXPECT_FALSE(corrupt);
}

TEST(TcpBidirectional, EchoWorksBothWays)
{
    TwoHostWorld w;
    uint64_t echoed = 0;
    bool corrupt = false;

    w.stackB->listen(80, {}, [&](TcpConnection &c) {
        c.setOnReadable([&c] {
            while (c.readable()) {
                tcp::RxSegment seg = c.pop();
                c.send(seg.data); // echo
            }
        });
    });

    TcpConnection &client =
        w.stackA->connect(TwoHostWorld::kIpA, TwoHostWorld::kIpB, 80, {});
    client.setOnReadable([&] {
        while (client.readable()) {
            tcp::RxSegment seg = client.pop();
            if (!checkDeterministic(seg.data, 21, seg.streamOff))
                corrupt = true;
            echoed += seg.data.size();
        }
    });
    client.setOnConnected([&] {
        client.core().post([&] {
            Bytes b(200000);
            fillDeterministic(b, 21, 0);
            size_t sent = client.send(b);
            ASSERT_EQ(sent, b.size());
        });
    });

    w.sim.runUntil(1 * sim::kSecond);
    EXPECT_EQ(echoed, 200000u);
    EXPECT_FALSE(corrupt);
}

TEST(TcpStack, ManyConcurrentConnections)
{
    TwoHostWorld w({}, /*coresPerHost=*/4);
    const int kConns = 50;
    const uint64_t kBytes = 100000;

    std::vector<std::unique_ptr<BulkReceiver>> rxs;
    std::vector<std::unique_ptr<BulkSender>> txs;
    w.stackB->listen(80, {}, [&](TcpConnection &c) {
        auto r = std::make_unique<BulkReceiver>();
        r->seed = 1000 + w.stackB->connectionCount();
        // Seed must match sender; use port to correlate instead.
        r->seed = c.localFlow().dstPort;
        r->attach(c);
        rxs.push_back(std::move(r));
    });

    for (int i = 0; i < kConns; i++) {
        TcpConnection &c = w.stackA->connect(TwoHostWorld::kIpA,
                                             TwoHostWorld::kIpB, 80, {});
        auto t = std::make_unique<BulkSender>();
        t->seed = c.localFlow().srcPort;
        t->total = kBytes;
        t->attach(c);
        TcpConnection *cp = &c;
        BulkSender *tp = t.get();
        c.setOnConnected([tp, cp] { tp->start(*cp); });
        txs.push_back(std::move(t));
    }

    w.sim.runUntil(2 * sim::kSecond);
    ASSERT_EQ(rxs.size(), static_cast<size_t>(kConns));
    uint64_t total = 0;
    for (auto &r : rxs) {
        EXPECT_FALSE(r->corrupt);
        total += r->received;
    }
    EXPECT_EQ(total, kConns * kBytes);
}

TEST(TcpStack, UnknownPacketsAreDropped)
{
    TwoHostWorld w;
    // Connect to a port nobody listens on: SYN is dropped, no crash.
    TcpConnection &c =
        w.stackA->connect(TwoHostWorld::kIpA, TwoHostWorld::kIpB, 9999, {});
    w.sim.runUntil(50 * sim::kMillisecond);
    EXPECT_EQ(c.state(), TcpConnection::State::SynSent);
    EXPECT_GT(w.stackB->droppedInputs(), 0u);
}

TEST(TcpMeta, SegmentsPreserveStreamOffsets)
{
    TwoHostWorld w;
    std::vector<tcp::RxSegment> segs;
    w.stackB->listen(80, {}, [&](TcpConnection &c) {
        c.setOnReadable([&segs, &c] {
            while (c.readable())
                segs.push_back(c.pop());
        });
    });
    TcpConnection &c =
        w.stackA->connect(TwoHostWorld::kIpA, TwoHostWorld::kIpB, 80, {});
    c.setOnConnected([&] {
        c.core().post([&] {
            Bytes b(10000);
            fillDeterministic(b, 1, 0);
            c.send(b);
        });
    });
    w.sim.runUntil(100 * sim::kMillisecond);

    uint64_t expect = 0;
    for (const auto &s : segs) {
        EXPECT_EQ(s.streamOff, expect);
        expect += s.data.size();
    }
    EXPECT_EQ(expect, 10000u);
}

} // namespace
} // namespace anic
