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

// ----------------------------------------------------------- send queue

/** A message holding stream bytes [off, off + n) of seed 91. */
SharedBytes
streamPart(uint64_t off, size_t n)
{
    Bytes b(n);
    fillDeterministic(b, 91, off);
    return std::make_shared<const Bytes>(std::move(b));
}

/** Whether gather(relOff) of @p n bytes reads the stream right, with
 *  the first @p acked stream bytes popped. */
bool
gathersStream(tcp::SendQueue &q, uint64_t acked, size_t relOff, size_t n)
{
    Bytes out(n);
    q.gather(relOff, out);
    return checkDeterministic(out, 91, acked + relOff);
}

TEST(TcpSendQueue, GathersOneSegmentAcrossTwoPieces)
{
    tcp::SendQueue q(1 << 20);
    SharedBytes a = streamPart(0, 1000);
    EXPECT_EQ(q.push(a, 0), 1000u);
    EXPECT_EQ(q.push(streamPart(1000, 700), 0), 700u);
    EXPECT_EQ(q.pieces(), 2u);
    EXPECT_EQ(q.buffer(0).get(), a.get()); // referenced, not copied
    EXPECT_TRUE(gathersStream(q, 0, 500, 1000));
    EXPECT_TRUE(gathersStream(q, 0, 0, 1700));
}

TEST(TcpSendQueue, GathersOneSegmentAcrossThreePieces)
{
    tcp::SendQueue q(1 << 20);
    q.push(streamPart(0, 1000), 0);
    q.push(streamPart(1000, 700), 0);
    q.push(streamPart(1700, 2500), 0);
    EXPECT_EQ(q.size(), 4200u);
    EXPECT_TRUE(gathersStream(q, 0, 900, 1460)); // 100 + 700 + 660
    EXPECT_TRUE(gathersStream(q, 0, 2360, 1460));
}

TEST(TcpSendQueue, RetransmissionStartsInsideAPartlyAckedPiece)
{
    tcp::SendQueue q(1 << 20);
    q.push(streamPart(0, 1000), 0);
    q.push(streamPart(1000, 700), 0);
    q.push(streamPart(1700, 2500), 0);
    // First transmissions move the gather cursor to the last piece.
    for (size_t off = 0; off < 4200; off += 1460) {
        EXPECT_TRUE(
            gathersStream(q, 0, off, std::min<size_t>(1460, 4200 - off)));
    }

    q.popFront(1200); // ends 200 bytes into the second piece
    EXPECT_EQ(q.pieces(), 2u);
    EXPECT_EQ(q.size(), 3000u);
    EXPECT_TRUE(gathersStream(q, 1200, 0, 1460)); // the retransmission
    EXPECT_TRUE(gathersStream(q, 1200, 1460, 1460));

    q.popFront(500); // releases the second piece exactly
    EXPECT_EQ(q.pieces(), 1u);
    EXPECT_TRUE(gathersStream(q, 1700, 1000, 1500));
    EXPECT_TRUE(gathersStream(q, 1700, 0, 1460));
    q.popFront(2500);
    EXPECT_EQ(q.pieces(), 0u);
    EXPECT_EQ(q.size(), 0u);
}

TEST(TcpSendQueue, PushTakesOnlyWhatFits)
{
    tcp::SendQueue q(3000);
    SharedBytes m = streamPart(0, 5000);
    EXPECT_EQ(q.push(m, 0), 3000u);
    EXPECT_EQ(q.space(), 0u);
    EXPECT_EQ(q.push(m, 3000), 0u);
    q.popFront(2500);
    EXPECT_EQ(q.push(m, 3000), 2000u);
    EXPECT_EQ(q.pieces(), 2u); // both pieces of one message
    EXPECT_TRUE(gathersStream(q, 2500, 0, 2500));
}

TEST(TcpSendQueue, CopyingPushMakesBoundedPieces)
{
    constexpr size_t kMax = tcp::SendQueue::kMaxCopyPiece;
    tcp::SendQueue q(1 << 20);
    Bytes data(2 * kMax + 7232);
    fillDeterministic(data, 91, 0);
    EXPECT_EQ(q.pushCopy(data), data.size());
    ASSERT_EQ(q.pieces(), 3u);
    for (size_t i = 0; i < q.pieces(); i++)
        EXPECT_LE(q.buffer(i)->size(), kMax);
    EXPECT_TRUE(gathersStream(q, 0, kMax - 100, 1460));
    EXPECT_TRUE(gathersStream(q, 0, 0, data.size()));

    tcp::SendQueue small(30000);
    EXPECT_EQ(small.pushCopy(data), 30000u);
    EXPECT_EQ(small.pieces(), 2u);
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

/** Sends totalBytes as msgBytes-sized messages through sendShared(),
 *  resuming a partly accepted message where TCP stopped. */
struct SharedSender
{
    uint64_t seed;
    uint64_t total;
    size_t msgBytes;
    bool closeWhenDone = false;
    uint64_t sent = 0;
    SharedBytes msg = nullptr; ///< the message being sent
    size_t msgOff = 0;
    size_t firstAccepted = 0;

    void
    pump(tcp::StreamSocket &s)
    {
        while (sent < total) {
            if (msg == nullptr) {
                Bytes b(std::min<uint64_t>(msgBytes, total - sent));
                fillDeterministic(b, seed, sent);
                msg = std::make_shared<const Bytes>(std::move(b));
                msgOff = 0;
            }
            size_t acc = s.sendShared(msg, msgOff);
            if (sent == 0)
                firstAccepted = acc;
            msgOff += acc;
            sent += acc;
            if (msgOff < msg->size())
                return; // resumes on writable
            msg = nullptr;
        }
        if (closeWhenDone)
            s.close();
    }

    void
    attach(tcp::StreamSocket &s)
    {
        s.setOnWritable([this, &s] { pump(s); });
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
    w.stackA = w.makeStack(cores, 1);
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
    w.stackA = w.makeStack(cores, 1);
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
        stack = w.makeStack(cores, side + 1);
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

TEST(TcpSendShared, PartlyAcceptedAtAFullQueueThenTheRest)
{
    TwoHostWorld w;
    TcpConnection::Config ccfg;
    ccfg.sndBufSize = 8192;
    BulkReceiver rx{61};
    SharedSender tx{61, 50000, 50000};
    w.stackB->listen(80, {}, [&](TcpConnection &c) { rx.attach(c); });
    TcpConnection &c = w.stackA->connect(TwoHostWorld::kIpA,
                                         TwoHostWorld::kIpB, 80, ccfg);
    tx.attach(c);
    c.setOnConnected([&] {
        c.core().post([&] {
            tx.pump(c);
            // Only the first 8 KiB fit, as a reference to the message.
            EXPECT_EQ(tx.firstAccepted, 8192u);
            EXPECT_EQ(c.sendQueue().pieces(), 1u);
            EXPECT_EQ(c.sendQueue().buffer(0).get(), tx.msg.get());
        });
    });
    w.sim.runUntil(500 * sim::kMillisecond);
    EXPECT_EQ(tx.sent, 50000u);
    EXPECT_EQ(rx.received, 50000u);
    EXPECT_FALSE(rx.corrupt);
    EXPECT_EQ(c.sendQueue().pieces(), 0u);
}

TEST(TcpSendShared, FinFollowsReferencedData)
{
    TwoHostWorld w;
    BulkReceiver rx{62};
    SharedSender tx{62, 30000, 30000};
    tx.closeWhenDone = true;
    w.stackB->listen(80, {}, [&](TcpConnection &c) { rx.attach(c); });
    TcpConnection &c =
        w.stackA->connect(TwoHostWorld::kIpA, TwoHostWorld::kIpB, 80, {});
    c.setOnConnected([&] {
        c.core().post([&] {
            tx.pump(c); // the whole message, then the FIN
            EXPECT_EQ(tx.sent, 30000u);
        });
    });
    w.sim.runUntil(10 * sim::kMillisecond);
    EXPECT_EQ(rx.received, 30000u);
    EXPECT_FALSE(rx.corrupt);
    EXPECT_TRUE(rx.peerClosed);
    // The FIN was acked too, and nothing still pins the message.
    EXPECT_EQ(c.state(), TcpConnection::State::FinWait2);
    EXPECT_EQ(c.sendQueue().size(), 0u);
    EXPECT_EQ(c.sendQueue().pieces(), 0u);
}

TEST(TcpSendShared, LossyLinkDeliversOddSizedMessagesExactly)
{
    // Messages of 5003 bytes against 1460-byte segments: acks end
    // inside pieces, and retransmissions start inside them.
    net::Link::Config lc;
    lc.dir[0].lossRate = 0.02;
    lc.dir[0].reorderRate = 0.01;
    lc.dir[1].lossRate = 0.01;
    lc.seed = 63;
    TwoHostWorld w(lc);
    BulkReceiver rx{63};
    SharedSender tx{63, 1 << 20, 5003};
    tx.closeWhenDone = true;
    w.stackB->listen(80, {}, [&](TcpConnection &c) { rx.attach(c); });
    TcpConnection &c =
        w.stackA->connect(TwoHostWorld::kIpA, TwoHostWorld::kIpB, 80, {});
    tx.attach(c);
    c.setOnConnected([&] { c.core().post([&] { tx.pump(c); }); });
    w.sim.runUntil(5 * sim::kSecond);
    EXPECT_EQ(rx.received, 1u << 20);
    EXPECT_FALSE(rx.corrupt);
    EXPECT_TRUE(rx.peerClosed);
    EXPECT_GT(c.stats().retransmits, 0u);
    EXPECT_EQ(c.sendQueue().pieces(), 0u);
}

TEST(TcpBulk, LargeCopyingSendIsSplitIntoPieces)
{
    constexpr size_t kLen = 100000;
    TwoHostWorld w;
    BulkReceiver rx{64};
    w.stackB->listen(80, {}, [&](TcpConnection &c) { rx.attach(c); });
    TcpConnection &c =
        w.stackA->connect(TwoHostWorld::kIpA, TwoHostWorld::kIpB, 80, {});
    c.setOnConnected([&] {
        c.core().post([&] {
            Bytes b(kLen);
            fillDeterministic(b, 64, 0);
            EXPECT_EQ(c.send(b), kLen);
            // ceil(100000 / 16 KiB) pieces, none acked yet.
            EXPECT_EQ(c.sendQueue().pieces(), 7u);
        });
    });
    w.sim.runUntil(100 * sim::kMillisecond);
    EXPECT_EQ(rx.received, kLen);
    EXPECT_FALSE(rx.corrupt);
    EXPECT_EQ(c.sendQueue().pieces(), 0u);
}

TEST(TcpStackDeathTest, NullPoolOrTracePanicsNamingTheArgument)
{
    TwoHostWorld w;
    std::vector<host::Core *> cores{w.coresA[0].get()};
    EXPECT_DEATH(tcp::TcpStack(w.sim, cores, 1, nullptr, &w.run.trace()),
                 "TcpStack pool is null");
    EXPECT_DEATH(tcp::TcpStack(w.sim, cores, 1, &w.pool, nullptr),
                 "TcpStack trace is null");
}

} // namespace
} // namespace anic
