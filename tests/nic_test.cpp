/**
 * @file
 * NIC device-model tests: line-rate serialization, tx-ring
 * backpressure, context cache LRU + PCIe accounting, context
 * lifecycle, and tx offload processing order with in-ring resync
 * descriptors.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>

#include "net/packet_pool.hh"
#include "support/alloc_counter.hh"
#include "nic/nic.hh"
#include "tls/tls_engine.hh"

namespace anic::nic {
namespace {

net::PacketPtr
mkPkt(net::IpAddr src, net::IpAddr dst, uint32_t seq, size_t payloadLen,
      uint64_t txCtx = 0)
{
    net::Ipv4Header ip;
    ip.src = src;
    ip.dst = dst;
    net::TcpHeader tcp;
    tcp.srcPort = 1;
    tcp.dstPort = 2;
    tcp.seq = seq;
    Bytes payload(payloadLen, 0xab);
    auto p = net::PacketPool::threadDefault().make(ip, tcp, payload);
    p->txCtx = txCtx;
    return p;
}

struct NicWorld
{
    sim::Simulator sim;
    net::Link link;
    Nic nicA;
    std::vector<net::PacketPtr> atB;

    explicit NicWorld(Nic::Config cfg = {})
        : link(sim, {}), nicA(sim, link, 0, cfg)
    {
        link.attach(1, [this](net::PacketPtr p) { atB.push_back(p); });
    }
};

TEST(NicDevice, SerializesAtLineRate)
{
    Nic::Config cfg;
    cfg.gbps = 10.0; // slow so serialization dominates
    cfg.txLatency = 0;
    NicWorld w(cfg);

    // Two 10000-byte packets: second leaves one serialization later.
    w.nicA.transmit(mkPkt(1, 2, 0, 10000));
    w.nicA.transmit(mkPkt(1, 2, 10000, 10000));
    w.sim.run();
    ASSERT_EQ(w.atB.size(), 2u);
    EXPECT_EQ(w.nicA.stats().pktsTx, 2u);
    // 10040 wire bytes at 10 Gbps ~ 8.03 us each; link prop 2 us.
    double total_s = sim::ticksToSeconds(w.sim.now());
    EXPECT_NEAR(total_s, 2 * 8.03e-6 + 2e-6, 1e-6);
}

TEST(NicDevice, TxRingBackpressure)
{
    Nic::Config cfg;
    cfg.txRingSize = 4;
    cfg.gbps = 1.0;
    NicWorld w(cfg);
    int space_events = 0;
    w.nicA.setOnTxSpace([&] { space_events++; });

    int accepted = 0;
    for (int i = 0; i < 10; i++)
        accepted += w.nicA.transmit(mkPkt(1, 2, i * 100, 100)) ? 1 : 0;
    EXPECT_EQ(accepted, 4);
    w.sim.run();
    EXPECT_GT(space_events, 0);
    EXPECT_EQ(w.atB.size(), 4u);
}

TEST(NicDevice, PcieAccountsTxAndRx)
{
    NicWorld w;
    Nic nicB(w.sim, w.link, 1, {}); // replaces the raw handler
    w.nicA.transmit(mkPkt(1, 2, 0, 1000));
    w.sim.run();
    EXPECT_EQ(w.nicA.pcie().txDataBytes, 1040u);
    EXPECT_EQ(nicB.pcie().rxDataBytes, 1040u);
    EXPECT_GT(w.nicA.pcie().descriptorBytes, 0u);
}

TEST(NicDevice, ContextCacheLruAndEviction)
{
    Nic::Config cfg;
    cfg.ctxCacheCapacity = 2;
    NicWorld w(cfg);

    tls::DirectionKeys keys;
    keys.key.assign(16, 1);
    keys.staticIv.assign(12, 2);

    uint64_t c1 = w.nicA.createTxContext(
        std::make_unique<tls::TlsTxEngine>(keys), 0, 0);
    uint64_t c2 = w.nicA.createTxContext(
        std::make_unique<tls::TlsTxEngine>(keys), 0, 0);
    uint64_t c3 = w.nicA.createTxContext(
        std::make_unique<tls::TlsTxEngine>(keys), 0, 0);
    (void)c1;
    (void)c2;
    (void)c3;
    // Creation touches each context: c3 evicted c1.
    const NicStats &st = w.nicA.stats();
    EXPECT_EQ(st.ctxCacheMisses, 3u);
    EXPECT_EQ(st.ctxCacheEvictions, 1u);
    EXPECT_EQ(w.nicA.pcie().ctxFetchBytes, 3 * w.nicA.config().ctxBytes);
    EXPECT_EQ(w.nicA.pcie().ctxWritebackBytes, w.nicA.config().ctxBytes);
}

TEST(NicDevice, RegistryMirrorsStatsUnderCacheChurn)
{
    // Fig 19 path: more flows than context-cache slots, so every
    // touch in the round-robin misses, fetches over PCIe and evicts
    // (with writeback) an older context. The registry view must stay
    // bit-identical to the legacy NicStats/PcieStats structs.
    sim::StatsRegistry reg;
    Nic::Config cfg;
    cfg.ctxCacheCapacity = 4;
    cfg.name = "dut";
    cfg.registry = &reg;
    NicWorld w(cfg);

    tls::DirectionKeys keys;
    keys.key.assign(16, 1);
    keys.staticIv.assign(12, 2);

    constexpr int kFlows = 11; // > ctxCacheCapacity
    std::vector<uint64_t> ids;
    for (int i = 0; i < kFlows; i++) {
        ids.push_back(w.nicA.createTxContext(
            std::make_unique<tls::TlsTxEngine>(keys), 0, 0));
    }
    std::vector<uint32_t> seq(kFlows, 0);
    for (int round = 0; round < 3; round++) {
        for (int i = 0; i < kFlows; i++) {
            w.nicA.transmit(mkPkt(1, 2, seq[i], 1000, ids[i]));
            seq[i] += 1000;
        }
    }
    w.sim.run();

    const NicStats &st = w.nicA.stats();
    const PcieStats &pc = w.nicA.pcie();
    EXPECT_GT(st.ctxCacheEvictions, 0u);
    EXPECT_GT(pc.ctxWritebackBytes, 0u);

    auto counter = [&](const char *leaf) {
        const sim::Counter *c = reg.findCounter(std::string("dut.") + leaf);
        EXPECT_NE(c, nullptr) << leaf;
        return c ? c->value() : ~0ull;
    };
    EXPECT_EQ(counter("pktsTx"), st.pktsTx);
    EXPECT_EQ(counter("ctxCacheHits"), st.ctxCacheHits);
    EXPECT_EQ(counter("ctxCacheMisses"), st.ctxCacheMisses);
    EXPECT_EQ(counter("ctxCacheEvictions"), st.ctxCacheEvictions);
    EXPECT_EQ(counter("txOffloadedPkts"), st.txOffloadedPkts);
    EXPECT_EQ(counter("pcie.ctxFetchBytes"), pc.ctxFetchBytes);
    EXPECT_EQ(counter("pcie.ctxWritebackBytes"), pc.ctxWritebackBytes);
    EXPECT_EQ(counter("pcie.txDataBytes"), pc.txDataBytes);

    // LRU invariant under churn: every round-robin touch beyond the
    // warm first four is a miss, and each miss evicts.
    EXPECT_EQ(st.ctxCacheMisses,
              st.ctxCacheEvictions + cfg.ctxCacheCapacity);
    EXPECT_EQ(pc.ctxFetchBytes,
              st.ctxCacheMisses * w.nicA.config().ctxBytes);
    EXPECT_EQ(pc.ctxWritebackBytes,
              st.ctxCacheEvictions * w.nicA.config().ctxBytes);
}

TEST(NicDevice, TxOffloadEncryptsThroughRingInOrder)
{
    NicWorld w;
    tls::DirectionKeys keys;
    keys.key.assign(16, 0x42);
    keys.staticIv.assign(12, 0x24);

    uint64_t ctx = w.nicA.createTxContext(
        std::make_unique<tls::TlsTxEngine>(keys), 1000, 0);

    // Build one small record: header + plaintext + dummy tag.
    constexpr size_t kPlain = 100;
    tls::RecordHeader h;
    h.length = kPlain + 16;
    Bytes rec(h.wireLen(), 0);
    h.encode(rec.data());
    Bytes pt(kPlain);
    fillDeterministic(pt, 3, 0);
    std::memcpy(rec.data() + 5, pt.data(), kPlain);

    // Ship it in two packets tagged with the context.
    net::Ipv4Header ip;
    ip.src = 1;
    ip.dst = 2;
    net::TcpHeader t1;
    t1.seq = 1000;
    auto p1 = net::PacketPool::threadDefault().make(
        ip, t1, ByteView(rec).subspan(0, 60));
    p1->txCtx = ctx;
    net::TcpHeader t2;
    t2.seq = 1060;
    auto p2 = net::PacketPool::threadDefault().make(
        ip, t2, ByteView(rec).subspan(60));
    p2->txCtx = ctx;
    w.nicA.transmit(p1);
    w.nicA.transmit(p2);
    w.sim.run();

    ASSERT_EQ(w.atB.size(), 2u);
    Bytes sealed;
    for (const auto &p : w.atB) {
        ByteView pl = p->payload();
        sealed.insert(sealed.end(), pl.begin(), pl.end());
    }
    // The wire record must decrypt with the session keys.
    crypto::AesGcm gcm(keys.key);
    auto nonce = tls::recordNonce(keys.staticIv, 0);
    Bytes out;
    ASSERT_TRUE(gcm.open(nonce, ByteView(sealed).subspan(0, 5),
                         ByteView(sealed).subspan(5), out));
    EXPECT_EQ(out, pt);
    EXPECT_EQ(w.nicA.stats().txOffloadedPkts, 2u);
}

/** One 200-byte TLS record sent once through a tx context, whose
 *  tail can then be retransmitted after a resync descriptor. */
struct TxRecordWorld
{
    static constexpr size_t kPlain = 200;
    static constexpr uint32_t kStartSeq = 1000;

    NicWorld w;
    uint64_t ctx = 0;
    Bytes rec;
    Bytes first; ///< ciphertext of the first pass
    net::Ipv4Header ip;

    TxRecordWorld()
    {
        tls::DirectionKeys keys;
        keys.key.assign(16, 0x42);
        keys.staticIv.assign(12, 0x24);
        ctx = w.nicA.createTxContext(std::make_unique<tls::TlsTxEngine>(keys),
                                     kStartSeq, 0);
        tls::RecordHeader h;
        h.length = kPlain + 16;
        rec.assign(h.wireLen(), 0);
        h.encode(rec.data());
        Bytes pt(kPlain);
        fillDeterministic(pt, 4, 0);
        std::memcpy(rec.data() + 5, pt.data(), kPlain);
        ip.src = 1;
        ip.dst = 2;

        // First pass: full record in-sequence.
        send(kStartSeq, rec);
        w.sim.run();
        ByteView pl = w.atB[0]->payload();
        first.assign(pl.begin(), pl.end());
    }

    void
    send(uint32_t seq, ByteView payload)
    {
        net::TcpHeader t;
        t.seq = seq;
        auto p = net::PacketPool::threadDefault().make(ip, t, payload);
        p->txCtx = ctx;
        w.nicA.transmit(p);
    }

    /** The L5P's retained copy of the record (pre-encryption). */
    SharedBytes
    retained() const
    {
        return std::make_shared<const Bytes>(rec);
    }

    /** Sends the record from @p off after the resync posted before. */
    void
    retransmitFrom(size_t off)
    {
        send(kStartSeq + static_cast<uint32_t>(off),
             ByteView(rec).subspan(off));
        w.sim.run();
    }

    /** Retransmitted ciphertext matches the first pass byte for byte:
     *  receivers mix original and retransmitted bytes freely. */
    bool
    retransmissionMatches(size_t off) const
    {
        ByteView retx = w.atB.at(1)->payload();
        return std::equal(retx.begin(), retx.end(), first.begin() + off);
    }
};

TEST(NicDevice, TxResyncDescriptorRebuildsState)
{
    TxRecordWorld t;
    // Retransmission of the record's tail: the driver posts a resync
    // descriptor with the retained record and the rebuild length,
    // then the packet.
    constexpr size_t kOff = 77;
    t.w.nicA.postTxResync(t.ctx, TxRecordWorld::kStartSeq + kOff, 0,
                          t.retained(), kOff);
    t.retransmitFrom(kOff);

    ASSERT_EQ(t.w.atB.size(), 2u);
    EXPECT_TRUE(t.retransmissionMatches(kOff));
    EXPECT_EQ(t.w.nicA.stats().txResyncs, 1u);
    EXPECT_EQ(t.w.nicA.pcie().ctxRecoveryBytes, kOff);
}

TEST(NicDevice, TxResyncDescriptorPinsItsMessage)
{
    // The descriptor gets the only reference to the retained message:
    // the L5P may drop its own (the record acked) before the ring
    // drains. The NIC reads the message only then, so the descriptor
    // must keep it alive; under ASan a dangling view fails here.
    TxRecordWorld t;
    constexpr size_t kOff = 123;
    SharedBytes msg = t.retained();
    std::weak_ptr<const Bytes> watch = msg;
    t.w.nicA.postTxResync(t.ctx, TxRecordWorld::kStartSeq + kOff, 0,
                          std::move(msg), kOff);
    EXPECT_FALSE(watch.expired());
    t.retransmitFrom(kOff);

    EXPECT_TRUE(watch.expired()) << "a drained descriptor releases it";
    ASSERT_EQ(t.w.atB.size(), 2u);
    EXPECT_TRUE(t.retransmissionMatches(kOff));
    EXPECT_EQ(t.w.nicA.pcie().ctxRecoveryBytes, kOff);
}

TEST(NicDevice, TxReplayEndingInsideTheTagWritesNothing)
{
    // The rebuild covers the whole ciphertext and 9 of the 16 tag
    // bytes: the replay computes the tag but must not write it into
    // the retained record, which stays the plaintext the L5P built.
    TxRecordWorld t;
    const size_t off = t.rec.size() - 7;
    SharedBytes msg = t.retained();
    t.w.nicA.postTxResync(t.ctx, TxRecordWorld::kStartSeq + off, 0, msg,
                          static_cast<uint32_t>(off));
    t.retransmitFrom(off);

    ASSERT_EQ(t.w.atB.size(), 2u);
    EXPECT_EQ(*msg, t.rec) << "the replay wrote into the retained record";
    EXPECT_TRUE(t.retransmissionMatches(off));
    EXPECT_EQ(t.w.nicA.pcie().ctxRecoveryBytes, off);
}

TEST(NicDevice, TxResyncAndRetransmitDoZeroHeapAllocation)
{
    // Steady-state tx recovery: each round posts a resync descriptor
    // for a prefix of the record and retransmits the rest, then
    // drains. Rounds start on multiples of 2^32 ticks, as in
    // host_test's event-path gate, so after warm-up every round
    // reuses the event buckets, ring slots and pooled packets it
    // grew. The descriptor pins the message in a ring slot of its
    // own; the replay reads the message in place.
    TxRecordWorld t;
    const SharedBytes msg = t.retained();
    size_t delivered = 0;
    size_t matched = 0;
    size_t expectLen = 0;
    t.w.link.attach(1, [&](net::PacketPtr p) {
        ByteView pl = p->payload();
        delivered++;
        if (pl.size() == expectLen &&
            std::equal(pl.begin(), pl.end(), t.first.end() - expectLen))
            matched++;
    });
    constexpr sim::Tick kRound = sim::Tick(1) << 32;
    auto round = [&](uint64_t r) {
        t.w.sim.runUntil((r + 1) * kRound);
        // Offsets sweep the header, the body and the tag.
        size_t off = 1 + (r * 37) % (t.rec.size() - 1);
        expectLen = t.rec.size() - off;
        t.w.nicA.postTxResync(t.ctx, TxRecordWorld::kStartSeq +
                                         static_cast<uint32_t>(off),
                              0, msg, static_cast<uint32_t>(off));
        t.send(TxRecordWorld::kStartSeq + static_cast<uint32_t>(off),
               ByteView(t.rec).subspan(off));
        t.w.sim.run();
    };
    for (uint64_t r = 0; r < 8; r++)
        round(r);
    testing::AllocCounter::start();
    for (uint64_t r = 8; r < 1008; r++)
        round(r);
    testing::AllocCounter::stop();
    EXPECT_EQ(testing::AllocCounter::calls, 0u)
        << "tx resyncs and their retransmits must not touch the heap";
    EXPECT_EQ(delivered, 1008u);
    EXPECT_EQ(matched, 1008u);
    EXPECT_EQ(t.w.nicA.stats().txResyncs, 1008u);
    EXPECT_EQ(msg.use_count(), 1) << "every drained descriptor let go";
}

net::PacketPtr
mkFlowPkt(const net::FlowKey &flow, uint32_t seq, size_t payloadLen)
{
    net::Ipv4Header ip;
    ip.src = flow.srcIp;
    ip.dst = flow.dstIp;
    net::TcpHeader tcp;
    tcp.srcPort = flow.srcPort;
    tcp.dstPort = flow.dstPort;
    tcp.seq = seq;
    Bytes payload(payloadLen, 0xcd);
    return net::PacketPool::threadDefault().make(ip, tcp, payload);
}

net::FlowKey
flowKey(uint16_t srcPort)
{
    net::FlowKey f;
    f.srcIp = net::makeIp(10, 0, 0, 1);
    f.dstIp = net::makeIp(10, 0, 0, 2);
    f.srcPort = srcPort;
    f.dstPort = 443;
    return f;
}

TEST(NicMultiQueue, RssSteersFlowsToStableQueues)
{
    NicWorld w;
    Nic::Config cfgB;
    cfgB.numQueues = 4;
    Nic nicB(w.sim, w.link, 1, cfgB);
    ASSERT_EQ(nicB.queueCount(), 4);

    std::vector<std::pair<int, net::FlowKey>> delivered;
    nicB.setOnRxInterrupt([&](int queue, net::PacketPtr pkt) {
        delivered.emplace_back(queue, pkt->flow());
    });

    constexpr int kFlows = 16;
    constexpr int kPktsPerFlow = 3;
    for (int round = 0; round < kPktsPerFlow; round++) {
        for (int f = 0; f < kFlows; f++) {
            w.nicA.transmit(mkFlowPkt(flowKey(static_cast<uint16_t>(5000 + f)),
                                      round * 100, 100));
        }
    }
    w.sim.run();
    ASSERT_EQ(delivered.size(),
              static_cast<size_t>(kFlows * kPktsPerFlow));

    // Every packet landed on the queue RSS pins its flow to, and no
    // flow ever migrated.
    int usedQueues = 0;
    uint64_t rxByQueue[4] = {0, 0, 0, 0};
    for (const auto &[queue, flow] : delivered) {
        EXPECT_EQ(queue, nicB.rxQueueFor(flow));
        rxByQueue[queue]++;
    }
    for (int q = 0; q < 4; q++) {
        EXPECT_EQ(nicB.queueStats(q).rxPkts, rxByQueue[q]);
        usedQueues += rxByQueue[q] > 0 ? 1 : 0;
    }
    EXPECT_GT(usedQueues, 1) << "16 flows all hashed to one queue";
}

TEST(NicMultiQueue, TxQueuePairsWithRxQueue)
{
    Nic::Config cfg;
    cfg.numQueues = 8;
    NicWorld w(cfg);
    // XPS pairing: an outgoing packet rides the tx ring whose index
    // matches the rx queue of the reverse (arriving) direction, so
    // resync descriptors posted to txQueueFor() stay ordered with the
    // flow's data.
    for (int f = 0; f < 32; f++) {
        net::FlowKey tx = flowKey(static_cast<uint16_t>(7000 + f));
        EXPECT_EQ(w.nicA.txQueueFor(tx), w.nicA.rxQueueFor(tx.reversed()));
    }
}

TEST(NicMultiQueue, RoundRobinDrainsEveryTxRing)
{
    Nic::Config cfg;
    cfg.numQueues = 4;
    cfg.gbps = 1.0; // slow line so the rings stay backlogged
    NicWorld w(cfg);
    for (int q = 0; q < 4; q++) {
        for (int i = 0; i < 3; i++) {
            ASSERT_TRUE(w.nicA.transmit(
                mkFlowPkt(flowKey(static_cast<uint16_t>(100 + q)), i * 100,
                          100),
                q));
        }
    }
    w.sim.run();
    ASSERT_EQ(w.atB.size(), 12u);
    for (int q = 0; q < 4; q++)
        EXPECT_EQ(w.nicA.queueStats(q).txPkts, 3u);
    // One grant per ring per cycle: the first four departures are one
    // packet from each ring, not three from ring 0.
    std::vector<uint16_t> firstFour;
    for (int i = 0; i < 4; i++)
        firstFour.push_back(w.atB[i]->flow().srcPort);
    std::sort(firstFour.begin(), firstFour.end());
    EXPECT_EQ(firstFour, (std::vector<uint16_t>{100, 101, 102, 103}));
}

TEST(NicMultiQueue, PerQueueStatsPublishedInRegistry)
{
    sim::StatsRegistry reg;
    NicWorld w;
    Nic::Config cfgB;
    cfgB.numQueues = 2;
    cfgB.name = "dut";
    cfgB.registry = &reg;
    Nic nicB(w.sim, w.link, 1, cfgB);
    nicB.setOnRxInterrupt([](int, net::PacketPtr) {});

    for (int f = 0; f < 8; f++)
        w.nicA.transmit(mkFlowPkt(flowKey(static_cast<uint16_t>(6000 + f)),
                                  0, 100));
    w.sim.run();

    auto counter = [&](const std::string &path) {
        const sim::Counter *c = reg.findCounter(path);
        EXPECT_NE(c, nullptr) << path;
        return c ? c->value() : ~0ull;
    };
    uint64_t q0 = counter("dut.q0.rxPkts");
    uint64_t q1 = counter("dut.q1.rxPkts");
    EXPECT_EQ(q0 + q1, 8u); // per-queue counters roll up to the NIC total
    EXPECT_EQ(counter("dut.pktsRx"), 8u);
    EXPECT_EQ(q0, nicB.queueStats(0).rxPkts);
    EXPECT_EQ(q1, nicB.queueStats(1).rxPkts);
    EXPECT_EQ(counter("dut.q0.compIrqs") + counter("dut.q1.compIrqs"),
              nicB.stats().irqsFired);
}

TEST(NicMultiQueue, SingleQueueMatchesLegacyPerPacketDelivery)
{
    // Defaults (1 queue): every packet is its own interrupt and lands
    // on queue 0 — the exact pre-multi-queue schedule.
    NicWorld w;
    Nic nicB(w.sim, w.link, 1, {});
    ASSERT_EQ(nicB.queueCount(), 1);

    std::vector<uint32_t> seqs;
    nicB.setOnRxInterrupt([&](int queue, net::PacketPtr pkt) {
        EXPECT_EQ(queue, 0);
        seqs.push_back(pkt->tcp().seq);
    });
    for (int i = 0; i < 5; i++)
        w.nicA.transmit(mkFlowPkt(flowKey(9002), i * 100, 100));
    w.sim.run();

    EXPECT_EQ(seqs, (std::vector<uint32_t>{0, 100, 200, 300, 400}));
    EXPECT_EQ(nicB.stats().irqsFired, 5u);
    EXPECT_EQ(nicB.stats().irqsFired, nicB.stats().pktsRx);
    EXPECT_EQ(nicB.queueStats(0).compIrqs, 5u);
}

TEST(NicDevice, DestroyedContextStopsOffloading)
{
    NicWorld w;
    tls::DirectionKeys keys;
    keys.key.assign(16, 1);
    keys.staticIv.assign(12, 2);
    uint64_t ctx = w.nicA.createTxContext(
        std::make_unique<tls::TlsTxEngine>(keys), 0, 0);
    w.nicA.destroyTxContext(ctx);
    auto p = mkPkt(1, 2, 0, 50, ctx);
    Bytes before(p->payload().begin(), p->payload().end());
    w.nicA.transmit(p);
    w.sim.run();
    ASSERT_EQ(w.atB.size(), 1u);
    // Payload passes through unmodified.
    EXPECT_TRUE(std::equal(before.begin(), before.end(),
                           w.atB[0]->payload().begin()));
    EXPECT_EQ(w.nicA.stats().txOffloadedPkts, 0u);
}

// ------------------------------------------------ context cache (LRU)

/** A capacity-2 NIC whose contexts are touched through the tx-resync
 *  path, so each touch is one hit or one miss and nothing else. */
struct CtxCacheWorld : NicWorld
{
    CtxCacheWorld() : NicWorld(config()) {}

    static Nic::Config
    config()
    {
        Nic::Config cfg;
        cfg.ctxCacheCapacity = 2;
        return cfg;
    }

    uint64_t
    create()
    {
        tls::DirectionKeys keys;
        keys.key.assign(16, 1);
        keys.staticIv.assign(12, 2);
        return nicA.createTxContext(
            std::make_unique<tls::TlsTxEngine>(keys), 0, 0);
    }

    void
    touch(uint64_t ctx)
    {
        nicA.postTxResync(ctx, 0, 0, nullptr, 0);
        sim.run();
    }

    uint64_t hits() const { return nicA.stats().ctxCacheHits; }
    uint64_t misses() const { return nicA.stats().ctxCacheMisses; }
    uint64_t evictions() const { return nicA.stats().ctxCacheEvictions; }
    uint64_t writebacks() const
    {
        return nicA.pcie().ctxWritebackBytes / nicA.config().ctxBytes;
    }
};

TEST(NicCtxCache, HitMakesTheOtherContextTheVictim)
{
    CtxCacheWorld w;
    uint64_t c1 = w.create();
    uint64_t c2 = w.create();
    w.touch(c1); // c1 is now the most recent
    EXPECT_EQ(w.hits(), 1u);
    uint64_t c3 = w.create(); // must evict c2, not c1
    EXPECT_EQ(w.misses(), 3u);
    EXPECT_EQ(w.evictions(), 1u);
    EXPECT_EQ(w.writebacks(), 1u);
    EXPECT_EQ(w.nicA.ctxResident(), 2u);

    w.touch(c1);
    w.touch(c3);
    EXPECT_EQ(w.hits(), 3u);
    EXPECT_EQ(w.misses(), 3u);
    w.touch(c2); // refetch evicts c1, the least recent
    EXPECT_EQ(w.misses(), 4u);
    EXPECT_EQ(w.evictions(), 2u);
    w.touch(c3);
    EXPECT_EQ(w.hits(), 4u);
    w.touch(c1);
    EXPECT_EQ(w.misses(), 5u);
    EXPECT_EQ(w.evictions(), 3u);
    EXPECT_EQ(w.writebacks(), 3u);
}

TEST(NicCtxCache, DestroyOfResidentContextFreesItsSlotWithoutEviction)
{
    CtxCacheWorld w;
    uint64_t c1 = w.create();
    uint64_t c2 = w.create();
    w.nicA.destroyTxContext(c1); // no writeback for a dead context
    EXPECT_EQ(w.nicA.ctxResident(), 1u);
    EXPECT_EQ(w.evictions(), 0u);
    EXPECT_EQ(w.writebacks(), 0u);

    uint64_t c3 = w.create(); // fills the freed slot
    EXPECT_EQ(w.misses(), 3u);
    EXPECT_EQ(w.evictions(), 0u);
    EXPECT_EQ(w.nicA.ctxResident(), 2u);
    w.touch(c2);
    w.touch(c3);
    EXPECT_EQ(w.hits(), 2u);
    EXPECT_EQ(w.misses(), 3u);
}

TEST(NicCtxCache, DestroyOfEvictedContextChangesNothing)
{
    CtxCacheWorld w;
    uint64_t c1 = w.create();
    uint64_t c2 = w.create();
    uint64_t c3 = w.create(); // evicts c1
    ASSERT_EQ(w.evictions(), 1u);
    w.nicA.destroyTxContext(c1);
    EXPECT_EQ(w.nicA.ctxResident(), 2u);
    EXPECT_EQ(w.hits(), 0u);
    EXPECT_EQ(w.misses(), 3u);
    EXPECT_EQ(w.evictions(), 1u);
    EXPECT_EQ(w.writebacks(), 1u);

    w.touch(c2);
    w.touch(c3);
    EXPECT_EQ(w.hits(), 2u);
    EXPECT_EQ(w.misses(), 3u);
    EXPECT_EQ(w.evictions(), 1u);
}

// -------------------------------------------- eviction edge cases (NIC)

TEST(NicDevice, DestroyOfEvictedContextIsSafe)
{
    // A context can be destroyed while its state is evicted (written
    // back to host memory): close() after a long idle period.
    Nic::Config cfg;
    cfg.ctxCacheCapacity = 1;
    NicWorld w(cfg);
    tls::DirectionKeys keys;
    keys.key.assign(16, 1);
    keys.staticIv.assign(12, 2);

    uint64_t c1 = w.nicA.createTxContext(
        std::make_unique<tls::TlsTxEngine>(keys), 0, 0);
    uint64_t c2 = w.nicA.createTxContext(
        std::make_unique<tls::TlsTxEngine>(keys), 0, 0);
    EXPECT_EQ(w.nicA.stats().ctxCacheEvictions, 1u); // c2 evicted c1

    w.nicA.destroyTxContext(c1); // non-resident: must not touch cache
    w.nicA.destroyTxContext(c1); // double destroy is a no-op
    EXPECT_EQ(w.nicA.stats().ctxCacheEvictions, 1u);

    // The surviving context still offloads.
    tls::RecordHeader h;
    h.length = 50 + 16;
    Bytes rec(h.wireLen(), 0);
    h.encode(rec.data());
    net::Ipv4Header ip;
    ip.src = 1;
    ip.dst = 2;
    net::TcpHeader t;
    t.seq = 0;
    auto p = net::PacketPool::threadDefault().make(ip, t, rec);
    p->txCtx = c2;
    w.nicA.transmit(p);
    w.sim.run();
    EXPECT_EQ(w.nicA.stats().txOffloadedPkts, 1u);
    w.nicA.destroyTxContext(c2);
}

TEST(NicDevice, EvictedContextRefetchesAndResumes)
{
    // Eviction models a writeback, not destruction: after its slot is
    // stolen, the next touch re-fetches the 208 B state over PCIe and
    // encryption resumes exactly where it left off (record number,
    // expected sequence) — no resync, no corruption.
    Nic::Config cfg;
    cfg.ctxCacheCapacity = 1; // every flow switch evicts the other
    NicWorld w(cfg);
    tls::DirectionKeys keys;
    keys.key.assign(16, 0x42);
    keys.staticIv.assign(12, 0x24);

    uint64_t c1 = w.nicA.createTxContext(
        std::make_unique<tls::TlsTxEngine>(keys), 0, 0);
    uint64_t c2 = w.nicA.createTxContext(
        std::make_unique<tls::TlsTxEngine>(keys), 0, 0);

    constexpr size_t kPlain = 64;
    auto mkRecord = [&](uint64_t seed) {
        tls::RecordHeader h;
        h.length = kPlain + 16;
        Bytes rec(h.wireLen(), 0);
        h.encode(rec.data());
        Bytes pt(kPlain);
        fillDeterministic(pt, seed, 0);
        std::memcpy(rec.data() + 5, pt.data(), kPlain);
        return rec;
    };
    net::Ipv4Header ip;
    ip.src = 1;
    ip.dst = 2;
    auto ship = [&](uint64_t ctx, uint32_t seq, const Bytes &rec) {
        net::TcpHeader t;
        t.seq = seq;
        auto p = net::PacketPool::threadDefault().make(ip, t, rec);
        p->txCtx = ctx;
        ASSERT_TRUE(w.nicA.transmit(p));
    };

    // Interleave: c1 record 0, c2 record 0 (evicts c1), c1 record 1
    // (refetches c1, evicts c2), c2 record 1 (refetches c2).
    Bytes r10 = mkRecord(10);
    Bytes r20 = mkRecord(20);
    Bytes r11 = mkRecord(11);
    Bytes r21 = mkRecord(21);
    const uint32_t recLen = static_cast<uint32_t>(r10.size());
    ship(c1, 0, r10);
    ship(c2, 0, r20);
    ship(c1, recLen, r11);
    ship(c2, recLen, r21);
    w.sim.run();

    ASSERT_EQ(w.atB.size(), 4u);
    EXPECT_EQ(w.nicA.stats().txOffloadedPkts, 4u);
    EXPECT_EQ(w.nicA.stats().txResyncs, 0u);
    // Create touches + per-packet touches with capacity 1: everything
    // after the first create misses and evicts the other context.
    EXPECT_EQ(w.nicA.stats().ctxCacheMisses, 6u);
    EXPECT_EQ(w.nicA.stats().ctxCacheEvictions, 5u);
    EXPECT_EQ(w.nicA.pcie().ctxFetchBytes, 6 * cfg.ctxBytes);
    EXPECT_EQ(w.nicA.pcie().ctxWritebackBytes, 5 * cfg.ctxBytes);

    // Both flows decrypt cleanly with per-flow record numbers 0 and 1:
    // the evicted-and-refetched state carried the record counter.
    crypto::AesGcm gcm(keys.key);
    struct Want
    {
        uint64_t seed;
        uint64_t recNo;
    };
    const Want want[] = {{10, 0}, {20, 0}, {11, 1}, {21, 1}};
    for (size_t i = 0; i < 4; i++) {
        ByteView sealed = w.atB[i]->payload();
        auto nonce = tls::recordNonce(keys.staticIv, want[i].recNo);
        Bytes out;
        ASSERT_TRUE(gcm.open(nonce, sealed.subspan(0, 5),
                             sealed.subspan(5), out))
            << i;
        Bytes pt(kPlain);
        fillDeterministic(pt, want[i].seed, 0);
        EXPECT_EQ(out, pt) << i;
    }
    w.nicA.destroyTxContext(c1);
    w.nicA.destroyTxContext(c2);
}

} // namespace
} // namespace anic::nic
