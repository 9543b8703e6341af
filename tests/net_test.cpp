/**
 * @file
 * Unit tests for the net substrate: header codecs, flow keys,
 * checksum, packet construction, and link impairments.
 */

#include <gtest/gtest.h>

#include "net/link.hh"
#include "net/packet.hh"
#include "net/packet_pool.hh"
#include "sim/simulator.hh"

namespace anic::net {
namespace {

TEST(Headers, IpToString)
{
    EXPECT_EQ(ipToString(makeIp(10, 0, 0, 1)), "10.0.0.1");
    EXPECT_EQ(ipToString(makeIp(255, 254, 253, 252)), "255.254.253.252");
}

TEST(Headers, Ipv4RoundTrip)
{
    Ipv4Header h;
    h.src = makeIp(192, 168, 1, 2);
    h.dst = makeIp(10, 0, 0, 1);
    h.totalLen = 1500;
    h.ttl = 17;
    uint8_t buf[Ipv4Header::kSize];
    h.encode(buf);
    Ipv4Header back = Ipv4Header::decode(buf);
    EXPECT_EQ(back.src, h.src);
    EXPECT_EQ(back.dst, h.dst);
    EXPECT_EQ(back.totalLen, h.totalLen);
    EXPECT_EQ(back.ttl, h.ttl);
    EXPECT_EQ(back.protocol, Ipv4Header::kProtoTcp);
}

TEST(Headers, Ipv4ChecksumValidates)
{
    Ipv4Header h;
    h.src = makeIp(1, 2, 3, 4);
    h.dst = makeIp(5, 6, 7, 8);
    h.totalLen = 40;
    uint8_t buf[Ipv4Header::kSize];
    h.encode(buf);
    // Checksum over the full encoded header must be zero.
    EXPECT_EQ(internetChecksum(ByteView(buf, Ipv4Header::kSize)), 0);
    buf[8] ^= 0xff; // corrupt
    EXPECT_NE(internetChecksum(ByteView(buf, Ipv4Header::kSize)), 0);
}

TEST(Headers, TcpRoundTripAndWindowScaling)
{
    TcpHeader h;
    h.srcPort = 443;
    h.dstPort = 51234;
    h.seq = 0xdeadbeef;
    h.ack = 0x12345678;
    h.flags = kTcpAck | kTcpPsh;
    h.window = 3 << 20; // needs the implicit scale
    uint8_t buf[TcpHeader::kSize];
    h.encode(buf);
    TcpHeader back = TcpHeader::decode(buf);
    EXPECT_EQ(back.srcPort, h.srcPort);
    EXPECT_EQ(back.dstPort, h.dstPort);
    EXPECT_EQ(back.seq, h.seq);
    EXPECT_EQ(back.ack, h.ack);
    EXPECT_EQ(back.flags, h.flags);
    // Window quantized to 2^kWindowShift.
    EXPECT_LE(back.window, h.window);
    EXPECT_GT(back.window, h.window - (1u << TcpHeader::kWindowShift));
}

TEST(Headers, FlowKeyReverseAndHash)
{
    FlowKey k{makeIp(1, 1, 1, 1), makeIp(2, 2, 2, 2), 10, 20};
    FlowKey r = k.reversed();
    EXPECT_EQ(r.srcIp, k.dstIp);
    EXPECT_EQ(r.srcPort, k.dstPort);
    EXPECT_EQ(r.reversed(), k);
    EXPECT_NE(FlowKeyHash{}(k), FlowKeyHash{}(r));
}

TEST(Packet, MakeAndViews)
{
    Ipv4Header ip;
    ip.src = makeIp(1, 0, 0, 1);
    ip.dst = makeIp(1, 0, 0, 2);
    TcpHeader tcp;
    tcp.srcPort = 1000;
    tcp.dstPort = 2000;
    tcp.seq = 777;
    Bytes payload = {1, 2, 3, 4, 5};
    Packet p = Packet::make(ip, tcp, payload);

    EXPECT_EQ(p.payloadSize(), 5u);
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                           p.payload().begin()));
    EXPECT_EQ(p.tcp().seq, 777u);
    EXPECT_EQ(p.flow().srcIp, ip.src);
    EXPECT_EQ(p.flow().dstPort, 2000);
    EXPECT_EQ(p.wireSize(), p.bytes.size() + Packet::kWireOverhead);
}

net::PacketPtr
mkPkt(PacketPool &pool, int tag)
{
    Ipv4Header ip;
    TcpHeader tcp;
    tcp.seq = static_cast<uint32_t>(tag);
    Bytes payload(10, static_cast<uint8_t>(tag));
    return pool.make(ip, tcp, payload);
}

TEST(Link, DeliversWithPropagationDelay)
{
    PacketPool pool;
    sim::Simulator sim;
    Link::Config cfg;
    cfg.pool = &pool;
    cfg.propDelay = 5 * sim::kMicrosecond;
    Link link(sim, cfg);
    sim::Tick arrival = 0;
    link.attach(1, [&](PacketPtr) { arrival = sim.now(); });
    link.attach(0, [](PacketPtr) {});
    link.transmit(0, mkPkt(pool, 1));
    sim.run();
    EXPECT_EQ(arrival, 5 * sim::kMicrosecond);
    EXPECT_EQ(link.stats(0).delivered, 1u);
}

TEST(Link, LossDropsApproximatelyAtRate)
{
    PacketPool pool;
    sim::Simulator sim;
    Link::Config cfg;
    cfg.pool = &pool;
    cfg.dir[0].lossRate = 0.25;
    cfg.seed = 5;
    Link link(sim, cfg);
    int got = 0;
    link.attach(1, [&](PacketPtr) { got++; });
    const int kPkts = 4000;
    for (int i = 0; i < kPkts; i++)
        link.transmit(0, mkPkt(pool, i));
    sim.run();
    EXPECT_NEAR(static_cast<double>(kPkts - got) / kPkts, 0.25, 0.03);
    EXPECT_EQ(link.stats(0).dropped + link.stats(0).delivered,
              static_cast<uint64_t>(kPkts));
}

TEST(Link, ReorderDelaysSelectedPackets)
{
    PacketPool pool;
    sim::Simulator sim;
    Link::Config cfg;
    cfg.pool = &pool;
    cfg.dir[0].reorderRate = 0.2;
    cfg.dir[0].reorderExtraDelay = 100 * sim::kMicrosecond;
    cfg.seed = 6;
    Link link(sim, cfg);
    std::vector<uint32_t> order;
    link.attach(1, [&](PacketPtr p) { order.push_back(p->tcp().seq); });
    for (int i = 0; i < 200; i++)
        link.transmit(0, mkPkt(pool, i));
    sim.run();
    ASSERT_EQ(order.size(), 200u);
    bool out_of_order = false;
    for (size_t i = 1; i < order.size(); i++)
        out_of_order |= order[i] < order[i - 1];
    EXPECT_TRUE(out_of_order);
    EXPECT_GT(link.stats(0).reordered, 0u);
}

TEST(Link, DuplicationCreatesIndependentCopies)
{
    PacketPool pool;
    sim::Simulator sim;
    Link::Config cfg;
    cfg.pool = &pool;
    cfg.dir[0].duplicateRate = 1.0; // every packet duplicated
    cfg.seed = 7;
    Link link(sim, cfg);
    std::vector<PacketPtr> got;
    link.attach(1, [&](PacketPtr p) { got.push_back(std::move(p)); });
    link.transmit(0, mkPkt(pool, 42));
    sim.run();
    ASSERT_EQ(got.size(), 2u);
    // The duplicate owns its bytes: mutating one must not alias.
    got[0]->payloadMut()[0] = 0x99;
    EXPECT_NE(got[0]->payload()[0], got[1]->payload()[0]);
    EXPECT_TRUE(got[1]->rx.placed.empty());
}

TEST(Link, CorruptionFlipsPayloadLeavesHeadersValid)
{
    PacketPool pool;
    sim::Simulator sim;
    Link::Config cfg;
    cfg.pool = &pool;
    cfg.dir[0].corruptRate = 1.0; // every payload-carrying packet corrupted
    cfg.seed = 8;
    Link link(sim, cfg);
    std::vector<PacketPtr> got;
    link.attach(1, [&](PacketPtr p) { got.push_back(std::move(p)); });
    Ipv4Header ip;
    ip.src = makeIp(1, 0, 0, 1);
    ip.dst = makeIp(1, 0, 0, 2);
    TcpHeader tcp;
    tcp.srcPort = 1000;
    tcp.dstPort = 2000;
    tcp.seq = 12345;
    Bytes payload(64, 0xab);
    auto pkt = pool.make(ip, tcp, payload);
    link.transmit(0, pkt);
    // A pure-ACK packet must never be corrupted (nothing to flip).
    link.transmit(0, pool.make(ip, tcp, {}));
    sim.run();
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(link.stats(0).corrupted, 1u);
    // Headers survive intact, so the stack still delivers the segment.
    EXPECT_EQ(got[0]->tcp().seq, 12345u);
    EXPECT_EQ(got[0]->ip().src, ip.src);
    // Payload differs in at least one byte...
    EXPECT_FALSE(std::equal(payload.begin(), payload.end(),
                            got[0]->payload().begin()));
    // ...and the sender's copy is untouched (retransmits stay pristine).
    EXPECT_EQ(pkt->payload()[0], 0xab);
}

TEST(Link, ImpairmentsAreDirectional)
{
    PacketPool pool;
    sim::Simulator sim;
    Link::Config cfg;
    cfg.pool = &pool;
    cfg.dir[0].lossRate = 1.0; // 0->1 fully lossy, 1->0 clean
    Link link(sim, cfg);
    int got0 = 0;
    int got1 = 0;
    link.attach(0, [&](PacketPtr) { got0++; });
    link.attach(1, [&](PacketPtr) { got1++; });
    for (int i = 0; i < 10; i++) {
        link.transmit(0, mkPkt(pool, i));
        link.transmit(1, mkPkt(pool, i));
    }
    sim.run();
    EXPECT_EQ(got1, 0);
    EXPECT_EQ(got0, 10);
}

TEST(LinkDeathTest, NullPoolPanicsNamingTheField)
{
    sim::Simulator sim;
    EXPECT_DEATH(Link(sim, Link::Config{}), "Link::Config::pool is null");
}

} // namespace
} // namespace anic::net
