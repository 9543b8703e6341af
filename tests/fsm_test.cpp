/**
 * @file
 * Unit tests for the autonomous-offload StreamFsm using a mock L5P:
 * 8-byte header (2-byte magic + 4-byte length), XOR-0x55 "transform"
 * standing in for decryption. Exercises the scenarios of Figure 8:
 * retransmission bypass, data reordering, header reordering with
 * speculative search/track/confirm, plus false-positive handling and
 * mid-message resume, and a resync cycle that allocates nothing.
 */

#include <gtest/gtest.h>

#include "nic/stream_fsm.hh"
#include "support/alloc_counter.hh"
#include "util/bytes.hh"

namespace anic::nic {
namespace {

/** Holds the mock wire ahead of the engine base that refers to it. */
struct MockWire
{
    net::MsgWire mockWire;
};

class MockEngine : private MockWire, public L5Engine
{
  public:
    static constexpr size_t kHdr = 8;
    static constexpr uint8_t kMagic0 = 0xa5;
    static constexpr uint8_t kMagic1 = 0x5a;

    MockEngine()
        : MockWire{{net::L5Kind::None, kHdr, parsePrefix,
                    /*resumeMidMessage=*/false}},
          L5Engine(mockWire, {})
    {
    }

    /** The wire's resume property: false waits for a boundary. */
    bool &midResume = mockWire.resumeMidMessage;

    struct Completion
    {
        uint64_t idx;
        bool covered;
    };
    std::vector<Completion> completions;
    std::vector<uint64_t> starts;
    uint64_t aborts = 0;
    uint64_t resumes = 0;
    uint64_t lastResumeIdx = 0;
    uint64_t lastResumeOff = 0;
    Bytes lastResumeHdr;
    uint64_t bytesTransformed = 0;
    uint64_t curIdx = 0;

    static std::optional<net::MsgFrame>
    parsePrefix(const uint8_t *h, net::Digests)
    {
        if (h[0] != kMagic0 || h[1] != kMagic1)
            return std::nullopt;
        uint32_t len = getBe32(h + 2);
        if (len < kHdr || len > (1u << 20))
            return std::nullopt;
        return net::MsgFrame{.wireLen = len};
    }

    void
    onMsgStart(uint64_t idx, const net::MsgFrame &, ByteView hdr) override
    {
        ASSERT_EQ(hdr.size(), kHdr);
        curIdx = idx;
        starts.push_back(idx);
    }

    void
    onMsgData(uint64_t off, ByteSpan d, PacketResult &res) override
    {
        ASSERT_GE(off, kHdr); // body only
        for (auto &b : d)
            b ^= 0x55;
        bytesTransformed += d.size();
        res.bytesTransformed += d.size();
    }

    void
    onMsgEnd(bool covered, PacketResult &) override
    {
        completions.push_back({curIdx, covered});
    }

    void
    onMsgResume(uint64_t idx, const net::MsgFrame &, ByteView hdr,
                uint64_t off) override
    {
        ASSERT_EQ(hdr.size(), kHdr);
        curIdx = idx;
        resumes++;
        lastResumeIdx = idx;
        lastResumeOff = off;
        lastResumeHdr.assign(hdr.begin(), hdr.end());
    }

    void onMsgAbort() override { aborts++; }
};

/** Builds a stream of @p count messages, each @p msgLen bytes. */
Bytes
buildStream(int count, uint32_t msgLen, uint8_t bodyByte = 0x11)
{
    Bytes s;
    for (int i = 0; i < count; i++) {
        size_t base = s.size();
        s.resize(base + msgLen, bodyByte);
        s[base] = MockEngine::kMagic0;
        s[base + 1] = MockEngine::kMagic1;
        putBe32(s.data() + base + 2, msgLen);
        putBe16(s.data() + base + 6, static_cast<uint16_t>(i));
    }
    return s;
}

struct Harness
{
    MockEngine engine;
    StreamFsm fsm;
    std::vector<std::pair<uint64_t, uint64_t>> resyncReqs; // (id, pos)

    Harness()
        : fsm(engine, [this](uint64_t id, uint64_t pos) {
              resyncReqs.emplace_back(id, pos);
          })
    {
        fsm.reset(0, 0);
    }

    /** Feeds stream[pos, pos+len) as one packet; returns processed. */
    bool
    feed(const Bytes &stream, uint64_t pos, size_t len, Bytes &wire)
    {
        // wire accumulates what the host sees (post-NIC bytes).
        Bytes chunk(stream.begin() + pos, stream.begin() + pos + len);
        PacketResult res;
        bool processed = fsm.segment(pos, chunk, res);
        std::copy(chunk.begin(), chunk.end(), wire.begin() + pos);
        return processed;
    }
};

bool
bodyTransformed(const Bytes &wire, const Bytes &orig, uint64_t msgStart,
                uint32_t msgLen)
{
    for (uint64_t i = msgStart + MockEngine::kHdr; i < msgStart + msgLen; i++) {
        if (wire[i] != (orig[i] ^ 0x55))
            return false;
    }
    return true;
}

TEST(StreamFsm, InSequenceProcessesEverything)
{
    Harness h;
    Bytes stream = buildStream(10, 250);
    Bytes wire(stream.size());

    // Odd packet sizes so headers straddle packets.
    uint64_t pos = 0;
    size_t sizes[] = {97, 131, 240, 55, 1000};
    int i = 0;
    while (pos < stream.size()) {
        size_t n = std::min<size_t>(sizes[i++ % 5], stream.size() - pos);
        EXPECT_TRUE(h.feed(stream, pos, n, wire));
        pos += n;
    }

    EXPECT_EQ(h.engine.completions.size(), 10u);
    for (int k = 0; k < 10; k++) {
        EXPECT_EQ(h.engine.completions[k].idx, static_cast<uint64_t>(k));
        EXPECT_TRUE(h.engine.completions[k].covered);
        EXPECT_TRUE(bodyTransformed(wire, stream, k * 250u, 250));
    }
    EXPECT_EQ(h.fsm.stats().msgsCovered, 10u);
    EXPECT_TRUE(h.resyncReqs.empty());
}

TEST(StreamFsm, RetransmissionBypassesWithoutStateChange)
{
    Harness h;
    Bytes stream = buildStream(4, 250);
    Bytes wire(stream.size());

    EXPECT_TRUE(h.feed(stream, 0, 100, wire));
    EXPECT_TRUE(h.feed(stream, 100, 100, wire));
    // Figure 8a: second arrival of an old packet is bypassed.
    EXPECT_FALSE(h.feed(stream, 0, 100, wire));
    EXPECT_TRUE(h.feed(stream, 200, 300, wire));
    EXPECT_TRUE(h.feed(stream, 500, 500, wire));

    EXPECT_EQ(h.fsm.stats().msgsCovered, 4u);
    EXPECT_EQ(h.fsm.stats().bypassedSpans, 1u);
    EXPECT_EQ(h.fsm.state(), FsmState::Offloading);
}

TEST(StreamFsm, LossWithinMessageSkipsToBoundary)
{
    Harness h;
    Bytes stream = buildStream(6, 250);
    Bytes wire(stream.size());

    // Packets of 100 bytes; drop [100,200) (inside message 0).
    EXPECT_TRUE(h.feed(stream, 0, 100, wire));
    EXPECT_FALSE(h.feed(stream, 200, 100, wire)); // gap -> bypass
    // Message 1 starts at 250 (inside packet [200,300)): offload can
    // only resume at a packet-aligned boundary; messages 1 continues
    // to be skipped until one starts exactly at a packet start.
    EXPECT_FALSE(h.feed(stream, 300, 100, wire));
    EXPECT_FALSE(h.feed(stream, 400, 100, wire));
    // Message 2 starts at 500 == packet start: full resume.
    EXPECT_TRUE(h.feed(stream, 500, 1000, wire));

    // Messages 2..5 completed covered; 0 aborted, 1 skipped.
    ASSERT_EQ(h.engine.completions.size(), 4u);
    EXPECT_EQ(h.engine.completions[0].idx, 2u);
    EXPECT_TRUE(h.engine.completions[0].covered);
    EXPECT_EQ(h.engine.aborts, 1u);
    EXPECT_TRUE(bodyTransformed(wire, stream, 500, 250));
    EXPECT_FALSE(bodyTransformed(wire, stream, 250, 250));
    EXPECT_TRUE(h.resyncReqs.empty()); // framing never lost
}

TEST(StreamFsm, MidMessageResumeForPlacementEngines)
{
    Harness h;
    h.engine.midResume = true;
    Bytes stream = buildStream(2, 1000);
    Bytes wire(stream.size());

    EXPECT_TRUE(h.feed(stream, 0, 100, wire));
    // Drop [100,200); next packet bypassed but placement resumes at
    // the following packet.
    EXPECT_FALSE(h.feed(stream, 200, 100, wire));
    EXPECT_TRUE(h.feed(stream, 300, 100, wire)); // resumed mid-message
    EXPECT_EQ(h.engine.resumes, 1u);
    EXPECT_EQ(h.engine.lastResumeIdx, 0u);
    EXPECT_EQ(h.engine.lastResumeOff, 300u);
    EXPECT_TRUE(h.feed(stream, 400, 600, wire));  // rest of m0
    EXPECT_TRUE(h.feed(stream, 1000, 1000, wire)); // all of m1

    // Message 0 completes uncovered; message 1 covered.
    ASSERT_EQ(h.engine.completions.size(), 2u);
    EXPECT_FALSE(h.engine.completions[0].covered);
    EXPECT_TRUE(h.engine.completions[1].covered);
    EXPECT_EQ(h.fsm.stats().midMsgResumes, 1u);
}

TEST(StreamFsm, ResumeHandsTheEngineTheResumedMessagesPrefix)
{
    Harness h;
    h.engine.midResume = true;
    Bytes stream = buildStream(4, 1000);
    Bytes wire(stream.size());
    auto prefixOf = [&](uint64_t msgStart) {
        return Bytes(stream.begin() + msgStart,
                     stream.begin() + msgStart + MockEngine::kHdr);
    };

    // m1's prefix lies inside a packet that m1 outlives.
    EXPECT_TRUE(h.feed(stream, 0, 1100, wire));
    EXPECT_FALSE(h.feed(stream, 1300, 200, wire)); // [1100, 1300) lost
    EXPECT_TRUE(h.feed(stream, 1500, 200, wire));
    EXPECT_EQ(h.engine.lastResumeIdx, 1u);
    EXPECT_EQ(h.engine.lastResumeHdr, prefixOf(1000));

    // m2's prefix is lost: search finds m3's, software confirms it,
    // and m3 resumes with the prefix tracking saw.
    EXPECT_FALSE(h.feed(stream, 2100, 500, wire)); // [1700, 2100) lost
    EXPECT_FALSE(h.feed(stream, 2600, 410, wire));
    ASSERT_EQ(h.resyncReqs.size(), 1u);
    EXPECT_EQ(h.resyncReqs[0].second, 3000u);
    h.fsm.confirm(h.resyncReqs[0].first, true, 3);
    EXPECT_TRUE(h.feed(stream, 3010, 100, wire));
    EXPECT_EQ(h.engine.resumes, 2u);
    EXPECT_EQ(h.engine.lastResumeIdx, 3u);
    EXPECT_EQ(h.engine.lastResumeOff, 10u);
    EXPECT_EQ(h.engine.lastResumeHdr, prefixOf(3000));
}

TEST(StreamFsm, HeaderReorderingTriggersSearchTrackConfirm)
{
    // Figure 8c: the packet with a message header goes missing; the
    // NIC searches, speculates on a later header, tracks subsequent
    // headers, and resumes after software confirmation.
    Harness h;
    Bytes stream = buildStream(10, 250);
    Bytes wire(stream.size());

    // Feed [0,500) in packets of 100 -> m0, m1 covered.
    for (int p = 0; p < 5; p++)
        EXPECT_TRUE(h.feed(stream, p * 100, 100, wire));
    // Drop [500,600) which held m2's header (at 500).
    EXPECT_FALSE(h.feed(stream, 600, 100, wire)); // search, no magic
    EXPECT_EQ(h.fsm.state(), FsmState::Searching);
    EXPECT_FALSE(h.feed(stream, 700, 100, wire)); // contains m3 hdr @750
    EXPECT_EQ(h.fsm.state(), FsmState::Tracking);
    ASSERT_EQ(h.resyncReqs.size(), 1u);
    EXPECT_EQ(h.resyncReqs[0].second, 750u);

    // Keep tracking: header at 1000 (m4) verifies the chain.
    EXPECT_FALSE(h.feed(stream, 800, 100, wire));
    EXPECT_FALSE(h.feed(stream, 900, 100, wire));
    EXPECT_FALSE(h.feed(stream, 1000, 100, wire));
    EXPECT_EQ(h.fsm.state(), FsmState::Tracking);

    // Software confirms: message at 750 is m3.
    h.fsm.confirm(h.resyncReqs[0].first, true, 3);
    EXPECT_EQ(h.fsm.state(), FsmState::Offloading);
    EXPECT_FALSE(h.fsm.transformsActive()); // still skipping

    // m5 spans [1250,1500); m6 starts at 1500 == packet start after
    // feeding [1100,1500) in 100-byte packets.
    EXPECT_FALSE(h.feed(stream, 1100, 100, wire));
    EXPECT_FALSE(h.feed(stream, 1200, 100, wire));
    EXPECT_FALSE(h.feed(stream, 1300, 100, wire));
    EXPECT_FALSE(h.feed(stream, 1400, 100, wire));
    EXPECT_TRUE(h.feed(stream, 1500, 1000, wire)); // m6.. resume!

    ASSERT_GE(h.engine.completions.size(), 3u);
    // First two completions are m0, m1; next is m6 with correct index.
    EXPECT_EQ(h.engine.completions[2].idx, 6u);
    EXPECT_TRUE(h.engine.completions[2].covered);
    EXPECT_TRUE(bodyTransformed(wire, stream, 1500, 250));
    EXPECT_FALSE(bodyTransformed(wire, stream, 1250, 250));
    EXPECT_EQ(h.fsm.stats().resyncConfirmed, 1u);
}

TEST(StreamFsm, TraceRingRecordsLossResyncTransitions)
{
    // Acceptance: drive loss + resync and check the trace ring holds
    // the searching -> tracking -> offloading walk with monotonic
    // timestamps.
    Harness h;
    sim::TraceRing ring(64);
    ring.enable();
    sim::Tick clock = 0;
    FsmHooks hooks;
    hooks.now = [&clock] { return clock; };
    hooks.trace = &ring;
    hooks.traceId = 7;
    hooks.name = "test.fsm";
    h.fsm.setHooks(std::move(hooks));
    h.fsm.reset(0, 0);

    Bytes stream = buildStream(10, 250);
    Bytes wire(stream.size());
    for (int p = 0; p < 5; p++) {
        clock += sim::kNanosecond;
        EXPECT_TRUE(h.feed(stream, p * 100, 100, wire));
    }
    clock += sim::kNanosecond;
    EXPECT_FALSE(h.feed(stream, 600, 100, wire)); // loss -> Searching
    clock += sim::kNanosecond;
    EXPECT_FALSE(h.feed(stream, 700, 100, wire)); // m3 hdr -> Tracking
    ASSERT_EQ(h.resyncReqs.size(), 1u);
    clock += sim::kNanosecond;
    h.fsm.confirm(h.resyncReqs[0].first, true, 3); // -> Offloading
    EXPECT_EQ(h.fsm.state(), FsmState::Offloading);

    std::vector<sim::TraceEvent> ev = ring.events();
    for (size_t i = 1; i < ev.size(); i++)
        EXPECT_GE(ev[i].ts, ev[i - 1].ts); // oldest-first, monotonic

    std::vector<sim::TraceEvent> trans;
    bool sawRequest = false, sawConfirm = false;
    for (const sim::TraceEvent &e : ev) {
        if (e.kind == sim::TraceKind::FsmTransition)
            trans.push_back(e);
        sawRequest |= e.kind == sim::TraceKind::ResyncRequest;
        sawConfirm |= e.kind == sim::TraceKind::ResyncConfirmed;
    }
    EXPECT_TRUE(sawRequest);
    EXPECT_TRUE(sawConfirm);
    ASSERT_GE(trans.size(), 3u);
    auto from = [](const sim::TraceEvent &e) {
        return static_cast<FsmState>(e.a);
    };
    auto to = [](const sim::TraceEvent &e) {
        return static_cast<FsmState>(e.b);
    };
    const sim::TraceEvent &t0 = trans[trans.size() - 3];
    const sim::TraceEvent &t1 = trans[trans.size() - 2];
    const sim::TraceEvent &t2 = trans[trans.size() - 1];
    EXPECT_EQ(from(t0), FsmState::Offloading);
    EXPECT_EQ(to(t0), FsmState::Searching);
    EXPECT_EQ(from(t1), FsmState::Searching);
    EXPECT_EQ(to(t1), FsmState::Tracking);
    EXPECT_EQ(from(t2), FsmState::Tracking);
    EXPECT_EQ(to(t2), FsmState::Offloading);
    EXPECT_LT(t0.ts, t1.ts);
    EXPECT_LT(t1.ts, t2.ts);
    for (const sim::TraceEvent &t : trans) {
        EXPECT_EQ(t.id, 7u);
        EXPECT_EQ(t.comp, "test.fsm");
    }
}

TEST(StreamFsm, RefutedSpeculationKeepsSearching)
{
    Harness h;
    Bytes stream = buildStream(10, 250);
    Bytes wire(stream.size());

    for (int p = 0; p < 5; p++)
        EXPECT_TRUE(h.feed(stream, p * 100, 100, wire));
    EXPECT_FALSE(h.feed(stream, 600, 200, wire)); // m3 hdr @750 missed? no:
    // [600,800) contains m3 hdr at 750 -> candidate.
    ASSERT_EQ(h.resyncReqs.size(), 1u);
    h.fsm.confirm(h.resyncReqs[0].first, false, 0); // software refutes
    EXPECT_EQ(h.fsm.state(), FsmState::Searching);

    // Next header at 1000 becomes a new candidate.
    EXPECT_FALSE(h.feed(stream, 800, 300, wire));
    ASSERT_EQ(h.resyncReqs.size(), 2u);
    EXPECT_EQ(h.resyncReqs[1].second, 1000u);
    h.fsm.confirm(h.resyncReqs[1].first, true, 4);

    // m5 starts at 1250; feed [1100,1250) then aligned packet at 1250.
    EXPECT_FALSE(h.feed(stream, 1100, 150, wire));
    EXPECT_TRUE(h.feed(stream, 1250, 250, wire));
    ASSERT_EQ(h.engine.completions.size(), 3u);
    EXPECT_EQ(h.engine.completions[2].idx, 5u);
}

TEST(StreamFsm, FalsePositiveMagicInPayloadIsRejectedByTracking)
{
    Harness h;
    // Craft message bodies that contain a fake header whose length
    // field points into garbage.
    Bytes stream = buildStream(8, 250);
    // Plant a fake header inside m2's body at position 600.
    stream[600] = MockEngine::kMagic0;
    stream[601] = MockEngine::kMagic1;
    putBe32(stream.data() + 602, 100); // fake msg of 100 bytes -> 700
    // Position 700 (inside m2) holds body bytes, not a header, so
    // tracking must reject the speculation.
    Bytes wire(stream.size());

    for (int p = 0; p < 5; p++)
        EXPECT_TRUE(h.feed(stream, p * 100, 100, wire));
    // Drop [500,600) (m2 header). Search starts; at [600,700) the fake
    // magic matches -> candidate at 600, tracking expects hdr at 700.
    EXPECT_FALSE(h.feed(stream, 600, 100, wire));
    ASSERT_EQ(h.resyncReqs.size(), 1u);
    EXPECT_EQ(h.resyncReqs[0].second, 600u);
    EXPECT_EQ(h.fsm.state(), FsmState::Tracking);

    // [700,800): no magic at 700 -> tracking fails -> search resumes
    // and finds the true m3 header at 750.
    EXPECT_FALSE(h.feed(stream, 700, 100, wire));
    EXPECT_EQ(h.fsm.stats().trackFailures, 1u);
    ASSERT_EQ(h.resyncReqs.size(), 2u);
    EXPECT_EQ(h.resyncReqs[1].second, 750u);

    // Stale confirmation for the first request is ignored.
    h.fsm.confirm(h.resyncReqs[0].first, true, 99);
    EXPECT_EQ(h.fsm.state(), FsmState::Tracking);

    h.fsm.confirm(h.resyncReqs[1].first, true, 3);
    EXPECT_EQ(h.fsm.state(), FsmState::Offloading);

    // m4 at 1000: feed to 1000 then aligned packet.
    EXPECT_FALSE(h.feed(stream, 800, 200, wire));
    EXPECT_TRUE(h.feed(stream, 1000, 250, wire));
    ASSERT_EQ(h.engine.completions.size(), 3u);
    EXPECT_EQ(h.engine.completions[2].idx, 4u);
}

TEST(StreamFsm, MagicSplitAcrossPacketsIsFoundWhileSearching)
{
    Harness h;
    Bytes stream = buildStream(6, 250);
    Bytes wire(stream.size());

    for (int p = 0; p < 5; p++)
        EXPECT_TRUE(h.feed(stream, p * 100, 100, wire));
    // Drop [500,600); m3 header at 750. Feed [600,753) and [753,900):
    // the header is split 3/5 across the two packets.
    EXPECT_FALSE(h.feed(stream, 600, 153, wire));
    EXPECT_EQ(h.fsm.state(), FsmState::Searching);
    EXPECT_FALSE(h.feed(stream, 753, 147, wire));
    ASSERT_EQ(h.resyncReqs.size(), 1u);
    EXPECT_EQ(h.resyncReqs[0].second, 750u);
}

TEST(StreamFsm, PositionLostRequiresFreshSearch)
{
    Harness h;
    Bytes stream = buildStream(6, 250);
    Bytes wire(stream.size());
    EXPECT_TRUE(h.feed(stream, 0, 250, wire));
    h.fsm.positionLost();
    EXPECT_EQ(h.fsm.state(), FsmState::Searching);
    // Continue at an arbitrary position; the next full header (m2 at
    // 500) becomes a candidate even without continuity.
    EXPECT_FALSE(h.feed(stream, 450, 150, wire));
    ASSERT_EQ(h.resyncReqs.size(), 1u);
    EXPECT_EQ(h.resyncReqs[0].second, 500u);
}

TEST(StreamFsm, TinyMessagesManyPerPacket)
{
    Harness h;
    Bytes stream = buildStream(100, 20); // 20-byte messages
    Bytes wire(stream.size());
    EXPECT_TRUE(h.feed(stream, 0, 1000, wire));
    EXPECT_TRUE(h.feed(stream, 1000, 1000, wire));
    EXPECT_EQ(h.engine.completions.size(), 100u);
    EXPECT_EQ(h.fsm.stats().msgsCovered, 100u);
}

TEST(StreamFsm, GapLandingOnKnownBoundaryAvoidsSearch)
{
    // The tail of m0 is lost but m0's header (and thus the boundary
    // at 250) is known: the packet arriving at exactly the boundary
    // is dry-run-framed (per the paper, offload resumes for the
    // packet *following* an OoS packet), and the next aligned packet
    // resumes full offload with the correct message index -- all
    // without any software resync round-trip.
    Harness h;
    Bytes stream = buildStream(4, 250);
    Bytes wire(stream.size());
    EXPECT_TRUE(h.feed(stream, 0, 100, wire));
    // Drop [100,250); m1 arrives aligned at the known boundary 250.
    EXPECT_FALSE(h.feed(stream, 250, 250, wire)); // OoS pkt: dry-run
    EXPECT_EQ(h.fsm.state(), FsmState::Offloading);
    EXPECT_TRUE(h.resyncReqs.empty());
    EXPECT_TRUE(h.feed(stream, 500, 500, wire)); // m2, m3 full offload
    ASSERT_EQ(h.engine.completions.size(), 2u);
    EXPECT_EQ(h.engine.completions[0].idx, 2u);
    EXPECT_TRUE(h.engine.completions[0].covered);
    EXPECT_TRUE(bodyTransformed(wire, stream, 500, 250));
    EXPECT_FALSE(bodyTransformed(wire, stream, 250, 250));
}

TEST(StreamFsm, SteadyStateResyncCycleDoesZeroHeapAllocation)
{
    // One cycle per 6 x 300-byte messages m0..m5: offload with prefixes
    // split across packets, a loss that hides m2's prefix, a search
    // that first speculates on a magic pattern in m3's payload (its
    // length leads tracking into m4's body, split across packets), a
    // search that finds m5's prefix split across packets, software's
    // confirmation, framing to the next cycle's m0 and offload again.
    constexpr uint64_t kLen = 300;
    constexpr uint64_t kMsgs = 6;
    constexpr uint64_t kCycle = kLen * kMsgs;
    const Bytes plain = buildStream(1, kLen);
    Bytes decoy = plain;
    decoy[150] = MockEngine::kMagic0;
    decoy[151] = MockEngine::kMagic1;
    putBe32(decoy.data() + 152, 200);

    MockEngine engine;
    engine.starts.reserve(4096);
    engine.completions.reserve(4096);
    uint64_t reqId = 0;
    uint64_t reqPos = 0;
    StreamFsm fsm(engine, [&](uint64_t id, uint64_t pos) {
        reqId = id;
        reqPos = pos;
    });
    fsm.reset(0, 0);

    Bytes pkt(kCycle);
    auto feed = [&](uint64_t from, uint64_t to) {
        ByteSpan span(pkt.data(), to - from);
        for (uint64_t p = from; p < to; p++) {
            const Bytes &m = (p / kLen) % kMsgs == 3 ? decoy : plain;
            span[p - from] = m[p % kLen];
        }
        PacketResult res;
        return fsm.segment(from, span, res);
    };
    auto cycle = [&](uint64_t c) {
        const uint64_t b = c * kCycle;
        EXPECT_TRUE(feed(b, b + 304));        // m0, 4 bytes of m1's prefix
        EXPECT_TRUE(feed(b + 304, b + 603));  // m1, 3 bytes of m2's prefix
        EXPECT_FALSE(feed(b + 905, b + 1100)); // [603, 905) lost
        EXPECT_EQ(reqPos, b + 1050);           // the decoy in m3
        EXPECT_FALSE(feed(b + 1100, b + 1255));
        EXPECT_FALSE(feed(b + 1255, b + 1400)); // tracking fails in m4
        EXPECT_FALSE(feed(b + 1400, b + 1504));
        EXPECT_FALSE(feed(b + 1504, b + 1700));
        EXPECT_EQ(reqPos, b + 1500); // m5
        fsm.confirm(reqId, true, c * kMsgs + 5);
        EXPECT_FALSE(feed(b + 1700, b + 1800)); // framing only, to m0
    };

    constexpr uint64_t kWarm = 10;
    constexpr uint64_t kCycles = 1000;
    for (uint64_t c = 0; c < kWarm; c++)
        cycle(c);
    testing::AllocCounter::start();
    for (uint64_t c = kWarm; c < kWarm + kCycles; c++)
        cycle(c);
    testing::AllocCounter::stop();

    EXPECT_EQ(testing::AllocCounter::calls, 0u)
        << testing::AllocCounter::bytes << " bytes";
    EXPECT_EQ(fsm.stats().resyncRequests, 2 * (kWarm + kCycles));
    EXPECT_EQ(fsm.stats().trackFailures, kWarm + kCycles);
    EXPECT_EQ(fsm.stats().resyncConfirmed, kWarm + kCycles);
    ASSERT_EQ(engine.starts.size(), 2 * (kWarm + kCycles));
    EXPECT_EQ(engine.starts.back(), (kWarm + kCycles - 1) * kMsgs + 1);
    EXPECT_EQ(fsm.stats().msgsCovered, 2 * (kWarm + kCycles));
}

} // namespace
} // namespace anic::nic
