/**
 * @file
 * Exhaustive transition-table coverage for the autonomous-offload
 * StreamFsm: every (state x input event) cell asserts the documented
 * next state (or rejection), and the union of edges observed by an
 * FsmProbe across all cells must equal exactly the edge set of the
 * paper's Figure 7 diagram. A second group covers resync-handshake
 * edge cases around retransmit boundaries: stale/duplicate/late
 * confirmations, adoption at boundary / mid-body / mid-header, and
 * retransmitted spans arriving while a speculation is in flight.
 *
 * Uses the same mock L5P as fsm_test.cpp: 8-byte header (magic
 * 0xa5 0x5a + 4-byte BE length), XOR-0x55 transform.
 */

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <utility>

#include "nic/stream_fsm.hh"
#include "util/bytes.hh"

namespace anic::nic {
namespace {

class TableEngine : public L5Engine
{
  public:
    static constexpr size_t kHdr = 8;
    static constexpr uint8_t kMagic0 = 0xa5;
    static constexpr uint8_t kMagic1 = 0x5a;

    struct Done
    {
        uint64_t idx;
        bool covered;
    };
    std::vector<Done> completions;
    uint64_t aborts = 0;
    uint64_t curIdx = 0;

    /** The mock framing; the engine waits for boundaries to resume. */
    static const net::MsgWire kWire;

    TableEngine() : L5Engine(kWire, {}) {}

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
    onMsgStart(uint64_t idx, const net::MsgFrame &, ByteView) override
    {
        curIdx = idx;
    }

    void
    onMsgData(uint64_t, ByteSpan d, PacketResult &res) override
    {
        for (auto &b : d)
            b ^= 0x55;
        res.bytesTransformed += d.size();
    }

    void
    onMsgEnd(bool covered, PacketResult &) override
    {
        completions.push_back({curIdx, covered});
    }

    void
    onMsgResume(uint64_t idx, const net::MsgFrame &, ByteView,
                uint64_t) override
    {
        curIdx = idx;
    }

    void onMsgAbort() override { aborts++; }
};

const net::MsgWire TableEngine::kWire{net::L5Kind::None, kHdr, parsePrefix,
                                      /*resumeMidMessage=*/false};

using Edge = std::pair<FsmState, FsmState>;

/** Collects transition edges and asserts the per-event invariants the
 *  differential fuzzer also checks: no self-loop reports, and a span
 *  only counts as processed when it was in-sequence in Offloading. */
struct EdgeProbe : FsmProbe
{
    std::set<Edge> edges;

    void
    onTransition(uint64_t, FsmState from, FsmState to) override
    {
        EXPECT_NE(from, to) << "self-loops must not be reported";
        edges.insert({from, to});
    }

    void
    onSegment(uint64_t, FsmState pre, uint64_t pos, uint64_t preExpected,
              size_t, bool processed) override
    {
        if (processed) {
            EXPECT_EQ(pre, FsmState::Offloading);
            EXPECT_EQ(pos, preExpected);
        }
    }
};

/** Stream of @p count messages, each @p msgLen bytes. */
Bytes
buildStream(int count, uint32_t msgLen)
{
    Bytes s;
    for (int i = 0; i < count; i++) {
        size_t base = s.size();
        s.resize(base + msgLen, 0x11);
        s[base] = TableEngine::kMagic0;
        s[base + 1] = TableEngine::kMagic1;
        putBe32(s.data() + base + 2, msgLen);
        putBe16(s.data() + base + 6, static_cast<uint16_t>(i));
    }
    return s;
}

/**
 * A fresh FSM over an 8-message x 250-byte stream with a probe
 * installed before reset. Message k spans [250k, 250k+250); headers
 * occupy the first 8 bytes of each.
 */
struct H
{
    TableEngine eng;
    EdgeProbe probe;
    StreamFsm fsm;
    std::vector<std::pair<uint64_t, uint64_t>> reqs; // (id, pos)
    Bytes stream = buildStream(8, 250);
    PacketResult lastRes;

    H()
        : fsm(eng, [this](uint64_t id, uint64_t pos) {
              reqs.emplace_back(id, pos);
          })
    {
        FsmHooks hooks;
        hooks.probe = &probe;
        fsm.setHooks(std::move(hooks));
        fsm.reset(0, 0);
    }

    bool
    feed(uint64_t pos, size_t len)
    {
        Bytes chunk(stream.begin() + pos, stream.begin() + pos + len);
        lastRes = PacketResult{};
        return fsm.segment(pos, chunk, lastRes);
    }
};

// Preparations driving a fresh FSM into each start state. Offloading
// has two relevant sub-configurations: at a message boundary (header
// unseen) and mid-message (header complete, boundary known).

void
prepOffloadBoundary(H &h) // expected_=250, no partial header
{
    ASSERT_TRUE(h.feed(0, 250));
    ASSERT_EQ(h.fsm.state(), FsmState::Offloading);
}

void
prepOffloadMidMsg(H &h) // expected_=100, m0 header known, boundary 250
{
    ASSERT_TRUE(h.feed(0, 100));
    ASSERT_EQ(h.fsm.state(), FsmState::Offloading);
}

void
prepSearching(H &h) // m1 header (at 250) lost; scanned m1 body
{
    prepOffloadBoundary(h);
    ASSERT_FALSE(h.feed(350, 100)); // gap, header unseen -> search
    ASSERT_EQ(h.fsm.state(), FsmState::Searching);
}

void
prepTracking(H &h) // candidate = m3 header at 750; trackCont = 800
{
    prepSearching(h);
    ASSERT_FALSE(h.feed(700, 100));
    ASSERT_EQ(h.fsm.state(), FsmState::Tracking);
    ASSERT_EQ(h.reqs.size(), 1u);
    ASSERT_EQ(h.reqs[0].second, 750u);
}

TEST(FsmTable, ExhaustiveStateEventMatrix)
{
    struct Row
    {
        const char *name;
        void (*prep)(H &);
        std::function<void(H &)> event;
        FsmState end;
    };

    // Every input-event class the FSM distinguishes, applied in every
    // state where it can occur. Rejected events (stale spans, stale or
    // wrong-state confirmations) must leave the state unchanged.
    const Row rows[] = {
        // ---------------- Offloading
        {"off: in-sequence span processes", prepOffloadBoundary,
         [](H &h) { EXPECT_TRUE(h.feed(250, 250)); },
         FsmState::Offloading},
        {"off: fully old span bypassed", prepOffloadBoundary,
         [](H &h) {
             EXPECT_FALSE(h.feed(0, 100));
             EXPECT_EQ(h.fsm.stats().bypassedSpans, 1u);
         },
         FsmState::Offloading},
        {"off: overlapping span bypassed", prepOffloadBoundary,
         [](H &h) { EXPECT_FALSE(h.feed(100, 300)); },
         FsmState::Offloading},
        {"off: gap with header unseen -> search", prepOffloadBoundary,
         [](H &h) {
             EXPECT_FALSE(h.feed(350, 100));
             EXPECT_EQ(h.fsm.stats().gapEvents, 1u);
         },
         FsmState::Searching},
        {"off: gap inside current message -> skip", prepOffloadMidMsg,
         [](H &h) {
             EXPECT_FALSE(h.feed(150, 50));
             EXPECT_FALSE(h.fsm.transformsActive());
         },
         FsmState::Offloading},
        {"off: gap landing on known boundary -> skip", prepOffloadMidMsg,
         [](H &h) {
             EXPECT_FALSE(h.feed(250, 100));
             EXPECT_TRUE(h.reqs.empty()); // no software round-trip
         },
         FsmState::Offloading},
        {"off: gap past known boundary -> search", prepOffloadMidMsg,
         [](H &h) { EXPECT_FALSE(h.feed(300, 100)); },
         FsmState::Searching},
        {"off: positionLost -> search", prepOffloadBoundary,
         [](H &h) { h.fsm.positionLost(); }, FsmState::Searching},
        {"off: confirm rejected (wrong state)", prepOffloadBoundary,
         [](H &h) {
             h.fsm.confirm(1, true, 9);
             EXPECT_TRUE(h.feed(250, 250)); // context undamaged
         },
         FsmState::Offloading},
        {"off: reset re-arms", prepOffloadMidMsg,
         [](H &h) { h.fsm.reset(2000, 8); }, FsmState::Offloading},

        // ---------------- Searching
        {"search: span without magic keeps searching", prepSearching,
         [](H &h) { EXPECT_FALSE(h.feed(460, 40)); },
         FsmState::Searching},
        {"search: span with magic -> tracking + request", prepSearching,
         [](H &h) {
             EXPECT_FALSE(h.feed(700, 100));
             ASSERT_EQ(h.reqs.size(), 1u);
             EXPECT_EQ(h.reqs[0].second, 750u);
             EXPECT_EQ(h.fsm.stats().resyncRequests, 1u);
         },
         FsmState::Tracking},
        {"search: magic split across spans -> tracking", prepSearching,
         [](H &h) {
             EXPECT_FALSE(h.feed(700, 53)); // 3 of 8 header bytes
             EXPECT_EQ(h.fsm.state(), FsmState::Searching);
             EXPECT_FALSE(h.feed(753, 100));
             ASSERT_EQ(h.reqs.size(), 1u);
             EXPECT_EQ(h.reqs[0].second, 750u);
         },
         FsmState::Tracking},
        {"search: stale retransmitted span rejected", prepSearching,
         [](H &h) { EXPECT_FALSE(h.feed(350, 100)); },
         FsmState::Searching},
        {"search: positionLost stays searching", prepSearching,
         [](H &h) { h.fsm.positionLost(); }, FsmState::Searching},
        {"search: confirm rejected (wrong state)", prepSearching,
         [](H &h) { h.fsm.confirm(1, true, 3); }, FsmState::Searching},
        {"search: reset re-arms", prepSearching,
         [](H &h) { h.fsm.reset(2000, 8); }, FsmState::Offloading},

        // ---------------- Tracking (candidate m3 @750, next hdr @1000)
        {"track: body bytes keep tracking", prepTracking,
         [](H &h) { EXPECT_FALSE(h.feed(800, 100)); },
         FsmState::Tracking},
        {"track: matching next header keeps tracking", prepTracking,
         [](H &h) {
             EXPECT_FALSE(h.feed(800, 300)); // crosses m4 hdr @1000
             EXPECT_EQ(h.fsm.stats().trackFailures, 0u);
         },
         FsmState::Tracking},
        {"track: mismatching next header -> search", prepTracking,
         [](H &h) {
             h.stream[1000] = 0x00; // destroy m4's magic
             EXPECT_FALSE(h.feed(800, 300));
             EXPECT_EQ(h.fsm.stats().trackFailures, 1u);
         },
         FsmState::Searching},
        {"track: gap over next header -> search", prepTracking,
         [](H &h) { EXPECT_FALSE(h.feed(1100, 100)); },
         FsmState::Searching},
        {"track: gap within body keeps tracking", prepTracking,
         [](H &h) { EXPECT_FALSE(h.feed(900, 100)); },
         FsmState::Tracking},
        {"track: gap while mid-header -> search", prepTracking,
         [](H &h) {
             EXPECT_FALSE(h.feed(800, 204)); // 4 of m4's hdr bytes
             EXPECT_EQ(h.fsm.state(), FsmState::Tracking);
             EXPECT_FALSE(h.feed(1100, 100));
         },
         FsmState::Searching},
        {"track: stale retransmitted span rejected", prepTracking,
         [](H &h) { EXPECT_FALSE(h.feed(700, 100)); },
         FsmState::Tracking},
        {"track: confirm ok -> offloading", prepTracking,
         [](H &h) {
             h.fsm.confirm(h.reqs[0].first, true, 3);
             EXPECT_EQ(h.fsm.stats().resyncConfirmed, 1u);
         },
         FsmState::Offloading},
        {"track: confirm refuted -> search", prepTracking,
         [](H &h) {
             h.fsm.confirm(h.reqs[0].first, false, 0);
             EXPECT_EQ(h.fsm.stats().resyncRefuted, 1u);
         },
         FsmState::Searching},
        {"track: confirm with stale id rejected", prepTracking,
         [](H &h) {
             h.fsm.confirm(h.reqs[0].first + 7, true, 3);
             EXPECT_EQ(h.fsm.stats().resyncConfirmed, 0u);
         },
         FsmState::Tracking},
        {"track: positionLost -> search", prepTracking,
         [](H &h) { h.fsm.positionLost(); }, FsmState::Searching},
        {"track: reset re-arms", prepTracking,
         [](H &h) { h.fsm.reset(2000, 8); }, FsmState::Offloading},
    };

    std::set<Edge> seen;
    for (const Row &row : rows) {
        SCOPED_TRACE(row.name);
        H h;
        row.prep(h);
        row.event(h);
        EXPECT_EQ(h.fsm.state(), row.end);
        seen.insert(h.probe.edges.begin(), h.probe.edges.end());
    }

    // The union of edges over the whole matrix must be exactly the
    // documented diagram: the offload-loss-recovery cycle plus the
    // reset edges back to Offloading. Anything else (in particular
    // Offloading -> Tracking, which would mean speculating without
    // searching) is a bug.
    const std::set<Edge> legal = {
        {FsmState::Offloading, FsmState::Searching},
        {FsmState::Searching, FsmState::Tracking},
        {FsmState::Tracking, FsmState::Searching},
        {FsmState::Tracking, FsmState::Offloading},
        {FsmState::Searching, FsmState::Offloading}, // reset / confirm
    };
    EXPECT_EQ(seen, legal);
}

// ------------------------------------------------------------------
// Resync-handshake edge cases around retransmit boundaries.

TEST(FsmResync, RequestIdsStrictlyIncreaseAcrossRespeculation)
{
    H h;
    prepTracking(h);
    for (int round = 0; round < 3; round++) {
        ASSERT_EQ(h.reqs.size(), static_cast<size_t>(round + 1));
        h.fsm.confirm(h.reqs.back().first, false, 0);
        ASSERT_EQ(h.fsm.state(), FsmState::Searching);
        // Search continues at the tracked position; the next message
        // header becomes a fresh candidate with a fresh id.
        uint64_t next = 1000 + 250 * static_cast<uint64_t>(round);
        h.feed(next - 50, 100);
        ASSERT_EQ(h.fsm.state(), FsmState::Tracking);
    }
    ASSERT_EQ(h.reqs.size(), 4u);
    for (size_t i = 1; i < h.reqs.size(); i++) {
        EXPECT_GT(h.reqs[i].first, h.reqs[i - 1].first);
        EXPECT_GT(h.reqs[i].second, h.reqs[i - 1].second);
    }
    EXPECT_EQ(h.fsm.stats().resyncRefuted, 3u);
}

TEST(FsmResync, DuplicateConfirmIsIgnored)
{
    H h;
    prepTracking(h);
    uint64_t id = h.reqs[0].first;
    h.fsm.confirm(id, true, 3);
    ASSERT_EQ(h.fsm.state(), FsmState::Offloading);
    // A duplicated (retransmitted) confirmation must be a no-op.
    h.fsm.confirm(id, true, 3);
    h.fsm.confirm(id, false, 0);
    EXPECT_EQ(h.fsm.state(), FsmState::Offloading);
    EXPECT_EQ(h.fsm.stats().resyncConfirmed, 1u);
    EXPECT_EQ(h.fsm.stats().resyncRefuted, 0u);
}

TEST(FsmResync, LateConfirmAfterChainCollapseIsIgnored)
{
    H h;
    prepTracking(h);
    uint64_t firstId = h.reqs[0].first;
    h.stream[1000] = 0x00; // m4 magic destroyed -> tracking fails
    EXPECT_FALSE(h.feed(800, 300));
    ASSERT_EQ(h.fsm.state(), FsmState::Searching);

    // The in-flight confirmation for the abandoned speculation races
    // with the collapse and must not be adopted.
    h.fsm.confirm(firstId, true, 3);
    EXPECT_EQ(h.fsm.state(), FsmState::Searching);
    EXPECT_EQ(h.fsm.stats().resyncConfirmed, 0u);

    // A later candidate (m5 header at 1250) gets a larger id and its
    // confirmation works normally.
    EXPECT_FALSE(h.feed(1200, 100));
    ASSERT_EQ(h.reqs.size(), 2u);
    EXPECT_GT(h.reqs[1].first, firstId);
    EXPECT_EQ(h.reqs[1].second, 1250u);
    h.fsm.confirm(h.reqs[1].first, true, 5);
    EXPECT_EQ(h.fsm.state(), FsmState::Offloading);
}

TEST(FsmResync, RetransmitDuringSpeculationDoesNotDisturbIt)
{
    H h;
    prepTracking(h);
    // Old spans (retransmissions of data before the candidate) arrive
    // while the resync request is in flight: rejected as stale, the
    // speculation survives and confirmation still lands.
    EXPECT_FALSE(h.feed(0, 250));
    EXPECT_FALSE(h.feed(600, 150));
    EXPECT_EQ(h.fsm.state(), FsmState::Tracking);
    h.fsm.confirm(h.reqs[0].first, true, 3);
    EXPECT_EQ(h.fsm.state(), FsmState::Offloading);

    // And a retransmission straddling the adopted position afterwards
    // is bypassed without damaging the recovered context.
    EXPECT_FALSE(h.feed(700, 200));
    EXPECT_EQ(h.fsm.state(), FsmState::Offloading);
}

TEST(FsmResync, AdoptAtExactBoundary)
{
    H h;
    prepTracking(h);
    EXPECT_FALSE(h.feed(800, 200)); // body up to exactly m4's header
    h.fsm.confirm(h.reqs[0].first, true, 3);
    ASSERT_EQ(h.fsm.state(), FsmState::Offloading);
    EXPECT_FALSE(h.fsm.transformsActive()); // skip until aligned pkt

    // Next packet starts exactly at the m4 boundary: full resume with
    // the correct message index.
    EXPECT_TRUE(h.feed(1000, 250));
    ASSERT_EQ(h.eng.completions.size(), 2u); // m0, then m4
    EXPECT_EQ(h.eng.completions[1].idx, 4u);
    EXPECT_TRUE(h.eng.completions[1].covered);
}

TEST(FsmResync, AdoptMidBodySkipsToNextBoundary)
{
    H h;
    prepTracking(h);
    EXPECT_FALSE(h.feed(800, 300)); // tracked past m4's header to 1100
    h.fsm.confirm(h.reqs[0].first, true, 3);
    ASSERT_EQ(h.fsm.state(), FsmState::Offloading);

    // Mid-body of m4: the rest of m4 is framed in skip mode, m5
    // resumes fully at its aligned boundary.
    EXPECT_FALSE(h.feed(1100, 150));
    EXPECT_TRUE(h.feed(1250, 250));
    ASSERT_EQ(h.eng.completions.size(), 2u);
    EXPECT_EQ(h.eng.completions[1].idx, 5u);
    EXPECT_TRUE(h.eng.completions[1].covered);
}

TEST(FsmResync, AdoptMidHeaderResumesWithPartialHeader)
{
    H h;
    prepTracking(h);
    EXPECT_FALSE(h.feed(800, 204)); // 4 of m4's 8 header bytes seen
    h.fsm.confirm(h.reqs[0].first, true, 3);
    ASSERT_EQ(h.fsm.state(), FsmState::Offloading);

    // The partial header carries over: framing continues through m4
    // in skip mode, m5 resumes fully.
    EXPECT_FALSE(h.feed(1004, 246));
    EXPECT_TRUE(h.feed(1250, 250));
    ASSERT_EQ(h.eng.completions.size(), 2u);
    EXPECT_EQ(h.eng.completions[1].idx, 5u);
    EXPECT_TRUE(h.eng.completions[1].covered);
}

TEST(FsmResync, WrongConfirmationDesyncsAndTagsPacketFailed)
{
    H h;
    // Plant a fake header inside m2's body whose length field points
    // at plain body bytes.
    h.stream[600] = TableEngine::kMagic0;
    h.stream[601] = TableEngine::kMagic1;
    putBe32(h.stream.data() + 602, 100); // fake boundary at 700
    prepSearching(h);

    EXPECT_FALSE(h.feed(600, 8)); // exactly the fake header
    ASSERT_EQ(h.fsm.state(), FsmState::Tracking);
    ASSERT_EQ(h.reqs.size(), 1u);
    EXPECT_EQ(h.reqs[0].second, 600u);

    // Software (wrongly) confirms the fake speculation. The FSM obeys
    // -- transparency now rests on in-sequence framing detecting the
    // lie at the fake boundary.
    h.fsm.confirm(h.reqs[0].first, true, 42);
    ASSERT_EQ(h.fsm.state(), FsmState::Offloading);

    EXPECT_FALSE(h.feed(608, 92)); // skip-framed to fake boundary 700
    EXPECT_FALSE(h.feed(700, 100)); // "header" at 700 is body bytes
    EXPECT_EQ(h.fsm.stats().desyncs, 1u);
    EXPECT_TRUE(h.lastRes.tagFailed); // packet flagged for software
    // The rescan of the same packet finds m3's genuine header at 750
    // and immediately re-speculates: recovery restarts on its own.
    EXPECT_EQ(h.fsm.state(), FsmState::Tracking);
    ASSERT_EQ(h.reqs.size(), 2u);
    EXPECT_EQ(h.reqs[1].second, 750u);
}

} // namespace
} // namespace anic::nic
