/**
 * @file
 * Property-based tests (parameterized sweeps over random seeds):
 *
 *  - StreamFsm + TLS engine torture: random record sizes, random
 *    loss with delayed retransmission, overlapping retransmits and
 *    duplicates; invariants: (a) every byte the FSM marked processed
 *    decrypts to the true plaintext, (b) software confirmation always
 *    re-converges the FSM, (c) no tag failures ever surface.
 *  - TCP invariants under random impairment mixes: exact in-order
 *    byte delivery, bounded receive queue.
 *  - TLS socket end-to-end under random impairments with both
 *    offloads: delivery, authentication, and record classification
 *    consistency (full + partial + none == total).
 */

#include <gtest/gtest.h>

#include <map>

#include "nic/stream_fsm.hh"
#include "core/testbed.hh"
#include "support/scenario.hh"
#include "tls/ktls.hh"
#include "tls/tls_engine.hh"

namespace anic {
namespace {

// ------------------------------------------------ FSM + engine torture

class FsmTorture : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(FsmTorture, ProcessedBytesAlwaysDecryptCorrectly)
{
    const uint64_t seed = GetParam();
    Rng rng(seed);

    tls::DirectionKeys keys;
    keys.key.assign(16, 0x11);
    keys.staticIv.assign(12, 0x22);

    // Build a ciphertext stream of records with random sizes (shared
    // generator, tests/support/scenario.hh).
    const int kRecords = 200;
    std::vector<testing::RecordInfo> records;
    Bytes stream = testing::buildTlsRecordStream(keys, rng, kRecords,
                                                 /*plainSeed=*/7, records);
    std::map<uint64_t, uint64_t> recStartToIdx;
    for (size_t i = 0; i < records.size(); i++)
        recStartToIdx[records[i].start] = i;

    tls::TlsRxEngine eng(keys);
    uint64_t pendingReq = 0;
    uint64_t pendingPos = 0;
    bool havePending = false;
    nic::StreamFsm fsm(eng, [&](uint64_t id, uint64_t pos) {
        pendingReq = id;
        pendingPos = pos;
        havePending = true;
    });
    fsm.reset(0, 0);

    struct Span
    {
        uint64_t pos;
        size_t len;
        bool processed;
    };
    std::vector<Span> spans;
    Bytes wire = stream;
    int confirm_delay = -1;

    auto feed = [&](uint64_t p, size_t n) {
        Bytes pkt(stream.begin() + p, stream.begin() + p + n);
        nic::PacketResult res;
        bool processed = fsm.segment(p, pkt, res);
        EXPECT_FALSE(res.tagFailed) << "seed " << seed << " pos " << p;
        if (processed)
            std::memcpy(wire.data() + p, pkt.data(), n);
        spans.push_back({p, n, processed});
        if (havePending && confirm_delay < 0)
            confirm_delay = static_cast<int>(rng.range(1, 6));
    };

    struct Retx
    {
        int at;
        uint64_t pos;
        size_t len;
    };
    std::vector<Retx> retx;
    uint64_t pos = 0;
    int step = 0;
    while (pos < stream.size()) {
        step++;
        size_t n = std::min<size_t>(1460, stream.size() - pos);
        if (rng.chance(0.03)) {
            // Lost: retransmitted later, possibly split or widened.
            switch (rng.below(3)) {
              case 0:
                retx.push_back({step + (int)rng.range(2, 12), pos, n});
                break;
              case 1: {
                size_t h = rng.range(1, n - 1);
                retx.push_back({step + (int)rng.range(2, 12), pos, h});
                retx.push_back(
                    {step + (int)rng.range(2, 12), pos + h, n - h});
                break;
              }
              default: {
                uint64_t back = std::min<uint64_t>(pos, rng.range(0, 700));
                retx.push_back({step + (int)rng.range(2, 12), pos - back,
                                n + (size_t)back});
              }
            }
        } else {
            feed(pos, n);
        }
        if (rng.chance(0.01) && pos > 5000) {
            // Spurious duplicate of old data.
            uint64_t dp = rng.below(pos - 3000);
            retx.push_back({step + 1, dp, (size_t)rng.range(100, 1460)});
        }
        for (auto it = retx.begin(); it != retx.end();) {
            if (it->at <= step) {
                feed(it->pos, it->len);
                it = retx.erase(it);
            } else {
                ++it;
            }
        }
        if (confirm_delay >= 0 && --confirm_delay < 0 && havePending) {
            auto it = recStartToIdx.find(pendingPos);
            if (it != recStartToIdx.end())
                fsm.confirm(pendingReq, true, it->second);
            else
                fsm.confirm(pendingReq, false, 0);
            havePending = false;
        }
        pos += n;
    }

    // Invariant (a): every processed byte decrypted correctly.
    for (int i = 0; i < kRecords; i++) {
        uint64_t base = records[i].start;
        size_t plen = records[i].plainLen;
        Bytes expected(plen);
        fillDeterministic(expected, 7, 0);
        for (const Span &sp : spans) {
            if (!sp.processed)
                continue;
            uint64_t s = std::max<uint64_t>(sp.pos, base + 5);
            uint64_t e = std::min<uint64_t>(sp.pos + sp.len, base + 5 + plen);
            for (uint64_t p = s; p < e; p++) {
                ASSERT_EQ(wire[p], expected[p - (base + 5)])
                    << "seed " << seed << " record " << i << " off "
                    << p - base;
            }
        }
    }
    // Invariant (b): every speculation is answered (confirmed/refuted)
    // or superseded by a tracking failure / still pending at the end;
    // confirmed ones must have flipped the FSM back to offloading at
    // least once (no permanent stall).
    const nic::FsmStats &st = fsm.stats();
    EXPECT_LE(st.resyncConfirmed + st.resyncRefuted, st.resyncRequests);
    if (st.resyncRequests > 0 && !havePending)
        EXPECT_GE(st.resyncConfirmed + st.resyncRefuted +
                      st.trackFailures,
                  1u);
    // Invariant (c): the FSM ended in a live state and most messages
    // were processed.
    EXPECT_GT(st.msgsCompleted, static_cast<uint64_t>(kRecords) / 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FsmTorture, ::testing::Range<uint64_t>(1, 17));

// ----------------------------------------------------- TCP properties

class TcpProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(TcpProperty, ExactDeliveryUnderImpairments)
{
    const int idx = GetParam();
    Rng rng(1000 + idx);
    net::Link::Config lc;
    lc.dir[0] = testing::randomImpairments(rng);
    lc.dir[1] = testing::randomImpairments(rng, {.loss = 0.03,
                                                 .reorder = 0.0,
                                                 .duplicate = 0.0});
    lc.seed = 2000 + idx;
    sim::RunContext ctx;
    core::Testbed w(ctx, {.link = lc});

    constexpr uint64_t kBytes = 512 << 10;
    testing::DeliveryChecker rx{/*seed=*/5};
    tcp::TcpConnection *server = nullptr;
    w.b.stack().listen(80, {}, [&](tcp::TcpConnection &c) {
        server = &c;
        c.setOnReadable([&c, &rx] {
            while (c.readable())
                rx.onSegment(c.pop());
        });
    });

    tcp::TcpConnection &c = w.a.stack().connect(
        core::Testbed::kIpA, core::Testbed::kIpB, 80, {});
    uint64_t sent = 0;
    auto pump = testing::deterministicPump(
        [&c](ByteView b) { return c.send(b); }, /*seed=*/5, kBytes, sent,
        32768);
    c.setOnConnected(pump);
    c.setOnWritable(pump);

    w.sim.runUntil(20 * sim::kSecond);
    EXPECT_EQ(rx.received, kBytes) << "case " << idx;
    EXPECT_FALSE(rx.corrupt);
    ASSERT_NE(server, nullptr);
    EXPECT_LE(server->rxQueuedBytes(), server->config().rcvBufSize + 8192);
}

INSTANTIATE_TEST_SUITE_P(Cases, TcpProperty, ::testing::Range(0, 12));

// ------------------------------------------------ TLS e2e properties

class TlsProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(TlsProperty, OffloadedStreamsStayAuthenticated)
{
    const int idx = GetParam();
    Rng rng(3000 + idx);
    net::Link::Config lc;
    lc.dir[0] = testing::randomImpairments(rng, {.loss = 0.04,
                                                 .reorder = 0.04,
                                                 .duplicate = 0.0});
    lc.dir[1] = testing::randomImpairments(rng, {.loss = 0.02,
                                                 .reorder = 0.0,
                                                 .duplicate = 0.0});
    lc.seed = 4000 + idx;
    sim::RunContext ctx;
    core::Testbed w(ctx, {.link = lc});

    constexpr uint64_t kBytes = 768 << 10;
    constexpr uint64_t kSeed = 99;
    std::unique_ptr<tls::TlsSocket> server;
    std::unique_ptr<tls::TlsSocket> client;
    testing::DeliveryChecker rx{kSeed};

    w.b.stack().listen(443, {}, [&](tcp::TcpConnection &c) {
        tls::TlsConfig scfg;
        scfg.rxOffload = true;
        scfg.recordSize = static_cast<size_t>(rng.range(512, 16384));
        server = std::make_unique<tls::TlsSocket>(
            c, tls::SessionKeys::derive(7, false), scfg);
        server->enableOffload(w.b.device());
        server->setOnReadable([&] {
            while (server->readable())
                rx.onSegment(server->pop());
        });
    });

    tcp::TcpConnection &c = w.a.stack().connect(
        core::Testbed::kIpA, core::Testbed::kIpB, 443, {});
    uint64_t sent = 0;
    c.setOnConnected([&] {
        tls::TlsConfig ccfg;
        ccfg.txOffload = true;
        ccfg.recordSize = static_cast<size_t>(rng.range(512, 16384));
        client = std::make_unique<tls::TlsSocket>(
            c, tls::SessionKeys::derive(7, true), ccfg);
        client->enableOffload(w.a.device());
        auto pump = testing::deterministicPump(
            [&](ByteView b) { return client->send(b); }, kSeed, kBytes,
            sent);
        client->setOnWritable(pump);
        pump();
    });

    w.sim.runUntil(20 * sim::kSecond);
    EXPECT_EQ(rx.received, kBytes) << "case " << idx;
    EXPECT_FALSE(rx.corrupt);
    ASSERT_NE(server, nullptr);
    const tls::TlsStats &st = server->stats();
    EXPECT_EQ(st.tagFailures, 0u);
    // Classification is a partition of all received records.
    EXPECT_EQ(st.rxFullyOffloaded + st.rxPartiallyOffloaded +
                  st.rxNotOffloaded,
              st.recordsRx);
}

INSTANTIATE_TEST_SUITE_P(Cases, TlsProperty, ::testing::Range(0, 10));

} // namespace
} // namespace anic
