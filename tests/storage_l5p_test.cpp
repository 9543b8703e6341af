/**
 * @file
 * Shared L5P layer tests. The message-assembler cases run once per
 * wire (NVMe-TCP, iSCSI and the TLS record layer): streaming
 * reassembly, framing loss, the offload results each chunk keeps, and
 * that the NIC's stream FSM frames a stream exactly as the host does.
 * The storage engine cases run once per storage wire traits: the NIC
 * rx/tx engine core driven directly — mid-message resume identity,
 * placement, verify outcomes and tx digest fill — and the tx engine's
 * resync replay through a NIC.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <tuple>

#include "core/storage_engine.hh"
#include "iscsi/pdu.hh"
#include "net/packet_pool.hh"
#include "nic/nic.hh"
#include "nic/stream_fsm.hh"
#include "nvmetcp/pdu.hh"
#include "tls/ktls.hh"
#include "util/rand.hh"

namespace anic {
namespace {

/** One protocol's PDU constructors behind the shared wire traits. */
struct Proto
{
    const char *name;
    const core::StorageWire *wire;
    net::Digests digests;
    /** A data-less command PDU for @p tag. */
    Bytes (*cmd)(uint32_t tag);
    /** A data PDU placing @p data at @p bufOff of @p tag's buffer. */
    Bytes (*data)(uint32_t tag, uint32_t bufOff, ByteView data,
                  bool fillDdgst);
};

const Proto kNvme{
    "Nvme", &nvmetcp::kNvmeWire, nvmetcp::WireConfig{}.digests(),
    [](uint32_t tag) {
        return nvmetcp::buildCmdCapsule(
            nvmetcp::WireConfig{},
            nvmetcp::CmdCapsule{static_cast<uint16_t>(tag), nvmetcp::kOpRead,
                                0, 4096});
    },
    [](uint32_t tag, uint32_t bufOff, ByteView data, bool fill) {
        return nvmetcp::buildDataPdu(
            nvmetcp::WireConfig{}, nvmetcp::kPduC2HData,
            nvmetcp::DataPduHdr{static_cast<uint16_t>(tag), bufOff,
                                static_cast<uint32_t>(data.size())},
            data, fill);
    }};

const Proto kIscsi{
    "Iscsi", &iscsi::kIscsiWire, iscsi::IscsiWireConfig{}.digests(),
    [](uint32_t tag) {
        iscsi::IscsiBhs bhs;
        bhs.itt = tag;
        bhs.scsiOp = iscsi::kScsiRead;
        bhs.length = 4096;
        return iscsi::buildScsiCmd(iscsi::IscsiWireConfig{}, bhs);
    },
    [](uint32_t tag, uint32_t bufOff, ByteView data, bool fill) {
        iscsi::IscsiBhs dh;
        dh.itt = tag;
        dh.bufferOffset = bufOff;
        return iscsi::buildDataPdu(iscsi::IscsiWireConfig{},
                                   iscsi::kOpDataIn, dh, data, fill);
    }};

// ----------------------------------------------------------- message wires

/** One wire's framing traits and a message constructor. */
struct Wire
{
    const char *name;
    const net::MsgWire *wire;
    net::Digests digests;
    /** Message @p i of a mixed stream, with @p n body bytes if it
     *  carries data. */
    Bytes (*msg)(uint32_t i, size_t n);
};

template <const Proto &P>
Bytes
storageMsg(uint32_t i, size_t n)
{
    if (i % 3 == 0)
        return P.cmd(i);
    Bytes data(n);
    fillDeterministic(data, i, 0);
    return P.data(i, 0, data, true);
}

Bytes
tlsMsg(uint32_t i, size_t n)
{
    tls::RecordHeader h;
    h.length = static_cast<uint16_t>(n + tls::kTagSize);
    Bytes rec(h.wireLen());
    h.encode(rec.data());
    fillDeterministic(ByteSpan(rec).subspan(tls::kHeaderSize), i, 0);
    return rec;
}

const Wire kWires[] = {
    {"Nvme", &nvmetcp::kNvmeWire, kNvme.digests, storageMsg<kNvme>},
    {"Iscsi", &iscsi::kIscsiWire, kIscsi.digests, storageMsg<kIscsi>},
    {"Tls", &tls::kTlsWire, {}, tlsMsg},
};

class MsgWireTest : public ::testing::TestWithParam<Wire>
{
  protected:
    const Wire &w() const { return GetParam(); }

    core::MsgAssembler
    assembler() const
    {
        return core::MsgAssembler(*w().wire, w().digests);
    }
};

tcp::RxSegment
segment(const Bytes &stream, uint64_t off, size_t n)
{
    tcp::RxSegment seg;
    seg.streamOff = off;
    seg.data.assign(ByteView(stream).subspan(off, n));
    return seg;
}

auto noStart = [](uint64_t) {};

TEST_P(MsgWireTest, AssemblerHandlesArbitrarySegmentation)
{
    // A stream of mixed messages, cut at random points.
    Bytes stream;
    std::vector<uint64_t> starts;
    std::vector<size_t> lens;
    Rng rng(5);
    for (uint32_t i = 0; i < 20; i++) {
        Bytes m = w().msg(i, rng.range(1, 5000));
        starts.push_back(stream.size());
        lens.push_back(m.size());
        stream.insert(stream.end(), m.begin(), m.end());
    }

    core::MsgAssembler as = assembler();
    std::vector<core::RxMsg> out;
    std::vector<uint64_t> seen;
    uint64_t off = 0;
    while (off < stream.size()) {
        size_t n = std::min<size_t>(rng.range(1, 1460), stream.size() - off);
        as.ingest(
            segment(stream, off, n),
            [&](uint64_t start) { seen.push_back(start); },
            [&](core::RxMsg &&m) {
                EXPECT_EQ(as.msgsDelivered(), out.size()); // its index
                out.push_back(std::move(m));
                return true;
            });
        off += n;
    }
    ASSERT_FALSE(as.error());
    ASSERT_EQ(out.size(), 20u);
    EXPECT_EQ(as.msgsDelivered(), 20u);
    EXPECT_EQ(seen, starts);
    for (size_t i = 0; i < 20; i++) {
        EXPECT_EQ(out[i].frame.wireLen, lens[i]);
        EXPECT_TRUE(std::equal(out[i].bytes.begin(), out[i].bytes.end(),
                               stream.begin() + starts[i]));
    }
}

TEST_P(MsgWireTest, FramingLossStopsReassembly)
{
    Bytes stream = w().msg(1, 100);
    Bytes bad(w().wire->prefixSize, 0xff); // no wire's magic pattern
    stream.insert(stream.end(), bad.begin(), bad.end());
    Bytes after = w().msg(2, 100);
    stream.insert(stream.end(), after.begin(), after.end());

    core::MsgAssembler as = assembler();
    int delivered = 0;
    auto sink = [&](core::RxMsg &&) { return ++delivered > 0; };
    as.ingest(segment(stream, 0, stream.size()), noStart, sink);
    EXPECT_TRUE(as.error());
    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(as.msgsDelivered(), 1u);
}

TEST_P(MsgWireTest, RejectedMessageIsNotCountedAndStopsReassembly)
{
    Bytes stream;
    for (uint32_t i = 1; i <= 4; i++) {
        Bytes m = w().msg(i, 300);
        stream.insert(stream.end(), m.begin(), m.end());
    }
    const size_t half = stream.size() / 2;
    core::MsgAssembler as = assembler();
    int calls = 0;
    auto sink = [&](core::RxMsg &&) { return ++calls == 1; };
    as.ingest(segment(stream, 0, half), noStart, sink);
    as.ingest(segment(stream, half, stream.size() - half), noStart, sink);
    EXPECT_EQ(calls, 2); // nothing after the rejected message
    EXPECT_EQ(as.msgsDelivered(), 1u);
    EXPECT_TRUE(as.stopped());
    EXPECT_FALSE(as.error());
}

TEST_P(MsgWireTest, ChunksKeepTheirOffloadResultsAndPlacement)
{
    Bytes m = w().msg(1, 3000);
    const size_t prefix = w().wire->prefixSize;
    const net::L5Kind kind = w().wire->kind;
    // Segment 1 holds only part of the prefix, segment 2 the rest of
    // it and body bytes (offloaded, one placed range), segment 3 the
    // remainder (not offloaded).
    const size_t cut1 = prefix - 2;
    const size_t cut2 = 1000;
    core::MsgAssembler as = assembler();
    std::vector<core::RxMsg> out;
    auto sink = [&](core::RxMsg &&r) {
        out.push_back(std::move(r));
        return true;
    };
    as.ingest(segment(m, 0, cut1), noStart, sink);
    EXPECT_EQ(as.boundaryOff(), 0u);
    tcp::RxSegment s2 = segment(m, cut1, cut2 - cut1);
    s2.meta.offloaded = true;
    s2.meta.verify[static_cast<size_t>(kind)] = net::VerifyOutcome::Ok;
    s2.meta.placed.push_back(net::PlacedRange{100, 50});
    as.ingest(s2, noStart, sink);
    EXPECT_EQ(as.streamConsumed(), cut2);
    as.ingest(segment(m, cut2, m.size() - cut2), noStart, sink);

    ASSERT_EQ(out.size(), 1u);
    const core::RxMsg &r = out[0];
    ASSERT_EQ(r.chunks.size(), 2u);
    EXPECT_EQ(r.chunks[0].off, prefix); // chunks start past the prefix
    EXPECT_EQ(r.chunks[0].len, cut2 - prefix);
    EXPECT_TRUE(r.chunks[0].meta.offloaded);
    EXPECT_EQ(r.chunks[1].off, cut2);
    EXPECT_EQ(r.chunks[1].len, m.size() - cut2);
    EXPECT_FALSE(r.chunks[1].meta.offloaded);
    ASSERT_EQ(r.chunks[0].meta.placed.size(), 1u); // chunk-relative
    EXPECT_EQ(r.chunks[0].meta.placed[0].payloadOff, cut1 + 100 - prefix);
    EXPECT_EQ(r.chunks[0].meta.placed[0].len, 50u);
    EXPECT_TRUE(r.chunks[1].meta.placed.empty());
    EXPECT_FALSE(r.verifiedByNic(kind));
    EXPECT_EQ(as.boundaryOff(), m.size());
}

/** One framed message: stream offset, index and frame fields. */
using Framed = std::tuple<uint64_t, uint64_t, uint32_t, uint32_t, uint16_t,
                          uint16_t, uint8_t, bool>;

Framed
framed(uint64_t off, uint64_t idx, const net::MsgFrame &f)
{
    return {off,       idx,         f.wireLen, f.dataLen,
            f.dataOff, f.subHdrEnd, f.type,    f.isData};
}

/** A NIC engine that only records what its StreamFsm frames. */
class FramingRecorder : public nic::L5Engine
{
  public:
    using L5Engine::L5Engine;

    std::vector<Framed> msgs;
    uint64_t spanPos = 0; ///< stream offset of the span being fed

    void
    onMsgStart(uint64_t idx, const net::MsgFrame &f, ByteView prefix) override
    {
        EXPECT_EQ(prefix.size(), wire().prefixSize);
        start_ = f;
        startIdx_ = idx;
        placed_ = false;
    }

    void
    onMsgData(uint64_t off, ByteSpan, nic::PacketResult &res) override
    {
        // The span's first byte is message byte off: place the start.
        if (!placed_)
            msgs.push_back(framed(spanPos + res.spanPktOff - off, startIdx_,
                                  start_));
        placed_ = true;
    }

    void
    onMsgEnd(bool covered, nic::PacketResult &) override
    {
        EXPECT_TRUE(covered);
    }

    void
    onMsgResume(uint64_t, const net::MsgFrame &, ByteView, uint64_t) override
    {
        ADD_FAILURE() << "resume on an in-sequence stream";
    }

    void onMsgAbort() override { ADD_FAILURE() << "abort in sequence"; }

  private:
    net::MsgFrame start_;
    uint64_t startIdx_ = 0;
    bool placed_ = true;
};

TEST_P(MsgWireTest, NicFsmFramesLikeTheHostAssembler)
{
    // One stream of mixed messages, framed by the host's assembler and
    // by the NIC's stream FSM over the same wire. Packets end at every
    // offset k of each prefix (k = 0: message-aligned), then at random.
    Bytes stream;
    std::vector<uint64_t> starts;
    Rng rng(7);
    for (uint32_t i = 0; i < 12; i++) {
        Bytes m = w().msg(i, rng.range(1, 3000));
        starts.push_back(stream.size());
        stream.insert(stream.end(), m.begin(), m.end());
    }
    const size_t psize = w().wire->prefixSize;
    for (size_t k = 0; k <= psize; k++) {
        std::vector<uint64_t> ends;
        if (k < psize) {
            for (uint64_t s : starts)
                if (s + k > 0)
                    ends.push_back(s + k);
        } else {
            for (uint64_t e = rng.range(1, 1460); e < stream.size();
                 e += rng.range(1, 1460))
                ends.push_back(e);
        }
        ends.push_back(stream.size());

        core::MsgAssembler as = assembler();
        std::vector<uint64_t> hostStarts;
        std::vector<Framed> host;
        FramingRecorder eng(*w().wire, w().digests);
        nic::StreamFsm fsm(eng, [](uint64_t, uint64_t) {
            ADD_FAILURE() << "resync request on an in-sequence stream";
        });
        fsm.reset(0, 0);
        uint64_t prev = 0;
        for (uint64_t end : ends) {
            as.ingest(
                segment(stream, prev, end - prev),
                [&](uint64_t s) { hostStarts.push_back(s); },
                [&](core::RxMsg &&m) {
                    host.push_back(framed(hostStarts.at(host.size()),
                                          as.msgsDelivered(), m.frame));
                    return true;
                });
            Bytes pkt(stream.begin() + prev, stream.begin() + end);
            nic::PacketResult res;
            eng.spanPos = prev;
            EXPECT_TRUE(fsm.segment(prev, pkt, res)) << "k " << k;
            prev = end;
        }
        EXPECT_EQ(host.size(), starts.size()) << "k " << k;
        EXPECT_EQ(eng.msgs, host) << "k " << k;
        EXPECT_EQ(fsm.stats().msgsCovered, starts.size()) << "k " << k;
    }
}

INSTANTIATE_TEST_SUITE_P(Wires, MsgWireTest, ::testing::ValuesIn(kWires),
                         [](const ::testing::TestParamInfo<Wire> &i) {
                             return std::string(i.param.name);
                         });

// ------------------------------------------------------- storage engines

class StorageWireTest : public ::testing::TestWithParam<Proto>
{
  protected:
    const Proto &p() const { return GetParam(); }

    net::MsgFrame
    pduFrame(const Bytes &pdu) const
    {
        std::optional<net::MsgFrame> f =
            p().wire->parsePrefix(pdu.data(), p().digests);
        EXPECT_TRUE(f.has_value());
        return f.value_or(net::MsgFrame{});
    }

    /** A data PDU for @p tag carrying @p n deterministic bytes. */
    Bytes
    dataPdu(uint32_t tag, size_t n, uint64_t seed, bool fill = true) const
    {
        Bytes data(n);
        fillDeterministic(data, seed, 0);
        return p().data(tag, 0, data, fill);
    }
};

/** Feeds message bytes [from, to) of @p pdu as one span. */
nic::PacketResult
feed(nic::L5Engine &eng, Bytes &pdu, size_t from, size_t to)
{
    nic::PacketResult res;
    eng.onMsgData(from, ByteSpan(pdu.data() + from, to - from), res);
    return res;
}

uint64_t
placedBytes(const nic::PacketResult &res)
{
    uint64_t n = 0;
    for (const net::PlacedRange &r : res.placed)
        n += r.len;
    return n;
}

// ------------------------------------------------------------ rx engine

TEST_P(StorageWireTest, ResumeSamePduKeepsPlacingAndReportsIncomplete)
{
    Bytes pdu = dataPdu(7, 8000, 3);
    const net::MsgFrame f = pduFrame(pdu);
    auto buf = std::make_shared<host::BlockBuffer>(8000);
    core::StorageRxEngine eng(*p().wire, p().digests);
    eng.addRrState(7, buf);
    ByteView hdr(pdu.data(), core::kPduPrefixSize);

    eng.onMsgStart(3, f, hdr);
    nic::PacketResult r1 = feed(eng, pdu, core::kPduPrefixSize,
                                f.dataOff + 1000);
    EXPECT_EQ(placedBytes(r1), 1000u);

    // Bytes [1000, 3000) of the data are lost; the same PDU resumes.
    eng.onMsgResume(3, f, hdr, f.dataOff + 3000);
    nic::PacketResult r2 = feed(eng, pdu, f.dataOff + 3000, pdu.size());
    eng.onMsgEnd(/*covered=*/false, r2);
    EXPECT_EQ(placedBytes(r2), 5000u);
    EXPECT_EQ(r2.verifyOf(p().wire->kind), net::VerifyOutcome::Incomplete);

    const uint8_t *data = pdu.data() + f.dataOff;
    EXPECT_EQ(std::memcmp(buf->data.data(), data, 1000), 0);
    EXPECT_EQ(std::memcmp(buf->data.data() + 3000, data + 3000, 5000), 0);
    EXPECT_EQ(std::count(buf->data.begin() + 1000, buf->data.begin() + 3000,
                         0),
              2000);
}

TEST_P(StorageWireTest, RecycledIndexWithDifferentHeaderNeverWritesCache)
{
    Bytes a = dataPdu(7, 8000, 3);
    const net::MsgFrame fa = pduFrame(a);
    auto buf = std::make_shared<host::BlockBuffer>(8000);
    core::StorageRxEngine eng(*p().wire, p().digests);
    eng.addRrState(7, buf);

    eng.onMsgStart(3, fa, ByteView(a.data(), core::kPduPrefixSize));
    EXPECT_EQ(placedBytes(feed(eng, a, core::kPduPrefixSize,
                               fa.dataOff + 1000)),
              1000u);
    Bytes before = buf->data;

    // Software recycles index 3 for a different PDU (same tag, other
    // length) and the engine adopts it past its sub-header: the cached
    // buffer of PDU A must not receive B's bytes.
    Bytes b = dataPdu(7, 4000, 9);
    const net::MsgFrame fb = pduFrame(b);
    eng.onMsgResume(3, fb, ByteView(b.data(), core::kPduPrefixSize),
                    fb.dataOff + 100);
    nic::PacketResult r = feed(eng, b, fb.dataOff + 100, b.size());
    eng.onMsgEnd(false, r);
    EXPECT_TRUE(r.placed.empty());
    EXPECT_EQ(buf->data, before);
    EXPECT_EQ(r.verifyOf(p().wire->kind), net::VerifyOutcome::Incomplete);
}

TEST_P(StorageWireTest, ResumePastSubHeaderPlacesNothing)
{
    Bytes pdu = dataPdu(7, 8000, 3);
    const net::MsgFrame f = pduFrame(pdu);
    for (uint64_t resumeAt : {uint64_t{core::kPduPrefixSize + 4},
                              uint64_t{f.subHdrEnd},
                              uint64_t{f.dataOff} + 500}) {
        auto buf = std::make_shared<host::BlockBuffer>(8000);
        core::StorageRxEngine eng(*p().wire, p().digests);
        eng.addRrState(7, buf);
        eng.onMsgResume(0, f, ByteView(pdu.data(), core::kPduPrefixSize),
                        resumeAt);
        nic::PacketResult r = feed(eng, pdu, resumeAt, pdu.size());
        eng.onMsgEnd(false, r);
        EXPECT_TRUE(r.placed.empty()) << "resume at " << resumeAt;
        EXPECT_EQ(std::count(buf->data.begin(), buf->data.end(), 0), 8000);
        EXPECT_EQ(r.verifyOf(p().wire->kind), net::VerifyOutcome::Incomplete);
    }
}

// ------------------------------------------------------------ tx engine

TEST_P(StorageWireTest, TxDigestFillMatchesSoftwareCrcAcrossSplits)
{
    Rng rng(11);
    for (int trial = 0; trial < 20; trial++) {
        size_t n = rng.range(1, 9000);
        Bytes expect = dataPdu(5, n, trial, /*fill=*/true);
        Bytes wire = dataPdu(5, n, trial, /*fill=*/false);
        ASSERT_NE(wire, expect);

        core::StorageTxEngine tx(*p().wire, p().digests);
        tx.onMsgStart(trial, pduFrame(wire),
                      ByteView(wire.data(), core::kPduPrefixSize));
        nic::PacketResult res;
        for (size_t off = core::kPduPrefixSize; off < wire.size();) {
            size_t take = std::min<size_t>(rng.range(1, 1460),
                                           wire.size() - off);
            tx.onMsgData(off, ByteSpan(wire.data() + off, take), res);
            off += take;
        }
        tx.onMsgEnd(true, res);
        EXPECT_EQ(wire, expect) << "trial " << trial << ", " << n << " bytes";
    }
}

TEST_P(StorageWireTest, TxReplayEndingInsideTheDigestWritesNothing)
{
    // A data PDU goes out once through a NIC tx context, which fills
    // its data digest. The retransmission starts 2 bytes into the
    // digest trailer, so the resync replays the whole data region and
    // half the trailer: the replay computes the digest but must write
    // nothing into the retained PDU, which keeps software's dummy.
    sim::Simulator sim;
    net::Link link(sim, {});
    nic::Nic nic(sim, link, 0, {});
    std::vector<Bytes> wire;
    link.attach(1, [&](net::PacketPtr pkt) {
        ByteView pl = pkt->payload();
        wire.emplace_back(pl.begin(), pl.end());
    });
    constexpr uint32_t kSeq = 5000;
    uint64_t ctx = nic.createTxContext(
        std::make_unique<core::StorageTxEngine>(*p().wire, p().digests), kSeq,
        0);
    const Bytes pdu = dataPdu(7, 3000, 4, /*fill=*/false);
    const SharedBytes msg = std::make_shared<const Bytes>(pdu);
    auto sendFrom = [&](size_t off) {
        net::Ipv4Header ip;
        net::TcpHeader tcp;
        tcp.seq = kSeq + static_cast<uint32_t>(off);
        net::PacketPtr pkt = net::PacketPool::threadDefault().make(
            ip, tcp, ByteView(pdu).subspan(off));
        pkt->txCtx = ctx;
        nic.transmit(std::move(pkt));
        sim.run();
    };
    sendFrom(0);
    const size_t off = pduFrame(pdu).dataEnd() + 2;
    nic.postTxResync(ctx, kSeq + static_cast<uint32_t>(off), 0, msg,
                     static_cast<uint32_t>(off));
    sendFrom(off);

    ASSERT_EQ(wire.size(), 2u);
    EXPECT_EQ(wire[0], dataPdu(7, 3000, 4, /*fill=*/true));
    EXPECT_EQ(*msg, pdu) << "the replay wrote into the retained PDU";
    ASSERT_EQ(wire[1].size(), pdu.size() - off);
    EXPECT_TRUE(std::equal(wire[1].begin(), wire[1].end(),
                           wire[0].begin() + static_cast<ptrdiff_t>(off)));
    EXPECT_EQ(nic.pcie().ctxRecoveryBytes, off);
}

INSTANTIATE_TEST_SUITE_P(Wires, StorageWireTest,
                         ::testing::Values(kNvme, kIscsi),
                         [](const ::testing::TestParamInfo<Proto> &i) {
                             return std::string(i.param.name);
                         });

} // namespace
} // namespace anic
