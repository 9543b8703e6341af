/**
 * @file
 * Shared storage-L5P layer tests, run once per wire traits (NVMe-TCP
 * and iSCSI): streaming PDU reassembly, and the NIC rx/tx engine core
 * driven directly — mid-message resume identity, placement, verify
 * outcomes and tx digest fill.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "core/storage_engine.hh"
#include "iscsi/pdu.hh"
#include "nvmetcp/pdu.hh"
#include "util/rand.hh"

namespace anic {
namespace {

/** One protocol's PDU constructors behind the shared wire traits. */
struct Proto
{
    const char *name;
    const core::StorageWire *wire;
    core::Digests digests;
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

class StorageWireTest : public ::testing::TestWithParam<Proto>
{
  protected:
    const Proto &p() const { return GetParam(); }

    core::PduFrame
    frameOf(const Bytes &pdu) const
    {
        std::optional<core::PduFrame> f =
            p().wire->parsePrefix(pdu.data(), p().digests);
        EXPECT_TRUE(f.has_value());
        return f.value_or(core::PduFrame{});
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
    eng.onMsgData(from, ByteSpan(pdu.data() + from, to - from), false, res);
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

// ------------------------------------------------------------ assembler

TEST_P(StorageWireTest, AssemblerHandlesArbitrarySegmentation)
{
    // A stream of mixed command and data PDUs, cut at random points.
    Bytes stream;
    std::vector<size_t> lens;
    Rng rng(5);
    for (int i = 0; i < 20; i++) {
        Bytes pdu;
        if (i % 3 == 0) {
            pdu = p().cmd(static_cast<uint32_t>(i));
        } else {
            Bytes data(rng.range(1, 5000));
            fillDeterministic(data, i, 0);
            pdu = p().data(static_cast<uint32_t>(i), 0, data, true);
        }
        lens.push_back(pdu.size());
        stream.insert(stream.end(), pdu.begin(), pdu.end());
    }

    core::PduAssembler as(*p().wire, p().digests);
    std::vector<core::RxPdu> out;
    uint64_t off = 0;
    while (off < stream.size()) {
        size_t n = std::min<size_t>(rng.range(1, 1460), stream.size() - off);
        tcp::RxSegment seg;
        seg.streamOff = off;
        seg.data.assign(stream.begin() + off, stream.begin() + off + n);
        as.ingest(seg,
                  [&](core::RxPdu &&pdu) { out.push_back(std::move(pdu)); });
        off += n;
    }
    ASSERT_FALSE(as.error());
    ASSERT_EQ(out.size(), 20u);
    EXPECT_EQ(as.pdusDelivered(), 20u);
    for (int i = 0; i < 20; i++)
        EXPECT_EQ(out[i].bytes.size(), lens[i]);
}

// ------------------------------------------------------------ rx engine

TEST_P(StorageWireTest, ResumeSamePduKeepsPlacingAndReportsIncomplete)
{
    Bytes pdu = dataPdu(7, 8000, 3);
    const core::PduFrame f = frameOf(pdu);
    auto buf = std::make_shared<host::BlockBuffer>(8000);
    core::StorageRxEngine eng(*p().wire, p().digests);
    eng.addRrState(7, buf);
    ByteView hdr(pdu.data(), core::kPduPrefixSize);

    eng.onMsgStart(3, hdr);
    nic::PacketResult r1 = feed(eng, pdu, core::kPduPrefixSize,
                                f.dataOff + 1000);
    EXPECT_EQ(placedBytes(r1), 1000u);

    // Bytes [1000, 3000) of the data are lost; the same PDU resumes.
    eng.onMsgResume(3, hdr, f.dataOff + 3000);
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
    const core::PduFrame fa = frameOf(a);
    auto buf = std::make_shared<host::BlockBuffer>(8000);
    core::StorageRxEngine eng(*p().wire, p().digests);
    eng.addRrState(7, buf);

    eng.onMsgStart(3, ByteView(a.data(), core::kPduPrefixSize));
    EXPECT_EQ(placedBytes(feed(eng, a, core::kPduPrefixSize,
                               fa.dataOff + 1000)),
              1000u);
    Bytes before = buf->data;

    // Software recycles index 3 for a different PDU (same tag, other
    // length) and the engine adopts it past its sub-header: the cached
    // buffer of PDU A must not receive B's bytes.
    Bytes b = dataPdu(7, 4000, 9);
    const core::PduFrame fb = frameOf(b);
    eng.onMsgResume(3, ByteView(b.data(), core::kPduPrefixSize),
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
    const core::PduFrame f = frameOf(pdu);
    for (uint64_t resumeAt : {uint64_t{core::kPduPrefixSize + 4},
                              uint64_t{f.subHdrEnd},
                              uint64_t{f.dataOff} + 500}) {
        auto buf = std::make_shared<host::BlockBuffer>(8000);
        core::StorageRxEngine eng(*p().wire, p().digests);
        eng.addRrState(7, buf);
        eng.onMsgResume(0, ByteView(pdu.data(), core::kPduPrefixSize),
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
        tx.onMsgStart(trial, ByteView(wire.data(), core::kPduPrefixSize));
        nic::PacketResult res;
        for (size_t off = core::kPduPrefixSize; off < wire.size();) {
            size_t take = std::min<size_t>(rng.range(1, 1460),
                                           wire.size() - off);
            tx.onMsgData(off, ByteSpan(wire.data() + off, take), false, res);
            off += take;
        }
        tx.onMsgEnd(true, res);
        EXPECT_EQ(wire, expect) << "trial " << trial << ", " << n << " bytes";
    }
}

INSTANTIATE_TEST_SUITE_P(Wires, StorageWireTest,
                         ::testing::Values(kNvme, kIscsi),
                         [](const ::testing::TestParamInfo<Proto> &i) {
                             return std::string(i.param.name);
                         });

} // namespace
} // namespace anic
