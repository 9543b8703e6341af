#include "iscsi/pdu.hh"

#include <cstring>

#include "util/panic.hh"

namespace anic::iscsi {

namespace {

uint32_t
getBe24(const uint8_t *p)
{
    return (static_cast<uint32_t>(p[0]) << 16) |
           (static_cast<uint32_t>(p[1]) << 8) | p[2];
}

void
putBe24(uint8_t *p, uint32_t v)
{
    p[0] = static_cast<uint8_t>(v >> 16);
    p[1] = static_cast<uint8_t>(v >> 8);
    p[2] = static_cast<uint8_t>(v);
}

bool
knownOpcode(uint8_t op)
{
    return op == kOpScsiCmd || op == kOpDataOut || op == kOpScsiResp ||
           op == kOpDataIn;
}

/** Allocates a PDU and fills the BHS common fields + header digest
 *  placeholder (the digest itself is filled after opcode-specific
 *  fields are written). */
Bytes
makePdu(const IscsiWireConfig &wc, uint8_t opcode, uint8_t flags,
        uint32_t dsl)
{
    Bytes out(wc.pduLen(dsl));
    out[0] = opcode;
    out[1] = flags;
    // [2..4] stay zero: reserved + totalAhsLength (magic pattern).
    putBe24(out.data() + 5, dsl);
    return out;
}

void
fillHdgst(const IscsiWireConfig &wc, Bytes &pdu)
{
    if (!wc.headerDigest)
        return;
    uint32_t crc = crypto::Crc32c::compute(ByteView(pdu.data(), kBhsSize));
    putLe32(pdu.data() + kBhsSize, crc);
}

} // namespace

std::optional<uint64_t>
parseBhsPrefix(const IscsiWireConfig &wc, ByteView h, size_t maxDsl)
{
    if (h.size() < 8)
        return std::nullopt;
    if (!knownOpcode(h[0]))
        return std::nullopt;
    if (h[2] != 0 || h[3] != 0 || h[4] != 0)
        return std::nullopt; // reserved bytes + TotalAHSLength
    uint32_t dsl = getBe24(h.data() + 5);
    if (dsl > maxDsl)
        return std::nullopt;
    // Data-less opcodes never carry a segment; a nonzero DSL on a
    // response would break the digest layout.
    if ((h[0] == kOpScsiCmd || h[0] == kOpScsiResp) && dsl != 0)
        return std::nullopt;
    return wc.pduLen(dsl);
}

IscsiBhs
parseBhs(ByteView pdu)
{
    ANIC_ASSERT(pdu.size() >= kBhsSize);
    IscsiBhs b;
    b.opcode = pdu[0];
    b.flags = pdu[1];
    b.dsl = getBe24(pdu.data() + 5);
    b.lun = getLe(pdu.data() + 8, 8);
    b.itt = static_cast<uint32_t>(getLe32(pdu.data() + 16));
    b.edtl = static_cast<uint32_t>(getLe32(pdu.data() + 20));
    b.bufferOffset = static_cast<uint32_t>(getLe32(pdu.data() + 40));
    b.scsiOp = pdu[32];
    b.slba = getLe(pdu.data() + 33, 8);
    b.length = static_cast<uint32_t>(getLe32(pdu.data() + 41));
    b.status = pdu[32];
    return b;
}

Bytes
buildScsiCmd(const IscsiWireConfig &wc, const IscsiBhs &bhs)
{
    uint8_t flags = kFlagFinal |
                    (bhs.scsiOp == kScsiRead ? kFlagRead : kFlagWrite);
    Bytes pdu = makePdu(wc, kOpScsiCmd, flags, 0);
    putLe(pdu.data() + 8, bhs.lun, 8);
    putLe32(pdu.data() + 16, bhs.itt);
    putLe32(pdu.data() + 20, bhs.edtl);
    pdu[32] = bhs.scsiOp;
    putLe(pdu.data() + 33, bhs.slba, 8);
    putLe32(pdu.data() + 41, bhs.length);
    fillHdgst(wc, pdu);
    return pdu;
}

Bytes
buildScsiResp(const IscsiWireConfig &wc, const IscsiBhs &bhs)
{
    Bytes pdu = makePdu(wc, kOpScsiResp, kFlagFinal, 0);
    putLe(pdu.data() + 8, bhs.lun, 8);
    putLe32(pdu.data() + 16, bhs.itt);
    pdu[32] = bhs.status;
    fillHdgst(wc, pdu);
    return pdu;
}

Bytes
buildDataPdu(const IscsiWireConfig &wc, uint8_t opcode, const IscsiBhs &bhs,
             ByteView data, bool fillDdgst)
{
    ANIC_ASSERT(opcode == kOpDataIn || opcode == kOpDataOut);
    Bytes pdu =
        makePdu(wc, opcode, bhs.flags, static_cast<uint32_t>(data.size()));
    putLe(pdu.data() + 8, bhs.lun, 8);
    putLe32(pdu.data() + 16, bhs.itt);
    putLe32(pdu.data() + 40, bhs.bufferOffset);
    fillHdgst(wc, pdu);
    size_t data_off = kBhsSize + wc.hdgstLen();
    std::memcpy(pdu.data() + data_off, data.data(), data.size());
    if (wc.dataDigest && !data.empty() && fillDdgst) {
        uint32_t crc = crypto::Crc32c::compute(data);
        putLe32(pdu.data() + data_off + data.size(), crc);
    }
    return pdu;
}

bool
verifyHdgst(const IscsiWireConfig &wc, ByteView pdu)
{
    return !wc.headerDigest || core::headerDigestOk(pdu, kBhsSize);
}

// ------------------------------------------------------ wire traits

namespace {

std::optional<net::MsgFrame>
iscsiParsePrefix(const uint8_t *prefix, net::Digests d)
{
    IscsiWireConfig wc;
    wc.headerDigest = d.header;
    wc.dataDigest = d.data;
    std::optional<uint64_t> len = parseBhsPrefix(wc, ByteView(prefix, 8));
    if (!len)
        return std::nullopt;
    net::MsgFrame f;
    f.type = prefix[0];
    f.wireLen = static_cast<uint32_t>(*len);
    f.dataOff = static_cast<uint32_t>(kBhsSize + wc.hdgstLen());
    f.dataLen = getBe24(prefix + 5);
    f.subHdrEnd = kBhsSize;
    f.isData = prefix[0] == kOpDataIn || prefix[0] == kOpDataOut;
    return f;
}

/** BHS bytes from offset 8: ITT at [16, 20), BufferOffset at [40, 44). */
core::PduTag
iscsiParseTag(const uint8_t *sub)
{
    return core::PduTag{static_cast<uint32_t>(getLe32(sub + 8)),
                        static_cast<uint32_t>(getLe32(sub + 32))};
}

} // namespace

const core::StorageWire kIscsiWire{
    {net::L5Kind::Iscsi, core::kPduPrefixSize, iscsiParsePrefix},
    /*nicHeaderDigest=*/true, iscsiParseTag};

} // namespace anic::iscsi
