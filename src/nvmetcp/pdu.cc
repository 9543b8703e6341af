#include "nvmetcp/pdu.hh"

#include "util/panic.hh"

namespace anic::nvmetcp {

uint8_t
hlenForType(uint8_t type)
{
    switch (type) {
      case kPduCapsuleCmd:
        return kCmdHdrSize;
      case kPduCapsuleResp:
        return kRespHdrSize;
      case kPduH2CData:
      case kPduC2HData:
        return kDataHdrSize;
      case kPduR2T:
        return kR2tHdrSize;
      default:
        return 0;
    }
}

std::optional<CommonHdr>
parseCommonHdr(ByteView h, size_t maxPdu)
{
    if (h.size() < kCommonHdrSize)
        return std::nullopt;
    CommonHdr ch;
    ch.type = h[0];
    ch.flags = h[1];
    ch.hlen = h[2];
    ch.pdo = h[3];
    ch.plen = static_cast<uint32_t>(getLe32(h.data() + 4));

    uint8_t expect_hlen = hlenForType(ch.type);
    if (expect_hlen == 0 || ch.hlen != expect_hlen)
        return std::nullopt;
    if (ch.flags & ~(kFlagHdgst | kFlagDdgst))
        return std::nullopt;
    uint8_t expect_pdo = ch.hlen + (ch.hasHdgst() ? kDigestSize : 0);
    if (ch.pdo != expect_pdo)
        return std::nullopt;
    uint32_t min_len = ch.pdo + (ch.hasDdgst() ? kDigestSize : 0);
    // Data-less PDUs carry no DDGST even when negotiated.
    if (ch.type == kPduCapsuleResp || ch.type == kPduCapsuleCmd ||
        ch.type == kPduR2T)
        min_len = ch.pdo;
    if (ch.plen < min_len || ch.plen > maxPdu)
        return std::nullopt;
    return ch;
}

namespace {

Bytes
makeHeader(const WireConfig &wc, uint8_t type, uint8_t hlen, bool withData,
           uint32_t dataLen)
{
    uint8_t flags = 0;
    if (wc.headerDigest)
        flags |= kFlagHdgst;
    if (wc.dataDigest && withData)
        flags |= kFlagDdgst;
    uint8_t pdo = hlen + (wc.headerDigest ? kDigestSize : 0);
    uint32_t plen = pdo + dataLen +
                    ((wc.dataDigest && withData) ? kDigestSize : 0);
    if (!withData)
        plen = pdo;

    Bytes out(plen);
    out[0] = type;
    out[1] = flags;
    out[2] = hlen;
    out[3] = pdo;
    putLe32(out.data() + 4, plen);
    return out;
}

void
fillHdgst(const WireConfig &wc, Bytes &pdu, uint8_t hlen)
{
    if (!wc.headerDigest)
        return;
    uint32_t crc = crypto::Crc32c::compute(ByteView(pdu.data(), hlen));
    putLe32(pdu.data() + hlen, crc);
}

} // namespace

Bytes
buildCmdCapsule(const WireConfig &wc, const CmdCapsule &cmd)
{
    Bytes pdu = makeHeader(wc, kPduCapsuleCmd, kCmdHdrSize, false, 0);
    putLe16(pdu.data() + 8, cmd.cid);
    pdu[10] = cmd.opcode;
    putLe(pdu.data() + 12, cmd.slba, 8);
    putLe32(pdu.data() + 20, cmd.length);
    fillHdgst(wc, pdu, kCmdHdrSize);
    return pdu;
}

Bytes
buildRespCapsule(const WireConfig &wc, const RespCapsule &resp)
{
    Bytes pdu = makeHeader(wc, kPduCapsuleResp, kRespHdrSize, false, 0);
    putLe16(pdu.data() + 8, resp.cid);
    putLe16(pdu.data() + 10, resp.status);
    fillHdgst(wc, pdu, kRespHdrSize);
    return pdu;
}

Bytes
buildDataPdu(const WireConfig &wc, uint8_t type, const DataPduHdr &hdr,
             ByteView data, bool fillDdgst)
{
    ANIC_ASSERT(type == kPduC2HData || type == kPduH2CData);
    ANIC_ASSERT(data.size() <= wc.maxDataPerPdu);
    Bytes pdu = makeHeader(wc, type, kDataHdrSize, true,
                           static_cast<uint32_t>(data.size()));
    putLe16(pdu.data() + 8, hdr.cid);
    putLe32(pdu.data() + 12, hdr.dataOffset);
    putLe32(pdu.data() + 16, static_cast<uint32_t>(data.size()));
    fillHdgst(wc, pdu, kDataHdrSize);

    size_t pdo = kDataHdrSize + wc.digestLen();
    std::memcpy(pdu.data() + pdo, data.data(), data.size());
    if (wc.dataDigest && fillDdgst) {
        uint32_t crc = crypto::Crc32c::compute(data);
        putLe32(pdu.data() + pdo + data.size(), crc);
    }
    return pdu;
}

Bytes
buildR2tPdu(const WireConfig &wc, const R2tHdr &hdr)
{
    Bytes pdu = makeHeader(wc, kPduR2T, kR2tHdrSize, false, 0);
    putLe16(pdu.data() + 8, hdr.cid);
    putLe16(pdu.data() + 10, hdr.ttag);
    putLe32(pdu.data() + 12, hdr.r2tOffset);
    putLe32(pdu.data() + 16, hdr.r2tLength);
    fillHdgst(wc, pdu, kR2tHdrSize);
    return pdu;
}

CmdCapsule
parseCmdCapsule(ByteView pdu)
{
    CmdCapsule c;
    c.cid = getLe16(pdu.data() + 8);
    c.opcode = pdu[10];
    c.slba = getLe(pdu.data() + 12, 8);
    c.length = static_cast<uint32_t>(getLe32(pdu.data() + 20));
    return c;
}

RespCapsule
parseRespCapsule(ByteView pdu)
{
    RespCapsule r;
    r.cid = getLe16(pdu.data() + 8);
    r.status = getLe16(pdu.data() + 10);
    return r;
}

DataPduHdr
parseDataPduHdr(ByteView pdu)
{
    DataPduHdr d;
    d.cid = getLe16(pdu.data() + 8);
    d.dataOffset = static_cast<uint32_t>(getLe32(pdu.data() + 12));
    d.dataLen = static_cast<uint32_t>(getLe32(pdu.data() + 16));
    return d;
}

R2tHdr
parseR2tHdr(ByteView pdu)
{
    R2tHdr r;
    r.cid = getLe16(pdu.data() + 8);
    r.ttag = getLe16(pdu.data() + 10);
    r.r2tOffset = static_cast<uint32_t>(getLe32(pdu.data() + 12));
    r.r2tLength = static_cast<uint32_t>(getLe32(pdu.data() + 16));
    return r;
}

// ------------------------------------------------------ wire traits

namespace {

std::optional<net::MsgFrame>
nvmeParsePrefix(const uint8_t *prefix, net::Digests)
{
    std::optional<CommonHdr> ch =
        parseCommonHdr(ByteView(prefix, kCommonHdrSize));
    if (!ch)
        return std::nullopt;
    net::MsgFrame f;
    f.type = ch->type;
    f.wireLen = ch->plen;
    f.dataOff = ch->pdo;
    f.dataLen = ch->dataLen();
    f.subHdrEnd = ch->hlen;
    f.isData = ch->type == kPduC2HData || ch->type == kPduH2CData;
    return f;
}

/** Data PDU sub-header (bytes from offset 8): cid u16, rsvd u16,
 *  dataOffset u32. */
core::PduTag
nvmeParseTag(const uint8_t *sub)
{
    return core::PduTag{getLe16(sub),
                        static_cast<uint32_t>(getLe32(sub + 4))};
}

} // namespace

const core::StorageWire kNvmeWire{
    {net::L5Kind::Nvme, core::kPduPrefixSize, nvmeParsePrefix},
    /*nicHeaderDigest=*/false, nvmeParseTag};

} // namespace anic::nvmetcp
