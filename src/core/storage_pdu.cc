#include "core/storage_pdu.hh"

#include <algorithm>
#include <cstring>

#include "crypto/crc32c.hh"

namespace anic::core {

size_t
PduAssembler::takePrefix(const tcp::RxSegment &seg, size_t off)
{
    if (have_ == 0)
        pduStartOff_ = seg.streamOff + off;
    size_t take = std::min(kPduPrefixSize - have_, seg.data.size() - off);
    std::memcpy(prefix_ + have_, seg.data.data() + off, take);
    have_ += take;
    consumed_ = seg.streamOff + off + take;
    if (have_ < kPduPrefixSize)
        return take;
    std::optional<PduFrame> f = wire_.parsePrefix(prefix_, dg_);
    if (!f) {
        error_ = true;
        return take;
    }
    cur_.frame = *f;
    cur_.bytes.resize(f->wireLen);
    std::memcpy(cur_.bytes.data(), prefix_, kPduPrefixSize);
    hdrComplete_ = true;
    return take;
}

size_t
PduAssembler::takeBody(const tcp::RxSegment &seg, size_t off)
{
    size_t take = std::min<size_t>(cur_.frame.wireLen - have_,
                                   seg.data.size() - off);
    std::memcpy(cur_.bytes.data() + have_, seg.data.data() + off, take);

    // A chunk's digest counts as NIC-checked when the packet went
    // through the offload path and no digest that completed in it was
    // left uncovered; it passed unless a completed check mismatched.
    // Chunks with no completed digest are vacuously OK (the verdict
    // rides on the chunk holding the trailer).
    net::VerifyOutcome v = seg.meta.verifyOf(wire_.kind);
    cur_.chunks++;
    if (!seg.meta.offloaded || v == net::VerifyOutcome::Incomplete ||
        v == net::VerifyOutcome::Failed)
        cur_.chunksVerified = false;
    for (const net::PlacedRange &r : seg.meta.placed) {
        // Convert segment-relative placement to PDU-relative.
        uint64_t s = std::max<uint64_t>(r.payloadOff, off);
        uint64_t e = std::min<uint64_t>(r.payloadOff + r.len, off + take);
        if (s < e) {
            cur_.placed.push_back(net::PlacedRange{
                static_cast<uint32_t>(have_ + (s - off)),
                static_cast<uint32_t>(e - s)});
        }
    }

    have_ += take;
    consumed_ = seg.streamOff + off + take;
    return take;
}

CopyCounts
copyUnplaced(RxPdu &pdu, uint64_t dataOff, uint32_t dataLen,
             uint64_t bufferOffset, host::BlockBuffer *dst)
{
    std::sort(pdu.placed.begin(), pdu.placed.end(),
              [](const net::PlacedRange &a, const net::PlacedRange &b) {
                  return a.payloadOff < b.payloadOff;
              });
    const uint64_t data_end = dataOff + dataLen;
    CopyCounts c;
    uint64_t cursor = dataOff;
    auto copyRange = [&](uint64_t from, uint64_t to) {
        if (from >= to)
            return;
        uint64_t at = bufferOffset + (from - dataOff);
        if (dst != nullptr && at + (to - from) <= dst->data.size()) {
            std::memcpy(dst->data.data() + at, pdu.bytes.data() + from,
                        to - from);
        }
        c.copied += to - from;
    };
    for (const net::PlacedRange &r : pdu.placed) {
        uint64_t ps = std::max<uint64_t>(r.payloadOff, dataOff);
        uint64_t pe = std::min<uint64_t>(r.payloadOff + r.len, data_end);
        if (ps >= pe)
            continue;
        copyRange(cursor, ps);
        c.placed += pe - ps;
        cursor = std::max(cursor, pe);
    }
    copyRange(cursor, data_end);
    return c;
}

bool
headerDigestOk(ByteView pdu, size_t hdrEnd)
{
    if (pdu.size() < hdrEnd + kDigestSize)
        return false;
    uint32_t wire = static_cast<uint32_t>(getLe32(pdu.data() + hdrEnd));
    return crypto::Crc32c::compute(pdu.first(hdrEnd)) == wire;
}

bool
dataDigestOk(const RxPdu &pdu, uint64_t dataOff, uint32_t dataLen)
{
    ByteView data = ByteView(pdu.bytes).subspan(dataOff, dataLen);
    uint32_t wire =
        static_cast<uint32_t>(getLe32(pdu.bytes.data() + dataOff + dataLen));
    return crypto::Crc32c::compute(data) == wire;
}

} // namespace anic::core
