#include "core/storage_engine.hh"

#include <cstring>
#include <mutex>

namespace anic::core {

// -------------------------------------------- unified-binding state

namespace {

std::unique_ptr<nic::L5Engine>
makeRx(const L5StaticState &st)
{
    const auto &s = static_cast<const StorageStaticState &>(st);
    return std::make_unique<StorageRxEngine>(s.wire(), s.digests());
}

std::unique_ptr<nic::L5Engine>
makeTx(const L5StaticState &st)
{
    const auto &s = static_cast<const StorageStaticState &>(st);
    return std::make_unique<StorageTxEngine>(s.wire(), s.digests());
}

} // namespace

StorageStaticState::StorageStaticState(const StorageWire &wire,
                                       net::Digests d)
    : wire_(wire), dg_(d)
{
    // Linking a protocol module and constructing its static state is
    // all it takes: the driver and stream FSM name no storage L5P.
    static std::once_flag once[net::kL5KindCount];
    std::call_once(once[static_cast<size_t>(wire.kind)], [&wire] {
        L5ProtocolOps ops;
        ops.makeRx = makeRx;
        ops.makeTx = makeTx;
        registerL5Protocol(wire.kind, ops);
    });
}

// ------------------------------------------------------------- receive

void
StorageRxEngine::beginPdu(const net::MsgFrame &frame, ByteView prefix)
{
    frame_ = frame;
    std::memset(subHdr_, 0, sizeof(subHdr_));
    subHdrHave_ = 0;
    subHdrValid_ = false;
    subHdrDead_ = false;
    placeTarget_ = nullptr;
    hdrCrc_.reset();
    if (hdrDigest())
        hdrCrc_.update(prefix);
    hdgstHave_ = 0;
    hdrCovered_ = true;
    dataCrc_.reset();
    ddgstHave_ = 0;
}

void
StorageRxEngine::onMsgStart(uint64_t msgIdx, const net::MsgFrame &frame,
                            ByteView prefix)
{
    beginPdu(frame, prefix);
    curMsgIdx_ = msgIdx;
    haveMsgIdx_ = true;
    crcValid_ = true;
}

void
StorageRxEngine::onMsgResume(uint64_t msgIdx, const net::MsgFrame &frame,
                             ByteView prefix, uint64_t off)
{
    // Either resuming the same PDU after a gap (sub-header known,
    // placement continues) or adopting a different PDU mid-way.
    // Identity must come from the message index: every large data PDU
    // has an identical header shape, so shape comparison alone would
    // silently attach the previous PDU's buffer. But the index is
    // seeded by software on resync confirmation, so a buggy (or merely
    // restarted) L5P can recycle an index for a different PDU: the
    // shape the FSM hands us must also match the cached one before
    // per-PDU state is trusted.
    bool same_pdu = haveMsgIdx_ && msgIdx == curMsgIdx_ && subHdrValid_ &&
                    frame.sameShape(frame_);
    if (!same_pdu) {
        beginPdu(frame, prefix);
        if (off > kPduPrefixSize) {
            // Sub-header bytes before the resume point will never be
            // seen: no tag (placement impossible), no header digest.
            subHdrDead_ = true;
            hdrCovered_ = false;
        }
        curMsgIdx_ = msgIdx;
        haveMsgIdx_ = true;
    }
    crcValid_ = false;
}

void
StorageRxEngine::takeSubHdr(uint64_t pos, ByteView bytes)
{
    std::memcpy(subHdr_ + (pos - kPduPrefixSize), bytes.data(), bytes.size());
    subHdrHave_ += bytes.size();
    if (subHdrDead_)
        return;
    if (hdrDigest()) {
        hdrCrc_.update(bytes);
        count(&nic::EngineStats::bytesChecked, bytes.size());
    }
    if (subHdrHave_ >= frame_.subHdrEnd - kPduPrefixSize && !subHdrValid_) {
        if (frame_.isData) {
            tag_ = traits().parseTag(subHdr_);
            auto it = rrState_.find(tag_.tag);
            placeTarget_ = it != rrState_.end() ? it->second : nullptr;
        }
        subHdrValid_ = true;
    }
}

void
StorageRxEngine::onMsgData(uint64_t off, ByteSpan data, nic::PacketResult &res)
{
    const uint64_t sub_end = frame_.subHdrEnd;
    const uint64_t pdo = frame_.dataOff;
    const uint64_t data_end = frame_.dataEnd();
    const bool hdr_digest = hdrDigest();

    size_t i = 0;
    while (i < data.size()) {
        const uint64_t pos = off + i;
        const size_t left = data.size() - i;
        if (pos < sub_end) {
            size_t n =
                static_cast<size_t>(std::min<uint64_t>(sub_end - pos, left));
            takeSubHdr(pos, ByteView(data.data() + i, n));
            i += n;
        } else if (pos < pdo) {
            // Header digest: collected where the NIC checks it, opaque
            // otherwise.
            size_t n =
                static_cast<size_t>(std::min<uint64_t>(pdo - pos, left));
            if (hdr_digest) {
                size_t tail_off = static_cast<size_t>(pos - sub_end);
                std::memcpy(hdgstBuf_ + tail_off, data.data() + i, n);
                hdgstHave_ = tail_off + n;
            }
            i += n;
        } else if (pos < data_end) {
            size_t n =
                static_cast<size_t>(std::min<uint64_t>(data_end - pos, left));
            ByteView chunk(data.data() + i, n);
            if (frame_.isData && dg_.data) {
                dataCrc_.update(chunk);
                count(&nic::EngineStats::bytesChecked, n);
            }
            if (placeTarget_ && subHdrValid_) {
                // DMA-write straight into the block buffer (Figure 9).
                uint64_t dst = tag_.bufferOffset + (pos - pdo);
                if (dst + n <= placeTarget_->data.size()) {
                    std::memcpy(placeTarget_->data.data() + dst,
                                chunk.data(), n);
                    res.placed.push_back(net::PlacedRange{
                        res.spanPktOff + static_cast<uint32_t>(i),
                        static_cast<uint32_t>(n)});
                    count(&nic::EngineStats::bytesPlaced, n);
                }
            }
            i += n;
        } else {
            // Data digest trailer. Bytes past the constant-size trailer
            // mean the cached header disagrees with the FSM's framing
            // (stale state across a resume); ignore them and leave
            // verification to software.
            size_t tail_off = static_cast<size_t>(pos - data_end);
            if (tail_off >= kDigestSize) {
                crcValid_ = false;
                break;
            }
            size_t n = std::min(kDigestSize - tail_off, left);
            std::memcpy(ddgstBuf_ + tail_off, data.data() + i, n);
            ddgstHave_ = tail_off + n;
            i += n;
        }
    }
}

void
StorageRxEngine::onMsgEnd(bool covered, nic::PacketResult &res)
{
    const bool hdr_digest = hdrDigest();
    const bool data_digest = frame_.isData && dg_.data && frame_.dataLen > 0;
    if (!hdr_digest && !data_digest)
        return; // nothing to verify on this PDU
    bool incomplete = !covered || !crcValid_;
    if (hdr_digest && (!hdrCovered_ || hdgstHave_ < kDigestSize))
        incomplete = true;
    if (data_digest && ddgstHave_ < kDigestSize)
        incomplete = true;
    if (incomplete) {
        // Incomplete coverage: report unchecked so software verifies.
        res.setVerify(kind(), net::VerifyOutcome::Incomplete);
        return;
    }
    bool ok = true;
    if (hdr_digest &&
        hdrCrc_.value() != static_cast<uint32_t>(getLe32(hdgstBuf_)))
        ok = false;
    if (data_digest &&
        dataCrc_.value() != static_cast<uint32_t>(getLe32(ddgstBuf_)))
        ok = false;
    if (ok) {
        res.setVerify(kind(), net::VerifyOutcome::Ok);
        count(&nic::EngineStats::verifiedOk);
    } else {
        res.setVerify(kind(), net::VerifyOutcome::Failed);
        count(&nic::EngineStats::verifyFailures);
    }
}

// ------------------------------------------------------------ transmit

void
StorageTxEngine::onMsgStart(uint64_t, const net::MsgFrame &frame, ByteView)
{
    frame_ = frame;
    crc_.reset();
    ddgstReady_ = false;
}

void
StorageTxEngine::onMsgData(uint64_t off, ByteSpan data, nic::PacketResult &)
{
    digest(off, data, data.data());
}

void
StorageTxEngine::onMsgReplay(uint64_t off, ByteView data)
{
    digest(off, data, nullptr);
}

void
StorageTxEngine::digest(uint64_t off, ByteView in, uint8_t *out)
{
    if (!frame_.isData || !dg_.data)
        return;
    const uint64_t pdo = frame_.dataOff;
    const uint64_t data_end = frame_.dataEnd();

    size_t i = 0;
    while (i < in.size()) {
        const uint64_t pos = off + i;
        const size_t left = in.size() - i;
        if (pos < pdo) {
            i += static_cast<size_t>(std::min<uint64_t>(pdo - pos, left));
        } else if (pos < data_end) {
            size_t n =
                static_cast<size_t>(std::min<uint64_t>(data_end - pos, left));
            crc_.update(in.subspan(i, n));
            count(&nic::EngineStats::bytesChecked, n);
            i += n;
        } else {
            // Replace the dummy digest with the computed CRC.
            if (!ddgstReady_) {
                putLe32(ddgst_, crc_.value());
                ddgstReady_ = true;
            }
            size_t tail_off = static_cast<size_t>(pos - data_end);
            if (tail_off >= kDigestSize)
                break; // framing disagreement; never write past wireLen
            size_t n = std::min(kDigestSize - tail_off, left);
            if (out != nullptr)
                std::memcpy(out + i, ddgst_ + tail_off, n);
            i += n;
        }
    }
}

} // namespace anic::core
