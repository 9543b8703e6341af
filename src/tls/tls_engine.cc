#include "tls/tls_engine.hh"

#include "tls/ktls.hh"
#include "util/panic.hh"

namespace anic::tls {

// -------------------------------------------- unified-binding state

namespace {

void
ensureTlsRegistered()
{
    static const bool once = [] {
        core::L5ProtocolOps ops;
        ops.makeRx = [](const core::L5StaticState &st)
            -> std::unique_ptr<nic::L5Engine> {
            const auto &tls = static_cast<const TlsStaticState &>(st);
            return std::make_unique<TlsRxEngine>(tls.keys().rx);
        };
        ops.makeTx = [](const core::L5StaticState &st)
            -> std::unique_ptr<nic::L5Engine> {
            const auto &tls = static_cast<const TlsStaticState &>(st);
            return std::make_unique<TlsTxEngine>(tls.keys().tx);
        };
        core::registerL5Protocol(net::L5Kind::Tls, ops);
        return true;
    }();
    (void)once;
}

} // namespace

TlsStaticState::TlsStaticState(const SessionKeys &keys) : keys_(keys)
{
    ensureTlsRegistered();
}

// ----------------------------------------------------------- base

TlsEngineBase::TlsEngineBase(const DirectionKeys &keys)
    : L5Engine(kTlsWire, {}), staticIv_(keys.staticIv)
{
    gcm_.setKey(keys.key);
}

void
TlsEngineBase::startRecord(uint64_t recordSeq, const net::MsgFrame &frame,
                           ByteView hdr)
{
    auto nonce = recordNonce(staticIv_, recordSeq);
    gcm_.start(nonce, hdr);
    ctEnd_ = frame.dataEnd();
}

// ------------------------------------------------------- transmit

void
TlsTxEngine::onMsgStart(uint64_t msgIdx, const net::MsgFrame &frame,
                        ByteView hdr)
{
    startRecord(msgIdx, frame, hdr);
    tagReady_ = false;
}

void
TlsTxEngine::onMsgData(uint64_t off, ByteSpan data, nic::PacketResult &res)
{
    res.bytesTransformed += seal(off, data, data.data());
}

void
TlsTxEngine::onMsgReplay(uint64_t off, ByteView data)
{
    seal(off, data, nullptr);
}

size_t
TlsTxEngine::seal(uint64_t off, ByteView in, uint8_t *out)
{
    uint8_t scratch[4096];
    size_t sealed = 0;
    size_t i = 0;
    while (i < in.size()) {
        uint64_t pos = off + i;
        if (pos < ctEnd_) {
            size_t n = static_cast<size_t>(
                std::min<uint64_t>(ctEnd_ - pos, in.size() - i));
            if (out == nullptr)
                n = std::min(n, sizeof(scratch));
            gcm_.encryptUpdate(in.subspan(i, n),
                               out != nullptr ? ByteSpan(out + i, n)
                                              : ByteSpan(scratch, n));
            count(&nic::EngineStats::bytesTransformed, n);
            sealed += n;
            i += n;
        } else {
            // ICV region: replace the dummy bytes with the tag.
            if (!tagReady_) {
                gcm_.finishTag(ByteSpan(tag_, kTagSize));
                tagReady_ = true;
            }
            size_t tag_off = static_cast<size_t>(pos - ctEnd_);
            size_t n = std::min(kTagSize - tag_off, in.size() - i);
            if (out != nullptr)
                std::memcpy(out + i, tag_ + tag_off, n);
            i += n;
        }
    }
    return sealed;
}

void
TlsTxEngine::onMsgEnd(bool covered, nic::PacketResult &res)
{
    (void)covered;
    (void)res;
}

void
TlsTxEngine::onMsgAbort()
{
    tagReady_ = false;
}

// -------------------------------------------------------- receive

void
TlsRxEngine::installInner(
    std::unique_ptr<nic::L5Engine> inner,
    std::function<void(uint64_t reqId, uint64_t recIdx, uint32_t recOff)>
        innerResyncReq,
    uint64_t plaintextPos, uint64_t innerMsgIdx)
{
    inner_ = std::move(inner);
    innerResyncReq_ = std::move(innerResyncReq);
    innerFsm_ = std::make_unique<nic::StreamFsm>(
        *inner_, [this](uint64_t reqId, uint64_t pos) {
            // Translate the linear plaintext position into a
            // (record, offset) anchor software can identify. A
            // candidate can start in the previous record when the
            // scan carry straddles a record boundary.
            if (pos >= curRecPlainStart_) {
                innerResyncReq_(reqId, curRecIdx_,
                                static_cast<uint32_t>(pos - curRecPlainStart_));
            } else if (havePrevRec_ && pos >= prevRecPlainStart_) {
                innerResyncReq_(
                    reqId, prevRecIdx_,
                    static_cast<uint32_t>(pos - prevRecPlainStart_));
            } else {
                // Unanchorable; refute immediately so the FSM keeps
                // searching instead of waiting forever.
                innerFsm_->confirm(reqId, false, 0);
            }
        });
    innerPos_ = plaintextPos;
    inner_->setStats(engineStats_);
    innerFsm_->reset(plaintextPos, innerMsgIdx);
}

void
TlsRxEngine::setStats(nic::EngineStatsBank *stats)
{
    TlsEngineBase::setStats(stats);
    if (inner_)
        inner_->setStats(stats);
}

void
TlsRxEngine::innerResyncResponse(uint64_t reqId, bool ok, uint64_t msgIdx)
{
    if (innerFsm_)
        innerFsm_->confirm(reqId, ok, msgIdx);
}

const nic::FsmStats *
TlsRxEngine::innerFsmStats() const
{
    return innerFsm_ ? &innerFsm_->stats() : nullptr;
}

void
TlsRxEngine::innerResolveAbort(uint64_t resumeIdx, uint64_t resumeOff)
{
    if (!inner_ || !pendingAbort_)
        return;
    pendingAbort_ = false;
    uint64_t delivered = innerPos_ - curRecPlainStart_;
    uint64_t total_plain = ctEnd_ - kHeaderSize;
    if (resumeIdx == abortRecIdx_) {
        // Resuming inside the aborted record: the plaintext hole is
        // only up to the resume offset.
        uint64_t target = resumeOff >= kHeaderSize ? resumeOff - kHeaderSize
                                                   : 0;
        if (target > delivered)
            innerPos_ = curRecPlainStart_ + target;
    } else if (delivered < total_plain) {
        // The record's remaining plaintext was never delivered.
        innerPos_ += total_plain - delivered;
    }
}

void
TlsRxEngine::innerNoteRecord(uint64_t msgIdx, uint64_t plainSkip)
{
    if (!inner_)
        return;
    if (haveSeenRecord_ && msgIdx != curRecIdx_ + 1 && msgIdx != curRecIdx_) {
        // Records were skipped (processed in skip mode, never
        // decrypted): the plaintext stream has a hole of unknown
        // size, so the inner layer must re-anchor by searching.
        innerFsm_->positionLost();
        innerPos_ += kMaxWire; // fresh epoch, break continuity
    }
    if (msgIdx != curRecIdx_ || !haveSeenRecord_) {
        havePrevRec_ = haveSeenRecord_;
        prevRecIdx_ = curRecIdx_;
        prevRecPlainStart_ = curRecPlainStart_;
        curRecIdx_ = msgIdx;
        curRecPlainStart_ = innerPos_;
        haveSeenRecord_ = true;
    }
    // Plaintext bytes of this record we will never see (mid-record
    // resume): a known-length gap for the inner layer.
    innerPos_ += plainSkip;
}

void
TlsRxEngine::onMsgStart(uint64_t msgIdx, const net::MsgFrame &frame,
                        ByteView hdr)
{
    // Sets ctEnd_ for abort accounting below.
    startRecord(msgIdx, frame, hdr);
    innerResolveAbort(msgIdx, 0);
    innerNoteRecord(msgIdx, 0);
    ctrOnly_ = false;
    tagHave_ = 0;
}

void
TlsRxEngine::onMsgResume(uint64_t msgIdx, const net::MsgFrame &frame,
                         ByteView, uint64_t off)
{
    // Mid-record resume: decrypt-only via CTR fast-forward; the ICV
    // cannot be verified (GHASH is incomplete), and software will
    // re-authenticate because at least one packet of this record
    // lacks the decrypted bit.
    size_t prev_ct_end = ctEnd_;
    ctEnd_ = frame.dataEnd();
    nonce_ = recordNonce(staticIv_, msgIdx);
    ctrOnly_ = true;
    tagHave_ = 0;
    if (inner_) {
        // Restore ctEnd_ briefly for abort bookkeeping of the prior
        // record if the abort belonged to a different record.
        size_t cur = ctEnd_;
        ctEnd_ = pendingAbort_ && abortRecIdx_ != msgIdx ? prev_ct_end : cur;
        innerResolveAbort(msgIdx, off);
        ctEnd_ = cur;
        uint64_t body_off = off >= kHeaderSize ? off - kHeaderSize : 0;
        uint64_t delivered = innerPos_ - curRecPlainStart_;
        uint64_t skip = msgIdx == curRecIdx_ && haveSeenRecord_ &&
                                body_off > delivered
                            ? 0 // handled by innerResolveAbort
                            : (msgIdx != curRecIdx_ || !haveSeenRecord_
                                   ? body_off
                                   : 0);
        innerNoteRecord(msgIdx, skip);
    }
}

void
TlsRxEngine::onMsgData(uint64_t off, ByteSpan data, nic::PacketResult &res)
{
    size_t i = 0;
    while (i < data.size()) {
        uint64_t pos = off + i;
        if (pos < ctEnd_) {
            size_t n = static_cast<size_t>(
                std::min<uint64_t>(ctEnd_ - pos, data.size() - i));
            ByteSpan chunk = data.subspan(i, n);
            if (ctrOnly_) {
                crypto::aesGcmCtrAtOffset(gcm_.aes(), nonce_,
                                          pos - kHeaderSize, chunk);
            } else {
                gcm_.decryptUpdate(chunk, chunk);
            }
            count(&nic::EngineStats::bytesTransformed, n);
            res.bytesTransformed += n;
            if (inner_) {
                // Feed the decrypted plaintext to the inner layer.
                uint32_t saved_base = res.payloadBase;
                res.payloadBase =
                    res.spanPktOff + static_cast<uint32_t>(i);
                innerFsm_->segment(innerPos_, chunk, res);
                res.payloadBase = saved_base;
                innerPos_ += n;
            }
            i += n;
        } else {
            // ICV region: collect for verification at record end
            // (meaningless in ctrOnly mode; software re-checks).
            size_t tag_off = static_cast<size_t>(pos - ctEnd_);
            size_t n = std::min(kTagSize - tag_off, data.size() - i);
            if (!ctrOnly_) {
                std::memcpy(tagBuf_ + tag_off, data.data() + i, n);
                tagHave_ = tag_off + n;
            }
            i += n;
        }
    }
}

void
TlsRxEngine::onMsgEnd(bool covered, nic::PacketResult &res)
{
    if (!covered || ctrOnly_) {
        // Incomplete coverage: no ICV verification here; software's
        // partial-record fallback authenticates the record.
        ctrOnly_ = false;
        res.setVerify(net::L5Kind::Tls, net::VerifyOutcome::Incomplete);
        return;
    }
    ANIC_ASSERT(tagHave_ == kTagSize);
    if (!gcm_.checkTag(ByteView(tagBuf_, kTagSize))) {
        res.setVerify(net::L5Kind::Tls, net::VerifyOutcome::Failed);
        count(&nic::EngineStats::verifyFailures);
    } else {
        res.setVerify(net::L5Kind::Tls, net::VerifyOutcome::Ok);
        count(&nic::EngineStats::verifiedOk);
    }
}

void
TlsRxEngine::onMsgAbort()
{
    ctrOnly_ = false;
    if (inner_) {
        // Defer the plaintext-gap accounting: if the same record is
        // resumed mid-way (CTR fast-forward), only part of it is lost.
        pendingAbort_ = true;
        abortRecIdx_ = curRecIdx_;
    }
}

} // namespace anic::tls
