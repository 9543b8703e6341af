#include "tls/ktls.hh"

#include "util/panic.hh"

namespace anic::tls {

void
linkTlsStats(sim::StatsScope &scope, const std::string &stem,
             const TlsStats &s)
{
    scope.link(stem + ".recordsTx", s.recordsTx);
    scope.link(stem + ".recordsRx", s.recordsRx);
    scope.link(stem + ".rxFullyOffloaded", s.rxFullyOffloaded);
    scope.link(stem + ".rxPartiallyOffloaded", s.rxPartiallyOffloaded);
    scope.link(stem + ".rxNotOffloaded", s.rxNotOffloaded);
    scope.link(stem + ".tagFailures", s.tagFailures);
    scope.link(stem + ".txMsgStateUpcalls", s.txMsgStateUpcalls);
    scope.link(stem + ".rxResyncRequests", s.rxResyncRequests);
    scope.link(stem + ".rxResyncConfirmed", s.rxResyncConfirmed);
    scope.link(stem + ".plaintextBytesTx", s.plaintextBytesTx);
    scope.link(stem + ".plaintextBytesRx", s.plaintextBytesRx);
}

namespace {

/** Clips offload metadata to a sub-range of a segment's data. */
net::RxOffloadMeta
metaSlice(const net::RxOffloadMeta &meta, size_t off, size_t len)
{
    net::RxOffloadMeta out = meta;
    out.placed.clear();
    for (const net::PlacedRange &r : meta.placed) {
        uint64_t start = std::max<uint64_t>(r.payloadOff, off);
        uint64_t end = std::min<uint64_t>(r.payloadOff + r.len, off + len);
        if (start < end) {
            out.placed.push_back(
                net::PlacedRange{static_cast<uint32_t>(start - off),
                                 static_cast<uint32_t>(end - start)});
        }
    }
    return out;
}

/** Software AES-GCM for @p dir, keyed on its first use. */
crypto::AesGcm &
keyed(std::unique_ptr<crypto::AesGcm> &gcm, const DirectionKeys &dir)
{
    if (gcm == nullptr)
        gcm = std::make_unique<crypto::AesGcm>(dir.key);
    return *gcm;
}

} // namespace

TlsSocket::TlsSocket(tcp::TcpConnection &conn, const SessionKeys &keys,
                     TlsConfig cfg)
    : conn_(conn), cfg_(cfg), keys_(keys)
{
    rxHdrBuf_.reserve(kHeaderSize);

    conn_.setOnReadable([this] { onTcpReadable(); });
    conn_.setOnAcked([this](uint32_t una) { txMap_.trimAcked(una); });
    conn_.setOnWritable([this] {
        flushStaging();
        if (staging_.empty() && onWritable_)
            onWritable_();
    });
}

TlsSocket::~TlsSocket()
{
    if (l5o_ != nullptr)
        l5o_->destroy();
}

void
TlsSocket::enableOffload(core::OffloadDevice &dev)
{
    ANIC_ASSERT(l5o_ == nullptr, "offload already enabled");
    if (!cfg_.txOffload && !cfg_.rxOffload)
        return;

    // Unified binding: protocol kind + static state + directions.
    TlsStaticState st(keys_);
    unsigned dirs = (cfg_.rxOffload ? core::kL5Rx : 0u) |
                    (cfg_.txOffload ? core::kL5Tx : 0u);
    l5o_ = dev.l5oCreate(conn_, st, dirs, this, rxRecSeq_, txRecSeq_);
    if (cfg_.txOffload)
        conn_.setTxOffloadCtx(l5o_->txCtxId());
}

// ----------------------------------------------------------------- tx

size_t
TlsSocket::send(ByteView data)
{
    conn_.core().charge(conn_.core().model().syscallCost);
    flushStaging();
    if (!staging_.empty())
        return 0;

    size_t consumed = 0;
    while (consumed < data.size() && staging_.empty() &&
           conn_.sendSpace() > 0) {
        size_t n = std::min(cfg_.recordSize, data.size() - consumed);
        emitRecord(data.subspan(consumed, n), TxMode::Copy);
        consumed += n;
    }
    return consumed;
}

size_t
TlsSocket::sendFile(uint64_t seed, uint64_t fileOff, size_t len)
{
    conn_.core().charge(conn_.core().model().syscallCost);
    flushStaging();
    if (!staging_.empty())
        return 0;

    size_t consumed = 0;
    while (consumed < len && staging_.empty() && conn_.sendSpace() > 0) {
        size_t n = std::min(cfg_.recordSize, len - consumed);
        Bytes plain(n);
        fillDeterministic(plain, seed, fileOff + consumed);
        emitRecord(plain, TxMode::Sendfile);
        consumed += n;
    }
    return consumed;
}

void
TlsSocket::chargeTxRecord(size_t plainLen, TxMode mode)
{
    const host::CycleModel &m = conn_.core().model();
    double cycles = m.tlsRecordCost;
    double bytes = static_cast<double>(plainLen);

    if (mode == TxMode::Copy) {
        // send(): user -> record buffer copy always happens.
        cycles += m.copyLlcPerByte * bytes;
        if (!cfg_.txOffload)
            cycles += m.aesGcmEncryptPerByte * bytes;
    } else {
        // sendfile(): source is the page cache.
        if (!cfg_.txOffload) {
            cycles += m.tlsTxAllocPerRecord + m.aesGcmEncryptPerByte * bytes;
        } else if (!cfg_.zerocopySendfile) {
            cycles += m.tlsTxAllocPerRecord + m.copyLlcPerByte * bytes;
        }
        // offload+zc: page-cache pages go straight to the NIC.
    }
    conn_.core().charge(cycles);
}

bool
TlsSocket::emitRecord(ByteView plaintext, TxMode mode)
{
    ANIC_ASSERT(staging_.empty());
    ANIC_ASSERT(!plaintext.empty() && plaintext.size() <= kMaxPlaintext);

    RecordHeader h;
    h.length = static_cast<uint16_t>(plaintext.size() + kTagSize);
    Bytes wire(h.wireLen());
    h.encode(wire.data());

    chargeTxRecord(plaintext.size(), mode);

    if (cfg_.txOffload) {
        // Skip the operation: plaintext body + dummy ICV; the NIC
        // encrypts in place and fills the tag.
        std::memcpy(wire.data() + kHeaderSize, plaintext.data(),
                    plaintext.size());
    } else {
        auto nonce = recordNonce(keys_.tx.staticIv, txRecSeq_);
        crypto::AesGcm &gcm = keyed(txGcm_, keys_.tx);
        gcm.start(nonce, ByteView(wire.data(), kHeaderSize));
        gcm.encryptUpdate(plaintext,
                          ByteSpan(wire).subspan(kHeaderSize,
                                                 plaintext.size()));
        gcm.finishTag(
            ByteSpan(wire).subspan(kHeaderSize + plaintext.size(), kTagSize));
    }

    // With tx offload the NIC may need the record's pre-encryption
    // bytes for context recovery on retransmission; keep them until
    // the record is fully acked.
    txMap_.add(conn_.sndNextByteSeq(), static_cast<uint32_t>(wire.size()),
               txRecSeq_, cfg_.txOffload ? wire : Bytes{});
    txRecSeq_++;
    count(&TlsStats::recordsTx);
    count(&TlsStats::plaintextBytesTx, plaintext.size());

    size_t acc = conn_.send(wire);
    if (acc < wire.size()) {
        staging_.assign(wire.begin() + acc, wire.end());
        stagingOff_ = 0;
        return false;
    }
    return true;
}

void
TlsSocket::flushStaging()
{
    if (staging_.empty())
        return;
    ByteView rest =
        ByteView(staging_).subspan(stagingOff_, staging_.size() - stagingOff_);
    size_t acc = conn_.send(rest);
    stagingOff_ += acc;
    if (stagingOff_ == staging_.size()) {
        staging_.clear();
        stagingOff_ = 0;
    }
}

size_t
TlsSocket::sendSpace() const
{
    if (!staging_.empty())
        return 0;
    size_t sp = conn_.sendSpace();
    size_t per_record = kHeaderSize + kTagSize;
    size_t records = sp / (cfg_.recordSize + per_record) + 1;
    size_t overhead = records * per_record;
    return sp > overhead ? sp - overhead : 0;
}

std::optional<core::L5pCallbacks::TxMsgState>
TlsSocket::getTxMsgState(uint32_t tcpsn)
{
    count(&TlsStats::txMsgStateUpcalls);
    const core::TxMsgTracker::Entry *e = txMap_.find(tcpsn);
    if (e == nullptr)
        return std::nullopt;
    TxMsgState st;
    st.msgStartSeq = e->startSeq;
    st.msgIdx = e->msgIdx;
    uint32_t n = tcpsn - e->startSeq;
    ANIC_ASSERT(e->bytes.size() >= n, "record bytes not retained");
    st.rebuild = ByteView(e->bytes).first(n);
    return st;
}

// ----------------------------------------------------------------- rx

void
TlsSocket::setOnPeerClosed(std::function<void()> cb)
{
    conn_.setOnPeerClosed(std::move(cb));
}

tcp::RxSegment
TlsSocket::pop()
{
    ANIC_ASSERT(!rxOut_.empty());
    tcp::RxSegment seg = std::move(rxOut_.front());
    rxOut_.pop_front();
    return seg;
}

void
TlsSocket::onTcpReadable()
{
    while (conn_.readable() && !rxError_)
        ingestSegment(conn_.pop());
    if (!rxOut_.empty() && onReadable_)
        onReadable_();
}

void
TlsSocket::ingestSegment(tcp::RxSegment seg)
{
    size_t off = 0;
    const size_t n = seg.data.size();
    while (off < n && !rxError_) {
        if (!rxHdrComplete_) {
            if (rxHdrBuf_.empty()) {
                // A record starts here: note its position and answer
                // any pending NIC speculation about it.
                rxRecStartOff_ = seg.streamOff + off;
                answerPendingResync(
                    conn_.seqOfRcvStreamOff(rxRecStartOff_));
            }
            size_t need = kHeaderSize - rxHdrBuf_.size();
            size_t take = std::min(need, n - off);
            rxHdrBuf_.insert(rxHdrBuf_.end(), seg.data.begin() + off,
                             seg.data.begin() + off + take);
            off += take;
            rxStreamConsumed_ = seg.streamOff + off;
            if (rxHdrBuf_.size() < kHeaderSize)
                break;
            std::optional<RecordHeader> h = RecordHeader::parse(rxHdrBuf_);
            if (!h) {
                // Stream desync: treat as a fatal protocol error.
                rxError_ = true;
                count(&TlsStats::tagFailures);
                return;
            }
            rxHdr_ = *h;
            rxHdrComplete_ = true;
            rxHave_ = kHeaderSize;
            continue;
        }

        size_t want = rxHdr_.wireLen() - rxHave_;
        size_t take = std::min(want, n - off);
        Slice s;
        s.recOff = rxHave_;
        s.data.assign(seg.data.begin() + off, seg.data.begin() + off + take);
        s.meta = metaSlice(seg.meta, off, take);
        // NIC-decrypted iff the packet went through the offload path
        // and no record tag that completed in it failed.
        s.decrypted = seg.meta.offloaded &&
                      seg.meta.verifyOf(net::L5Kind::Tls) !=
                          net::VerifyOutcome::Failed;
        rxSlices_.push_back(std::move(s));
        rxHave_ += take;
        off += take;
        rxStreamConsumed_ = seg.streamOff + off;
        if (rxHave_ == rxHdr_.wireLen())
            finishRecord();
    }
}

void
TlsSocket::finishRecord()
{
    const host::CycleModel &m = conn_.core().model();
    const size_t plain_len = rxHdr_.plaintextLen();

    bool all = true;
    bool any = false;
    for (const Slice &s : rxSlices_) {
        all &= s.decrypted;
        any |= s.decrypted;
    }

    double cycles = m.tlsRecordCost;
    bool offloaded = cfg_.rxOffload && all && !rxSlices_.empty();

    if (offloaded) {
        count(&TlsStats::rxFullyOffloaded);
        // NIC decrypted everything and verified the ICV: slices
        // already hold plaintext.
    } else {
        if (any)
            count(&TlsStats::rxPartiallyOffloaded);
        else
            count(&TlsStats::rxNotOffloaded);

        // Reassemble the ciphertext. NIC-decrypted ranges must first
        // be re-encrypted (AES-GCM authenticates ciphertext), which
        // is why partial offload costs more than no offload (§6.4).
        Bytes ct(plain_len + kTagSize);
        auto nonce = recordNonce(keys_.rx.staticIv, rxRecSeq_);
        crypto::AesGcm &gcm = keyed(rxGcm_, keys_.rx);
        for (const Slice &s : rxSlices_) {
            size_t body_off = s.recOff - kHeaderSize;
            std::memcpy(ct.data() + body_off, s.data.data(), s.data.size());
            if (s.decrypted) {
                size_t enc_start = body_off;
                size_t enc_len =
                    std::min(s.data.size(), plain_len - std::min(plain_len,
                                                                 body_off));
                if (body_off < plain_len && enc_len > 0) {
                    crypto::aesGcmCtrAtOffset(
                        gcm.aes(), nonce, enc_start,
                        ByteSpan(ct).subspan(enc_start, enc_len));
                    cycles += m.aesCtrPerByte * static_cast<double>(enc_len);
                }
            }
        }

        gcm.start(nonce, ByteView(rxHdrBuf_.data(), kHeaderSize));
        Bytes plain(plain_len);
        gcm.decryptUpdate(ByteView(ct).subspan(0, plain_len), plain);
        cycles += m.aesGcmDecryptPerByte * static_cast<double>(plain_len);
        bool ok = gcm.checkTag(ByteView(ct).subspan(plain_len, kTagSize));
        if (!ok) {
            conn_.core().charge(cycles);
            count(&TlsStats::tagFailures);
            rxError_ = true;
            return;
        }
        // Substitute the recovered plaintext back into the slices.
        for (Slice &s : rxSlices_) {
            size_t body_off = s.recOff - kHeaderSize;
            size_t cp = std::min(s.data.size(),
                                 plain_len > body_off ? plain_len - body_off
                                                      : 0);
            if (cp > 0)
                std::memcpy(s.data.data(), plain.data() + body_off, cp);
        }
    }
    conn_.core().charge(cycles);

    // Deliver the plaintext body, preserving slice boundaries and
    // inner-offload metadata (crc/placement for NVMe-TLS).
    for (Slice &s : rxSlices_) {
        size_t body_off = s.recOff - kHeaderSize;
        if (body_off >= plain_len)
            break; // tag-only slice
        size_t cp = std::min(s.data.size(), plain_len - body_off);
        tcp::RxSegment out;
        out.streamOff = rxPlainOff_;
        out.data.assign(s.data.begin(), s.data.begin() + cp);
        out.meta = metaSlice(s.meta, 0, cp);
        rxPlainOff_ += cp;
        rxOut_.push_back(std::move(out));
    }

    if (recordObserver_)
        recordObserver_(rxRecSeq_, rxPlainOff_ - plain_len);
    count(&TlsStats::recordsRx);
    count(&TlsStats::plaintextBytesRx, plain_len);
    rxRecSeq_++;
    rxSlices_.clear();
    rxHdrBuf_.clear();
    rxHdrComplete_ = false;
    rxHave_ = 0;
}

void
TlsSocket::answerPendingResync(uint32_t recordStartSeq)
{
    if (!resyncPending_ || l5o_ == nullptr)
        return;
    if (recordStartSeq == resyncSeq_) {
        resyncPending_ = false;
        count(&TlsStats::rxResyncConfirmed);
        l5o_->resyncRxResp(resyncSeq_, true, rxRecSeq_);
    } else if (tcp::seqGt(recordStartSeq, resyncSeq_)) {
        resyncPending_ = false;
        l5o_->resyncRxResp(resyncSeq_, false, 0);
    }
}

void
TlsSocket::resyncRxReq(uint32_t tcpsn)
{
    count(&TlsStats::rxResyncRequests);
    resyncPending_ = true;
    resyncSeq_ = tcpsn;

    bool mid_record = rxHdrComplete_ || !rxHdrBuf_.empty();
    if (mid_record) {
        uint32_t cur = conn_.seqOfRcvStreamOff(rxRecStartOff_);
        if (tcpsn == cur) {
            // The NIC guessed the record currently being assembled.
            resyncPending_ = false;
            count(&TlsStats::rxResyncConfirmed);
            l5o_->resyncRxResp(tcpsn, true, rxRecSeq_);
        } else if (tcp::seqLt(tcpsn, cur)) {
            resyncPending_ = false;
            l5o_->resyncRxResp(tcpsn, false, 0);
        }
        // Otherwise: resolved when the next record starts.
        return;
    }
    // Idle between records: the next record starts at the next
    // unconsumed stream byte.
    answerPendingResync(conn_.seqOfRcvStreamOff(rxStreamConsumed_));
}

} // namespace anic::tls
