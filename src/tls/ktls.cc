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
    scope.link(stem + ".framingErrors", s.framingErrors);
    scope.link(stem + ".txMsgStateUpcalls", s.txMsgStateUpcalls);
    scope.link(stem + ".rxResyncRequests", s.rxResyncRequests);
    scope.link(stem + ".rxResyncConfirmed", s.rxResyncConfirmed);
    scope.link(stem + ".plaintextBytesTx", s.plaintextBytesTx);
    scope.link(stem + ".plaintextBytesRx", s.plaintextBytesRx);
}

namespace {

std::optional<net::MsgFrame>
tlsParsePrefix(const uint8_t *prefix, net::Digests)
{
    std::optional<RecordHeader> h =
        RecordHeader::parse(ByteView(prefix, kHeaderSize));
    if (!h)
        return std::nullopt;
    return net::MsgFrame{.wireLen = static_cast<uint32_t>(h->wireLen()),
                         .dataLen = static_cast<uint32_t>(h->plaintextLen()),
                         .dataOff = kHeaderSize,
                         .subHdrEnd = kHeaderSize,
                         .type = h->type};
}

/** Offload results with the placed ranges clipped to [0, len). */
net::RxOffloadMeta
clipped(const net::RxOffloadMeta &meta, size_t len)
{
    net::RxOffloadMeta out = meta;
    out.placed.clear();
    for (const net::PlacedRange &r : meta.placed) {
        if (r.payloadOff < len) {
            out.placed.push_back(net::PlacedRange{
                r.payloadOff,
                static_cast<uint32_t>(
                    std::min<uint64_t>(r.payloadOff + r.len, len) -
                    r.payloadOff)});
        }
    }
    return out;
}

/** NIC-decrypted iff the packet went through the offload path and no
 *  record tag that completed in it failed. */
bool
decryptedByNic(const net::RxOffloadMeta &meta)
{
    return meta.offloaded &&
           meta.verifyOf(net::L5Kind::Tls) != net::VerifyOutcome::Failed;
}

/** Software AES-GCM for @p dir, keyed on its first use. */
crypto::AesGcm &
keyed(std::unique_ptr<crypto::AesGcm> &gcm, const DirectionKeys &dir)
{
    if (gcm == nullptr)
        gcm = std::make_unique<crypto::AesGcm>(dir.key);
    return *gcm;
}

/** A record of @p plainLen plaintext bytes, its header encoded. */
Bytes
newRecord(size_t plainLen)
{
    ANIC_ASSERT(plainLen > 0 && plainLen <= kMaxPlaintext);
    RecordHeader h;
    h.length = static_cast<uint16_t>(plainLen + kTagSize);
    Bytes wire(h.wireLen());
    h.encode(wire.data());
    return wire;
}

} // namespace

const net::MsgWire kTlsWire{net::L5Kind::Tls, kHeaderSize, tlsParsePrefix};

TlsSocket::TlsSocket(tcp::TcpConnection &conn, const SessionKeys &keys,
                     TlsConfig cfg)
    : L5pStream(kTlsWire, {}, &conn), cfg_(cfg), keys_(keys)
{
    conn_->setOnReadable([this] { onTcpReadable(); });
    conn_->setOnWritable([this] {
        flushStaging();
        if (staging_ == nullptr && onWritable_)
            onWritable_();
    });
}

void
TlsSocket::enableOffload(core::OffloadDevice &dev)
{
    // Unified binding: protocol kind + static state + directions.
    TlsStaticState st(keys_);
    unsigned dirs = (cfg_.rxOffload ? core::kL5Rx : 0u) |
                    (cfg_.txOffload ? core::kL5Tx : 0u);
    createOffload(dev, *conn_, st, dirs, assembler_.msgsDelivered(),
                  txRecSeq_);
}

void
TlsSocket::countEvent(StreamEvent e)
{
    static constexpr sim::Counter TlsStats::*kCounter[] = {
        &TlsStats::rxResyncRequests,
        &TlsStats::rxResyncConfirmed,
        &TlsStats::txMsgStateUpcalls,
    };
    count(kCounter[static_cast<size_t>(e)]);
}

// ----------------------------------------------------------------- tx

template <typename Emit>
size_t
TlsSocket::sendRecords(size_t len, Emit &&emit)
{
    conn_->core().charge(conn_->core().model().syscallCost);
    flushStaging();
    if (staging_ != nullptr)
        return 0;

    size_t consumed = 0;
    while (consumed < len && staging_ == nullptr && conn_->sendSpace() > 0) {
        size_t n = std::min(cfg_.recordSize, len - consumed);
        emit(consumed, n);
        consumed += n;
    }
    return consumed;
}

size_t
TlsSocket::send(ByteView data)
{
    return sendRecords(data.size(), [&](size_t off, size_t n) {
        emitRecord(newRecord(n), data.subspan(off, n), TxMode::Copy);
    });
}

size_t
TlsSocket::sendFile(uint64_t seed, uint64_t fileOff, size_t len)
{
    return sendRecords(len, [&](size_t off, size_t n) {
        // The page-cache bytes go straight into the record body.
        Bytes wire = newRecord(n);
        ByteSpan body = ByteSpan(wire).subspan(kHeaderSize, n);
        fillDeterministic(body, seed, fileOff + off);
        emitRecord(std::move(wire), body, TxMode::Sendfile);
    });
}

void
TlsSocket::chargeTxRecord(size_t plainLen, TxMode mode)
{
    const host::CycleModel &m = conn_->core().model();
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
    conn_->core().charge(cycles);
}

bool
TlsSocket::emitRecord(Bytes &&wire, ByteView plaintext, TxMode mode)
{
    ANIC_ASSERT(staging_ == nullptr);
    ANIC_ASSERT(wire.size() == kHeaderSize + plaintext.size() + kTagSize);

    chargeTxRecord(plaintext.size(), mode);

    ByteSpan body = ByteSpan(wire).subspan(kHeaderSize, plaintext.size());
    if (cfg_.txOffload) {
        // Skip the operation: plaintext body + dummy ICV; the NIC
        // encrypts in place and fills the tag.
        if (plaintext.data() != body.data())
            std::memcpy(body.data(), plaintext.data(), plaintext.size());
    } else {
        // Encrypts in place when the body already holds the plaintext.
        auto nonce = recordNonce(keys_.tx.staticIv, txRecSeq_);
        crypto::AesGcm &gcm = keyed(txGcm_, keys_.tx);
        gcm.start(nonce, ByteView(wire.data(), kHeaderSize));
        gcm.encryptUpdate(plaintext, body);
        gcm.finishTag(
            ByteSpan(wire).subspan(kHeaderSize + plaintext.size(), kTagSize));
    }

    // The record is immutable from here on. TCP holds it by reference
    // until it is acked, and the NIC may need its pre-encryption bytes
    // for context recovery on retransmission, so the tx-message map
    // shares it too.
    SharedBytes rec = std::make_shared<const Bytes>(std::move(wire));
    if (txOffloaded()) {
        txMap_.add(conn_->sndNextByteSeq(),
                   static_cast<uint32_t>(rec->size()), txRecSeq_, rec);
    }
    txRecSeq_++;
    count(&TlsStats::recordsTx);
    count(&TlsStats::plaintextBytesTx, plaintext.size());

    size_t acc = conn_->sendShared(rec, 0);
    if (acc < rec->size()) {
        staging_ = std::move(rec);
        stagingOff_ = acc;
        return false;
    }
    return true;
}

void
TlsSocket::flushStaging()
{
    if (staging_ == nullptr)
        return;
    stagingOff_ += conn_->sendShared(staging_, stagingOff_);
    if (stagingOff_ == staging_->size()) {
        staging_ = nullptr;
        stagingOff_ = 0;
    }
}

size_t
TlsSocket::sendSpace() const
{
    if (staging_ != nullptr)
        return 0;
    size_t sp = conn_->sendSpace();
    size_t per_record = kHeaderSize + kTagSize;
    size_t records = sp / (cfg_.recordSize + per_record) + 1;
    size_t overhead = records * per_record;
    return sp > overhead ? sp - overhead : 0;
}

// ----------------------------------------------------------------- rx

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
    // Lost framing and a failed tag are fatal: reception stops.
    while (conn_->readable() && !assembler_.stopped()) {
        ingest(conn_->pop(),
               [this](core::RxMsg &&rec) { return finishRecord(rec); });
        if (assembler_.error())
            count(&TlsStats::framingErrors);
    }
    if (!rxOut_.empty() && onReadable_)
        onReadable_();
}

bool
TlsSocket::finishRecord(core::RxMsg &rec)
{
    const host::CycleModel &m = conn_->core().model();
    const size_t plain_len = rec.frame.dataLen;
    ByteSpan body = ByteSpan(rec.bytes).subspan(kHeaderSize, plain_len);

    bool all = true;
    bool any = false;
    for (const core::MsgChunk &c : rec.chunks) {
        all &= decryptedByNic(c.meta);
        any |= decryptedByNic(c.meta);
    }

    double cycles = m.tlsRecordCost;
    bool offloaded = cfg_.rxOffload && all && !rec.chunks.empty();

    if (offloaded) {
        count(&TlsStats::rxFullyOffloaded);
        // NIC decrypted everything and verified the ICV: the body
        // already holds plaintext.
    } else {
        if (any)
            count(&TlsStats::rxPartiallyOffloaded);
        else
            count(&TlsStats::rxNotOffloaded);

        // NIC-decrypted ranges must first be re-encrypted (AES-GCM
        // authenticates ciphertext), which is why partial offload
        // costs more than no offload (§6.4).
        auto nonce = recordNonce(keys_.rx.staticIv, assembler_.msgsDelivered());
        crypto::AesGcm &gcm = keyed(rxGcm_, keys_.rx);
        for (const core::MsgChunk &c : rec.chunks) {
            size_t body_off = c.off - kHeaderSize;
            if (!decryptedByNic(c.meta) || body_off >= plain_len)
                continue;
            size_t enc_len = std::min<size_t>(c.len, plain_len - body_off);
            crypto::aesGcmCtrAtOffset(gcm.aes(), nonce, body_off,
                                      body.subspan(body_off, enc_len));
            cycles += m.aesCtrPerByte * static_cast<double>(enc_len);
        }

        gcm.start(nonce, ByteView(rec.bytes).first(kHeaderSize));
        gcm.decryptUpdate(body, body);
        cycles += m.aesGcmDecryptPerByte * static_cast<double>(plain_len);
        if (!gcm.checkTag(ByteView(rec.bytes).subspan(
                kHeaderSize + plain_len, kTagSize))) {
            conn_->core().charge(cycles);
            count(&TlsStats::tagFailures);
            return false;
        }
    }
    conn_->core().charge(cycles);

    // Deliver the plaintext body, preserving segment boundaries and
    // inner-offload metadata (crc/placement for NVMe-TLS).
    for (const core::MsgChunk &c : rec.chunks) {
        size_t body_off = c.off - kHeaderSize;
        if (body_off >= plain_len)
            break; // tag-only chunk
        size_t cp = std::min<size_t>(c.len, plain_len - body_off);
        tcp::RxSegment out;
        out.streamOff = rxPlainOff_;
        out.data.assign(ByteView(body).subspan(body_off, cp));
        out.meta = clipped(c.meta, cp);
        rxPlainOff_ += cp;
        rxOut_.push_back(std::move(out));
    }

    if (recordObserver_ != nullptr)
        recordObserver_->onRecord(assembler_.msgsDelivered(),
                                  rxPlainOff_ - plain_len);
    count(&TlsStats::recordsRx);
    count(&TlsStats::plaintextBytesRx, plain_len);
    return true;
}

} // namespace anic::tls
