#include "core/storage_endpoint.hh"

#include "util/panic.hh"

namespace anic::core {

StorageEndpoint::StorageEndpoint(tcp::StreamSocket &sock,
                                 const StorageWire &wire, Digests d,
                                 StorageOffloadConfig ocfg)
    : sock_(sock), ocfg_(ocfg), assembler_(wire, d), wire_(wire), dg_(d)
{
    sock_.setOnReadable([this] { onReadable(); });
    sock_.setOnWritable([this] { flushSendQueue(); });
}

StorageEndpoint::~StorageEndpoint()
{
    if (l5o_ != nullptr)
        l5o_->destroy();
}

void
StorageEndpoint::installOffload(OffloadDevice &dev, tcp::TcpConnection &conn)
{
    ANIC_ASSERT(l5o_ == nullptr);
    conn_ = &conn;
    if (!ocfg_.crcRx && !ocfg_.copyRx && !ocfg_.crcTx)
        return;

    StorageStaticState st(wire_, dg_);
    unsigned dirs = ((ocfg_.crcRx || ocfg_.copyRx) ? kL5Rx : 0u) |
                    (ocfg_.crcTx ? kL5Tx : 0u);
    if (ocfg_.crcTx)
        conn.setOnAcked([this](uint32_t una) { txMap_.trimAcked(una); });
    l5o_ = dev.l5oCreate(conn, st, dirs, this);
    if (dirs & kL5Rx)
        rxEngine_ = static_cast<StorageRxEngine *>(l5o_->rxEngine());
    if (ocfg_.crcTx)
        conn.setTxOffloadCtx(l5o_->txCtxId());
}

void
StorageEndpoint::addRrState(uint32_t tag, host::BlockBufferPtr buf)
{
    if (ocfg_.copyRx && rxEngine_ != nullptr)
        rxEngine_->addRrState(tag, std::move(buf));
}

void
StorageEndpoint::delRrState(uint32_t tag)
{
    if (rxEngine_ != nullptr)
        rxEngine_->delRrState(tag);
}

void
StorageEndpoint::enqueue(Bytes pdu)
{
    sendq_.push_back(SendEntry{std::move(pdu)});
    flushSendQueue();
}

void
StorageEndpoint::flushSendQueue()
{
    while (!sendq_.empty()) {
        SendEntry &e = sendq_.front();
        if (!e.added && l5o_ != nullptr && l5o_->txCtxId() != 0) {
            // All stream messages must be tracked when a tx context
            // exists, so framing recovery can cross any message. The
            // message is registered where its first byte actually lands
            // in the stream (now, not at enqueue time).
            txMap_.add(conn_->sndNextByteSeq(),
                       static_cast<uint32_t>(e.bytes.size()), txMsgIdx_++,
                       e.bytes);
            e.added = true;
        }
        ByteView rest = ByteView(e.bytes).subspan(sendqOff_);
        sendqOff_ += sock_.send(rest);
        if (sendqOff_ < e.bytes.size())
            return; // transport full; resume on writable
        sendq_.pop_front();
        sendqOff_ = 0;
    }
}

void
StorageEndpoint::onReadable()
{
    while (sock_.readable()) {
        tcp::RxSegment seg = sock_.pop();
        if (dead_)
            continue; // drain and discard; the session is over
        assembler_.ingest(seg, [this](RxPdu &&pdu) { onPdu(std::move(pdu)); });
        if (assembler_.error()) {
            // PDU framing lost (corrupted prefix): a fatal transport
            // error, handled instead of asserted so impairment fuzzing
            // can corrupt streams.
            transportError();
        }
    }
    checkPendingResync();
}

void
StorageEndpoint::transportError()
{
    dead_ = true;
    onTransportError();
}

// ------------------------------------------------------------- resync

void
StorageEndpoint::checkPendingResync()
{
    if (!resyncPending_ || !resyncOffValid_)
        return;
    uint64_t cur = assembler_.boundaryOff();
    if (cur < resyncOff_)
        return; // not there yet
    bool ok = cur == resyncOff_;
    resyncPending_ = false;
    resyncOffValid_ = false;
    if (ok)
        countResyncConfirmed();
    answerResync(ok);
}

void
StorageEndpoint::answerResync(bool ok)
{
    // Confirm with software's PDU count: the NIC renumbers its messages
    // from this index, and message identity across mid-message resumes
    // rides on that numbering staying consistent with what the engine
    // saw before the gap.
    if (l5o_ != nullptr)
        l5o_->resyncRxResp(resyncSeq_, ok, assembler_.pdusDelivered());
}

std::optional<L5pCallbacks::TxMsgState>
StorageEndpoint::getTxMsgState(uint32_t tcpsn)
{
    const TxMsgTracker::Entry *e = txMap_.find(tcpsn);
    if (e == nullptr)
        return std::nullopt;
    TxMsgState st;
    st.msgStartSeq = e->startSeq;
    st.msgIdx = e->msgIdx;
    uint32_t n = tcpsn - e->startSeq;
    ANIC_ASSERT(e->bytes.size() >= n, "PDU bytes not retained");
    st.rebuild = ByteView(e->bytes).first(n);
    return st;
}

void
StorageEndpoint::resyncRxReq(uint32_t tcpsn)
{
    ANIC_ASSERT(conn_ != nullptr);
    countResyncRequest();
    resyncPending_ = true;
    resyncSeq_ = tcpsn; // echoed in the response (stale-answer guard)
    // Translate the sequence number into our stream-offset space.
    uint64_t consumed = assembler_.streamConsumed();
    int64_t delta =
        static_cast<int32_t>(tcpsn - conn_->seqOfRcvStreamOff(consumed));
    resyncOff_ = consumed + delta;
    resyncOffValid_ = true;
    checkPendingResync();
}

} // namespace anic::core
