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
        // e is not touched past send(): a push may move ring elements.
        ByteView rest = ByteView(e.bytes).subspan(sendqOff_);
        size_t sent = sock_.send(rest);
        if (sent < rest.size()) {
            sendqOff_ += sent;
            return; // transport full; resume on writable
        }
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
        assembler_.ingest(seg,
                          [this](RxPdu &&pdu) { dispatch(std::move(pdu)); });
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

// ------------------------------------------------------- receive path

bool
StorageEndpoint::nicVerified(const RxPdu &pdu)
{
    bool nic = ocfg_.crcRx && pdu.digestFullyOffloaded();
    count(nic ? &StorageCounters::digestSkipped
              : &StorageCounters::digestSoftware);
    return nic;
}

void
StorageEndpoint::dispatch(RxPdu &&pdu)
{
    host::Core &core = sock_.core();
    const host::CycleModel &m = core.model();
    const PduFrame &f = pdu.frame;
    core.charge(m.nvmePduCost);

    bool hdrOk = true;
    pduDataOk_ = true;
    if (wire_.nicHeaderDigest) {
        // One verdict covers both digests: the NIC folds them into one
        // per-PDU outcome, so software checks both or neither.
        if (!nicVerified(pdu)) {
            if (dg_.header) {
                core.charge(m.crcPerByte * f.subHdrEnd);
                hdrOk = headerDigestOk(pdu.bytes, f.subHdrEnd);
            }
            if (dg_.data && f.dataLen > 0) {
                core.charge(m.crcPerByte * f.dataLen);
                pduDataOk_ = dataDigestOk(pdu, f.dataOff, f.dataLen);
            }
        }
        if (!hdrOk)
            count(&StorageCounters::digestFailures);
    } else if (dg_.header) {
        core.charge(m.crcPerByte * f.subHdrEnd);
        hdrOk = headerDigestOk(pdu.bytes, f.subHdrEnd);
    }
    if (!hdrOk) {
        // The sub-header (tag, buffer offset) cannot be trusted, so
        // nothing in this PDU can be attributed to a command.
        transportError();
        return;
    }
    onPdu(std::move(pdu));
}

StorageEndpoint::Command &
StorageEndpoint::enter(uint32_t tag, Verb verb, uint64_t slba, uint32_t len)
{
    Command &c = cmds_[tag];
    c = Command{};
    c.verb = verb;
    c.slba = slba;
    c.len = len;
    return c;
}

StorageEndpoint::Command *
StorageEndpoint::command(uint32_t tag)
{
    auto it = cmds_.find(tag);
    return it != cmds_.end() ? &it->second : nullptr;
}

std::optional<StorageEndpoint::Command>
StorageEndpoint::take(uint32_t tag)
{
    auto it = cmds_.find(tag);
    if (it == cmds_.end())
        return std::nullopt;
    Command c = std::move(it->second);
    cmds_.erase(it);
    delRrState(tag);
    return c;
}

StorageEndpoint::Command *
StorageEndpoint::receiveData(RxPdu &pdu, uint32_t tag, uint32_t bufferOffset,
                             uint64_t queueBytes)
{
    count(&StorageCounters::dataPdus);
    Command *c = command(tag);
    if (c == nullptr)
        return nullptr; // stale / unknown tag
    const PduFrame &f = pdu.frame;
    // limit == 0: the command takes no data (an initiator's write).
    if (c->limit == 0 || uint64_t{bufferOffset} + f.dataLen > c->limit) {
        transportError();
        return nullptr;
    }
    host::Core &core = sock_.core();
    const host::CycleModel &m = core.model();

    // ---- copy (placement offload skips NIC-placed ranges)
    CopyCounts cc = copyUnplaced(pdu, f.dataOff, f.dataLen, bufferOffset,
                                 c->buffer.get());
    core.charge(m.copyPerByte(std::max<uint64_t>(c->len, queueBytes)) *
                static_cast<double>(cc.copied));
    count(&StorageCounters::bytesCopied, cc.copied);
    count(&StorageCounters::bytesPlaced, cc.placed);

    // ---- data digest (decided before dispatch if the NIC checks
    // headers too)
    bool ok = pduDataOk_;
    if (!wire_.nicHeaderDigest && dg_.data && f.dataLen > 0 &&
        !nicVerified(pdu)) {
        core.charge(m.crcPerByte * f.dataLen);
        ok = dataDigestOk(pdu, f.dataOff, f.dataLen);
    }
    if (!ok) {
        c->failed = true;
        count(&StorageCounters::digestFailures);
    }
    c->received += f.dataLen;
    return c;
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
        count(&StorageCounters::resyncConfirmed);
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
    count(&StorageCounters::resyncRequests);
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

// ---------------------------------------------------------- initiator

namespace {

/** Completion counter of each Verb. */
constexpr sim::Counter *StorageCounters::*kCompleted[] = {
    &StorageCounters::readsCompleted,
    &StorageCounters::writesCompleted,
    &StorageCounters::flushesCompleted,
    &StorageCounters::comparesCompleted,
};

} // namespace

StorageInitiator::StorageInitiator(tcp::StreamSocket &sock,
                                   const StorageWire &wire, Digests d,
                                   StorageOffloadConfig ocfg, uint32_t maxTag)
    : StorageEndpoint(sock, wire, d, ocfg), maxTag_(maxTag)
{
}

uint32_t
StorageInitiator::issue(Verb verb, uint64_t slba, uint32_t len,
                        uint64_t contentSeed, ReadDone readDone,
                        WriteDone writeDone)
{
    host::Core &core = sock_.core();
    core.charge(core.model().nvmeRequestCost / 2);

    uint32_t tag;
    do {
        tag = nextTag_;
        nextTag_ = nextTag_ == maxTag_ ? 1 : nextTag_ + 1;
    } while (command(tag) != nullptr);

    Command &c = enter(tag, verb, slba, len);
    c.contentSeed = contentSeed;
    c.readDone = std::move(readDone);
    c.writeDone = std::move(writeDone);
    outstandingBytes_ += len;
    if (verb == Verb::Read) {
        c.limit = len;
        c.buffer = std::make_shared<host::BlockBuffer>(len);
        addRrState(tag, c.buffer); // where the NIC places the data
    }
    return tag;
}

void
StorageInitiator::complete(uint32_t tag, bool ok)
{
    std::optional<Command> c = take(tag);
    if (!c)
        return;
    host::Core &core = sock_.core();
    core.charge(core.model().nvmeRequestCost / 2);
    outstandingBytes_ -= c->len;

    bool success = ok && !c->failed &&
                   (c->verb != Verb::Read || c->received == c->len);
    if (!success)
        count(&StorageCounters::failures);
    count(kCompleted[static_cast<size_t>(c->verb)]);
    if (c->verb == Verb::Read) {
        if (c->readDone)
            c->readDone(success, std::move(c->buffer));
    } else if (c->writeDone) {
        c->writeDone(success);
    }
}

void
StorageInitiator::onTransportError()
{
    std::vector<uint32_t> tags;
    tags.reserve(cmds_.size());
    for (const auto &[tag, c] : cmds_)
        tags.push_back(tag);
    // Tag (issue) order, not hash order: completion callbacks can issue
    // new commands, and the replay must be identical across processes.
    std::sort(tags.begin(), tags.end());
    for (uint32_t tag : tags)
        complete(tag, false);
}

} // namespace anic::core
