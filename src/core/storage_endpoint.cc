#include "core/storage_endpoint.hh"

#include <cstring>

#include "crypto/crc32c.hh"
#include "util/panic.hh"

namespace anic::core {

bool
headerDigestOk(ByteView pdu, size_t hdrEnd)
{
    if (pdu.size() < hdrEnd + kDigestSize)
        return false;
    uint32_t wire = static_cast<uint32_t>(getLe32(pdu.data() + hdrEnd));
    return crypto::Crc32c::compute(pdu.first(hdrEnd)) == wire;
}

namespace {

/** Byte counts of one placement-aware copy. */
struct CopyCounts
{
    uint64_t copied = 0; ///< bytes software copied
    uint64_t placed = 0; ///< bytes the NIC had already placed
};

/**
 * Placement-aware copy of the data region [dataOff, dataOff + dataLen)
 * of @p pdu into @p dst at @p bufferOffset: NIC-placed ranges are
 * skipped, the rest is memcpy'd (out-of-bounds ranges and a null
 * @p dst are counted but not written).
 *
 * The placed ranges are walked where they lie. Chunks follow in
 * stream order, each is clipped to its own bytes, and each lists its
 * ranges in packet order, so their PDU offsets ascend already.
 */
CopyCounts
copyUnplaced(const RxMsg &pdu, uint64_t dataOff, uint32_t dataLen,
             uint64_t bufferOffset, host::BlockBuffer *dst)
{
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
    uint64_t prev = 0;
    for (const MsgChunk &ch : pdu.chunks) {
        for (const net::PlacedRange &r : ch.meta.placed) {
            const uint64_t start = uint64_t{ch.off} + r.payloadOff;
            ANIC_ASSERT(start >= prev,
                        "placed range at PDU offset %llu (chunk at %u, "
                        "%u bytes) follows one at %llu",
                        static_cast<unsigned long long>(start), ch.off,
                        ch.len, static_cast<unsigned long long>(prev));
            prev = start;
            uint64_t ps = std::max(start, dataOff);
            uint64_t pe = std::min(start + r.len, data_end);
            if (ps >= pe)
                continue;
            copyRange(cursor, ps);
            c.placed += pe - ps;
            cursor = std::max(cursor, pe);
        }
    }
    copyRange(cursor, data_end);
    return c;
}

/** Software check of the data digest following the data region. */
bool
dataDigestOk(const RxMsg &pdu, uint64_t dataOff, uint32_t dataLen)
{
    ByteView data = ByteView(pdu.bytes).subspan(dataOff, dataLen);
    uint32_t wire =
        static_cast<uint32_t>(getLe32(pdu.bytes.data() + dataOff + dataLen));
    return crypto::Crc32c::compute(data) == wire;
}

} // namespace

StorageEndpoint::StorageEndpoint(tcp::StreamSocket &sock,
                                 const StorageWire &wire, net::Digests d,
                                 StorageOffloadConfig ocfg)
    : L5pStream(wire, d), sock_(sock), ocfg_(ocfg), wire_(wire), dg_(d)
{
    sock_.setOnReadable([this] { onReadable(); });
    sock_.setOnWritable([this] { flushSendQueue(); });
}

void
StorageEndpoint::installOffload(OffloadDevice &dev, tcp::TcpConnection &conn)
{
    StorageStaticState st(wire_, dg_);
    unsigned dirs = ((ocfg_.crcRx || ocfg_.copyRx) ? kL5Rx : 0u) |
                    (ocfg_.crcTx ? kL5Tx : 0u);
    createOffload(dev, conn, st, dirs);
    if (dirs & kL5Rx)
        rxEngine_ = static_cast<StorageRxEngine *>(l5o_->rxEngine());
}

void
StorageEndpoint::countEvent(StreamEvent e)
{
    if (e != StreamEvent::TxMsgStateUpcall)
        count(e == StreamEvent::ResyncRequest
                  ? &StorageCounters::resyncRequests
                  : &StorageCounters::resyncConfirmed);
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
    sendq_.push_back(SendEntry{std::make_shared<const Bytes>(std::move(pdu))});
    flushSendQueue();
}

void
StorageEndpoint::flushSendQueue()
{
    while (!sendq_.empty()) {
        SendEntry &e = sendq_.front();
        if (!e.added && txOffloaded()) {
            // Registered where its first byte actually lands in the
            // stream (now, not at enqueue time).
            txMap_.add(conn_->sndNextByteSeq(),
                       static_cast<uint32_t>(e.msg->size()), txMsgIdx_++,
                       e.msg);
            e.added = true;
        }
        // e is not touched past sendShared(): a push may move ring
        // elements.
        size_t rest = e.msg->size() - sendqOff_;
        size_t sent = sock_.sendShared(e.msg, sendqOff_);
        if (sent < rest) {
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
        ingest(seg, [this](RxMsg &&pdu) {
            dispatch(std::move(pdu));
            return true;
        });
        if (assembler_.error()) {
            // PDU framing lost (corrupted prefix): a fatal transport
            // error, handled instead of asserted so impairment fuzzing
            // can corrupt streams.
            transportError();
        }
    }
}

void
StorageEndpoint::transportError()
{
    dead_ = true;
    onTransportError();
}

// ------------------------------------------------------- receive path

bool
StorageEndpoint::nicVerified(const RxMsg &pdu)
{
    bool nic = ocfg_.crcRx && pdu.verifiedByNic(wire_.kind);
    count(nic ? &StorageCounters::digestSkipped
              : &StorageCounters::digestSoftware);
    return nic;
}

void
StorageEndpoint::dispatch(RxMsg &&pdu)
{
    host::Core &core = sock_.core();
    const host::CycleModel &m = core.model();
    const net::MsgFrame &f = pdu.frame;
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
StorageEndpoint::receiveData(const RxMsg &pdu, uint32_t tag,
                             uint32_t bufferOffset,
                             uint64_t queueBytes)
{
    count(&StorageCounters::dataPdus);
    Command *c = command(tag);
    if (c == nullptr)
        return nullptr; // stale / unknown tag
    const net::MsgFrame &f = pdu.frame;
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
                                   const StorageWire &wire, net::Digests d,
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
