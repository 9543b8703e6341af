#include "nvmetcp/host_queue.hh"

#include <algorithm>

#include "util/panic.hh"

namespace anic::nvmetcp {

NvmeHostQueue::NvmeHostQueue(tcp::StreamSocket &sock, WireConfig wc,
                             NvmeOffloadConfig ocfg, NvmeHostStats *aggregate)
    : StorageEndpoint(sock, kNvmeWire, wc.digests(), ocfg), wc_(wc),
      aggregate_(aggregate)
{
}

void
NvmeHostQueue::enableOffloadOverTls(tls::TlsSocket &tlsSock)
{
    ANIC_ASSERT(l5o_ == nullptr && tlsSock_ == nullptr);
    tlsSock_ = &tlsSock;
    if (!ocfg_.crcRx && !ocfg_.copyRx)
        return;
    ANIC_ASSERT(!ocfg_.crcTx,
                "tx CRC offload over TLS is not composed (see DESIGN.md)");

    core::L5Offload *tls_l5o = tlsSock.offload();
    ANIC_ASSERT(tls_l5o != nullptr && tls_l5o->rxEngine() != nullptr,
                "TLS rx offload must be enabled before composing NVMe");
    tlsRxEngine_ = dynamic_cast<tls::TlsRxEngine *>(tls_l5o->rxEngine());
    ANIC_ASSERT(tlsRxEngine_ != nullptr);

    auto eng = std::make_unique<core::StorageRxEngine>(kNvmeWire,
                                                       wc_.digests());
    rxEngine_ = eng.get();
    host::Core *core = &sock_.core();
    tlsRxEngine_->installInner(
        std::move(eng),
        [this, core](uint64_t reqId, uint64_t recIdx, uint32_t recOff) {
            core->post([this, core, reqId, recIdx, recOff] {
                core->charge(core->model().resyncUpcallCost);
                count(&NvmeHostStats::resyncRequests);
                resyncPending_ = true;
                resyncReqId_ = reqId;
                resyncOffValid_ = false;
                innerAnchorPending_ = true;
                innerAnchorRecIdx_ = recIdx;
                innerAnchorRecOff_ = recOff;
                // Already behind us?
                if (tlsSock_->nextRxRecordSeq() > recIdx) {
                    innerAnchorPending_ = false;
                    resyncPending_ = false;
                    tlsRxEngine_->innerResyncResponse(reqId, false, 0);
                }
            });
        },
        /*plaintextPos=*/0, /*innerMsgIdx=*/0);

    tlsSock.setRecordObserver([this](uint64_t recIdx, uint64_t plainOff) {
        handleInnerAnchor(recIdx, plainOff);
    });
}

void
NvmeHostQueue::handleInnerAnchor(uint64_t recIdx, uint64_t plainOff)
{
    if (!innerAnchorPending_)
        return;
    if (recIdx == innerAnchorRecIdx_) {
        innerAnchorPending_ = false;
        resyncOff_ = plainOff + innerAnchorRecOff_;
        resyncOffValid_ = true;
        checkPendingResync();
    } else if (recIdx > innerAnchorRecIdx_) {
        innerAnchorPending_ = false;
        resyncPending_ = false;
        tlsRxEngine_->innerResyncResponse(resyncReqId_, false, 0);
    }
}

void
NvmeHostQueue::answerResync(bool ok)
{
    if (tlsRxEngine_ != nullptr)
        tlsRxEngine_->innerResyncResponse(resyncReqId_, ok, 0);
    else
        StorageEndpoint::answerResync(ok);
}

void
NvmeHostQueue::countResyncRequest()
{
    count(&NvmeHostStats::resyncRequests);
}

void
NvmeHostQueue::countResyncConfirmed()
{
    count(&NvmeHostStats::resyncConfirmed);
}

const nic::FsmStats *
NvmeHostQueue::rxFsmStats() const
{
    if (tlsRxEngine_ != nullptr)
        return tlsRxEngine_->innerFsmStats();
    return StorageEndpoint::rxFsmStats();
}

uint16_t
NvmeHostQueue::allocCid()
{
    for (;;) {
        uint16_t cid = nextCid_++;
        if (nextCid_ == 0)
            nextCid_ = 1;
        if (requests_.find(cid) == requests_.end())
            return cid;
    }
}

void
NvmeHostQueue::read(uint64_t slba, uint32_t len, ReadDone done)
{
    host::Core &core = sock_.core();
    core.charge(core.model().nvmeRequestCost / 2);

    uint16_t cid = allocCid();
    Request req;
    req.opcode = kOpRead;
    req.slba = slba;
    req.len = len;
    req.buffer = std::make_shared<host::BlockBuffer>(len);
    req.readDone = std::move(done);
    outstandingBytes_ += len;

    // l5o_add_rr_state: tell the NIC where responses belong.
    addRrState(cid, req.buffer);
    requests_.emplace(cid, std::move(req));

    CmdCapsule cmd;
    cmd.cid = cid;
    cmd.opcode = kOpRead;
    cmd.slba = slba;
    cmd.length = len;
    enqueue(buildCmdCapsule(wc_, cmd));
}

void
NvmeHostQueue::write(uint64_t slba, uint32_t len, uint64_t contentSeed,
                     WriteDone done)
{
    issueDataOutCmd(kOpWrite, slba, len, contentSeed, std::move(done));
}

void
NvmeHostQueue::flush(WriteDone done)
{
    issueDataOutCmd(kOpFlush, 0, 0, 0, std::move(done));
}

void
NvmeHostQueue::compare(uint64_t slba, uint32_t len, uint64_t contentSeed,
                       WriteDone done)
{
    issueDataOutCmd(kOpCompare, slba, len, contentSeed, std::move(done));
}

void
NvmeHostQueue::issueDataOutCmd(uint8_t opcode, uint64_t slba, uint32_t len,
                               uint64_t contentSeed, WriteDone done)
{
    host::Core &core = sock_.core();
    core.charge(core.model().nvmeRequestCost / 2);

    uint16_t cid = allocCid();
    Request req;
    req.opcode = opcode;
    req.slba = slba;
    req.len = len;
    req.contentSeed = contentSeed;
    req.writeDone = std::move(done);
    outstandingBytes_ += len;
    requests_.emplace(cid, std::move(req));

    CmdCapsule cmd;
    cmd.cid = cid;
    cmd.opcode = opcode;
    cmd.slba = slba;
    cmd.length = len;
    enqueue(buildCmdCapsule(wc_, cmd));
    // The payload stays queued until the target grants R2T credit
    // (NVMe/TCP §3.3.2.2); data-less commands complete on the
    // response capsule alone.
}

void
NvmeHostQueue::onR2t(const R2tHdr &r2t)
{
    count(&NvmeHostStats::r2tPdusRx);
    auto it = requests_.find(r2t.cid);
    if (it == requests_.end())
        return; // stale credit for a completed/failed command
    Request &req = it->second;

    host::Core &core = sock_.core();
    const host::CycleModel &m = core.model();
    uint32_t off = r2t.r2tOffset;
    uint32_t end = static_cast<uint32_t>(
        std::min<uint64_t>(static_cast<uint64_t>(r2t.r2tOffset) +
                               r2t.r2tLength,
                           req.len));
    while (off < end) {
        uint32_t n = static_cast<uint32_t>(
            std::min<size_t>(wc_.maxDataPerPdu, end - off));
        Bytes data(n);
        fillDeterministic(data, req.contentSeed, req.slba + off);
        DataPduHdr dh;
        dh.cid = r2t.cid;
        dh.dataOffset = off;
        dh.dataLen = n;
        // Copy user data into the PDU; compute the digest in software
        // unless the NIC fills it.
        core.charge(m.copyLlcPerByte * n +
                    (wc_.dataDigest && !ocfg_.crcTx ? m.crcPerByte * n : 0) +
                    m.nvmePduCost);
        enqueue(buildDataPdu(wc_, kPduH2CData, dh, data,
                             /*fillDdgst=*/!ocfg_.crcTx));
        off += n;
    }
}

void
NvmeHostQueue::onTransportError()
{
    std::vector<uint16_t> cids;
    cids.reserve(requests_.size());
    for (const auto &[cid, req] : requests_)
        cids.push_back(cid);
    // Issue order, not hash order: completion callbacks can issue new
    // commands, and the replay must be identical across processes.
    std::sort(cids.begin(), cids.end());
    for (uint16_t cid : cids) {
        auto it = requests_.find(cid);
        if (it == requests_.end())
            continue;
        it->second.failed = true;
        completeRequest(cid, false);
    }
}

void
NvmeHostQueue::onPdu(core::RxPdu &&pdu)
{
    host::Core &core = sock_.core();
    const host::CycleModel &m = core.model();
    core.charge(m.nvmePduCost);

    const core::PduFrame &f = pdu.frame;
    if (wc_.headerDigest) {
        core.charge(m.crcPerByte * f.subHdrEnd);
        if (!verifyHdgst(wc_, pdu.bytes, f.subHdrEnd)) {
            // Fatal transport error: the specific header (cid, data
            // offset) cannot be trusted, so nothing in this PDU can
            // be attributed to a command.
            transportError();
            return;
        }
    }

    if (f.type == kPduC2HData) {
        count(&NvmeHostStats::dataPdusRx);
        DataPduHdr dh = parseDataPduHdr(pdu.bytes);
        auto it = requests_.find(dh.cid);
        if (it == requests_.end())
            return; // stale / unknown capsule
        Request &req = it->second;

        // ---- copy (placement offload skips NIC-placed ranges)
        core::CopyCounts c = core::copyUnplaced(pdu, f.dataOff, dh.dataLen,
                                                dh.dataOffset,
                                                req.buffer.get());
        if (req.opcode != kOpRead)
            c.copied = 0; // writes have no inbound payload
        core.charge(m.copyPerByte(outstandingBytes_) *
                    static_cast<double>(c.copied));
        count(&NvmeHostStats::bytesCopied, c.copied);
        count(&NvmeHostStats::bytesPlaced, c.placed);

        // ---- data digest
        if (wc_.dataDigest && dh.dataLen > 0) {
            if (ocfg_.crcRx && pdu.digestFullyOffloaded()) {
                count(&NvmeHostStats::crcSkipped);
            } else {
                count(&NvmeHostStats::crcSoftware);
                core.charge(m.crcPerByte * dh.dataLen);
                if (!core::dataDigestOk(pdu, f.dataOff, dh.dataLen)) {
                    req.failed = true;
                    count(&NvmeHostStats::crcFailures);
                }
            }
        }
        req.received += dh.dataLen;
        return;
    }

    if (f.type == kPduR2T) {
        onR2t(parseR2tHdr(pdu.bytes));
        return;
    }

    if (f.type == kPduCapsuleResp) {
        RespCapsule resp = parseRespCapsule(pdu.bytes);
        completeRequest(resp.cid, resp.status == 0);
        return;
    }
    // Hosts don't expect other PDU types.
}

void
NvmeHostQueue::completeRequest(uint16_t cid, bool ok)
{
    auto it = requests_.find(cid);
    if (it == requests_.end())
        return;
    Request req = std::move(it->second);
    requests_.erase(it);

    host::Core &core = sock_.core();
    core.charge(core.model().nvmeRequestCost / 2);
    outstandingBytes_ -= req.len;

    delRrState(cid); // l5o_del_rr_state

    bool success = ok && !req.failed &&
                   (req.opcode != kOpRead || req.received == req.len);
    if (!success)
        count(&NvmeHostStats::failures);
    if (req.opcode == kOpRead) {
        count(&NvmeHostStats::readsCompleted);
        if (req.readDone)
            req.readDone(success, std::move(req.buffer));
    } else {
        count(req.opcode == kOpFlush     ? &NvmeHostStats::flushesCompleted
              : req.opcode == kOpCompare ? &NvmeHostStats::comparesCompleted
                                         : &NvmeHostStats::writesCompleted);
        if (req.writeDone)
            req.writeDone(success);
    }
}

} // namespace anic::nvmetcp
