#include "nvmetcp/host_queue.hh"

#include <algorithm>
#include <limits>

#include "util/panic.hh"

namespace anic::nvmetcp {

namespace {

core::StorageCounters
counters(NvmeHostStats *s)
{
    if (s == nullptr)
        return {};
    return {.dataPdus = &s->dataPdusRx,
            .bytesPlaced = &s->bytesPlaced,
            .bytesCopied = &s->bytesCopied,
            .digestSkipped = &s->crcSkipped,
            .digestSoftware = &s->crcSoftware,
            .digestFailures = &s->crcFailures,
            .resyncRequests = &s->resyncRequests,
            .resyncConfirmed = &s->resyncConfirmed,
            .failures = &s->failures,
            .readsCompleted = &s->readsCompleted,
            .writesCompleted = &s->writesCompleted,
            .flushesCompleted = &s->flushesCompleted,
            .comparesCompleted = &s->comparesCompleted};
}

} // namespace

NvmeHostQueue::NvmeHostQueue(tcp::StreamSocket &sock, WireConfig wc,
                             NvmeOffloadConfig ocfg, NvmeHostStats *aggregate)
    : StorageInitiator(
          sock, kNvmeWire, wc.digests(), ocfg,
          std::numeric_limits<decltype(CmdCapsule::cid)>::max()),
      wc_(wc)
{
    countInto(counters(&stats_), counters(aggregate));
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
                count(&core::StorageCounters::resyncRequests);
                awaitResync(0); // answered by request id, not seq
                resyncReqId_ = reqId;
                innerAnchorRecIdx_ = recIdx;
                innerAnchorRecOff_ = recOff;
                // Already behind us?
                if (tlsSock_->nextRxRecordSeq() > recIdx) {
                    dropResync();
                    tlsRxEngine_->innerResyncResponse(reqId, false, 0);
                }
            });
        },
        /*plaintextPos=*/0, /*innerMsgIdx=*/0);

    tlsSock.setRecordObserver(this);
}

void
NvmeHostQueue::onRecord(uint64_t recIdx, uint64_t plainOff)
{
    if (!unplacedResync())
        return;
    if (recIdx == innerAnchorRecIdx_) {
        placeResync(plainOff + innerAnchorRecOff_);
    } else if (recIdx > innerAnchorRecIdx_) {
        dropResync();
        tlsRxEngine_->innerResyncResponse(resyncReqId_, false, 0);
    }
}

void
NvmeHostQueue::answerResync(bool ok)
{
    // The inner FSM numbers PDUs in the plaintext stream as we do.
    if (tlsRxEngine_ != nullptr)
        tlsRxEngine_->innerResyncResponse(resyncReqId_, ok,
                                          assembler_.msgsDelivered());
    else
        StorageEndpoint::answerResync(ok);
}

const nic::FsmStats *
NvmeHostQueue::rxFsmStats() const
{
    if (tlsRxEngine_ != nullptr)
        return tlsRxEngine_->innerFsmStats();
    return StorageEndpoint::rxFsmStats();
}

void
NvmeHostQueue::read(uint64_t slba, uint32_t len, ReadDone done)
{
    uint32_t cid = issue(Verb::Read, slba, len, 0, std::move(done), nullptr);
    enqueue(buildCmdCapsule(
        wc_, CmdCapsule{static_cast<uint16_t>(cid), kOpRead, slba, len}));
}

void
NvmeHostQueue::write(uint64_t slba, uint32_t len, uint64_t contentSeed,
                     WriteDone done)
{
    issueDataOutCmd(kOpWrite, Verb::Write, slba, len, contentSeed,
                    std::move(done));
}

void
NvmeHostQueue::flush(WriteDone done)
{
    issueDataOutCmd(kOpFlush, Verb::Flush, 0, 0, 0, std::move(done));
}

void
NvmeHostQueue::compare(uint64_t slba, uint32_t len, uint64_t contentSeed,
                       WriteDone done)
{
    issueDataOutCmd(kOpCompare, Verb::Compare, slba, len, contentSeed,
                    std::move(done));
}

void
NvmeHostQueue::issueDataOutCmd(uint8_t opcode, Verb verb, uint64_t slba,
                               uint32_t len, uint64_t contentSeed,
                               WriteDone done)
{
    uint32_t cid =
        issue(verb, slba, len, contentSeed, nullptr, std::move(done));
    enqueue(buildCmdCapsule(
        wc_, CmdCapsule{static_cast<uint16_t>(cid), opcode, slba, len}));
    // The payload stays queued until the target grants R2T credit
    // (NVMe/TCP §3.3.2.2); data-less commands complete on the
    // response capsule alone.
}

void
NvmeHostQueue::onR2t(const R2tHdr &r2t)
{
    stats_.r2tPdusRx++;
    const Command *c = command(r2t.cid);
    if (c == nullptr)
        return; // stale credit for a completed/failed command
    uint32_t end = static_cast<uint32_t>(std::min<uint64_t>(
        uint64_t{r2t.r2tOffset} + r2t.r2tLength, c->len));
    // Copy user data into each PDU.
    sendData(r2t.r2tOffset, end, wc_.maxDataPerPdu,
             sock_.core().model().copyLlcPerByte,
             [&](uint32_t off, uint32_t n, bool fillDdgst) {
                 Bytes data(n);
                 fillDeterministic(data, c->contentSeed, c->slba + off);
                 return buildDataPdu(wc_, kPduH2CData,
                                     DataPduHdr{r2t.cid, off, n}, data,
                                     fillDdgst);
             });
}

void
NvmeHostQueue::onPdu(core::RxMsg &&pdu)
{
    switch (pdu.frame.type) {
      case kPduC2HData: {
        DataPduHdr dh = parseDataPduHdr(pdu.bytes);
        receiveData(pdu, dh.cid, dh.dataOffset, outstandingBytes());
        return;
      }
      case kPduR2T:
        onR2t(parseR2tHdr(pdu.bytes));
        return;
      case kPduCapsuleResp: {
        RespCapsule resp = parseRespCapsule(pdu.bytes);
        complete(resp.cid, resp.status == 0);
        return;
      }
      default:
        return; // hosts don't expect other PDU types
    }
}

} // namespace anic::nvmetcp
