#include "iscsi/session.hh"

#include <limits>

#include "host/core.hh"
#include "util/panic.hh"

namespace anic::iscsi {

namespace {

/** The BHS of a data PDU; the last one of a sequence is final. */
IscsiBhs
dataBhs(uint32_t itt, uint32_t off, bool last)
{
    IscsiBhs bhs;
    bhs.itt = itt;
    bhs.bufferOffset = off;
    bhs.flags = last ? kFlagFinal : 0;
    return bhs;
}

core::StorageCounters
counters(IscsiInitiatorStats *s)
{
    if (s == nullptr)
        return {};
    return {.dataPdus = &s->dataInPdus,
            .bytesPlaced = &s->bytesPlaced,
            .bytesCopied = &s->bytesCopied,
            .digestSkipped = &s->digestSkipped,
            .digestSoftware = &s->digestSoftware,
            .digestFailures = &s->digestFailures,
            .resyncRequests = &s->resyncRequests,
            .resyncConfirmed = &s->resyncConfirmed,
            .failures = &s->failures,
            .readsCompleted = &s->readsCompleted,
            .writesCompleted = &s->writesCompleted};
}

} // namespace

// ----------------------------------------------------------- initiator

IscsiInitiator::IscsiInitiator(tcp::StreamSocket &sock, IscsiWireConfig wc,
                               IscsiOffloadConfig ocfg,
                               IscsiInitiatorStats *aggregate)
    : StorageInitiator(sock, kIscsiWire, wc.digests(), ocfg,
                       std::numeric_limits<decltype(IscsiBhs::itt)>::max()),
      wc_(wc)
{
    countInto(counters(&stats_), counters(aggregate));
}

void
IscsiInitiator::read(uint64_t slba, uint32_t len, ReadDone done)
{
    uint32_t itt = issue(Verb::Read, slba, len, 0, std::move(done), nullptr);
    enqueue(buildScsiCmd(wc_, {.itt = itt, .edtl = len, .scsiOp = kScsiRead,
                               .slba = slba, .length = len}));
}

void
IscsiInitiator::write(uint64_t slba, uint32_t len, uint64_t contentSeed,
                      WriteDone done)
{
    uint32_t itt =
        issue(Verb::Write, slba, len, contentSeed, nullptr, std::move(done));
    enqueue(buildScsiCmd(wc_, {.itt = itt, .edtl = len, .scsiOp = kScsiWrite,
                               .slba = slba, .length = len}));
    // User buffer -> PDU copy.
    sendData(0, len, wc_.maxDataSegment, sock_.core().model().copyLlcPerByte,
             [&](uint32_t off, uint32_t n, bool fillDdgst) {
                 Bytes data(n);
                 fillDeterministic(data, contentSeed, slba + off);
                 return buildDataPdu(wc_, kOpDataOut,
                                     dataBhs(itt, off, off + n >= len), data,
                                     fillDdgst);
             });
}

void
IscsiInitiator::onPdu(core::RxMsg &&pdu)
{
    IscsiBhs bhs = parseBhs(pdu.bytes);
    if (bhs.opcode == kOpDataIn) {
        receiveData(pdu, bhs.itt, bhs.bufferOffset);
        return;
    }
    if (bhs.opcode == kOpScsiResp)
        complete(bhs.itt, bhs.status == 0);
    // Initiators don't expect other opcodes.
}

// -------------------------------------------------------------- target

IscsiTarget::IscsiTarget(tcp::StreamSocket &sock, host::NvmeDrive &drive,
                         IscsiWireConfig wc)
    : StorageEndpoint(sock, kIscsiWire, wc.digests(), {}), drive_(drive),
      wc_(wc)
{
    countInto({.dataPdus = &stats_.dataOutPdus,
               .bytesPlaced = &stats_.bytesPlaced,
               .bytesCopied = &stats_.bytesCopied,
               .digestSkipped = &stats_.digestSkipped,
               .digestSoftware = &stats_.digestSoftware,
               .digestFailures = &stats_.digestFailures,
               .resyncRequests = &stats_.resyncRequests,
               .resyncConfirmed = &stats_.resyncConfirmed});
}

void
IscsiTarget::onPdu(core::RxMsg &&pdu)
{
    IscsiBhs bhs = parseBhs(pdu.bytes);
    switch (bhs.opcode) {
      case kOpScsiCmd: {
        if (bhs.scsiOp == kScsiRead) {
            serveRead(bhs);
            return;
        }
        Command &w = enter(bhs.itt, Verb::Write, bhs.slba, bhs.length);
        w.buffer = std::make_shared<host::BlockBuffer>(bhs.length);
        if (bhs.length == 0) {
            finishWrite(bhs.itt);
            return;
        }
        // Unsolicited Data-Out: the command invites its whole range,
        // and the data can arrive right behind it, so placement state
        // is registered now.
        w.limit = w.len;
        addRrState(bhs.itt, w.buffer);
        return;
      }
      case kOpDataOut: {
        Command *w = receiveData(pdu, bhs.itt, bhs.bufferOffset);
        if (w != nullptr && w->received >= w->len)
            finishWrite(bhs.itt);
        return;
      }
      default:
        return; // targets ignore response-type opcodes
    }
}

void
IscsiTarget::serveRead(const IscsiBhs &bhs)
{
    host::Core &core = sock_.core();
    core.charge(core.model().nvmeRequestCost / 2);

    drive_.read(bhs.slba, bhs.length, [this, bhs, &core](Bytes data) {
        core.post([this, itt = bhs.itt, data = std::move(data)] {
            stats_.readsServed++;
            stats_.bytesRead += data.size();
            uint32_t len = static_cast<uint32_t>(data.size());
            sendData(0, len, wc_.maxDataSegment,
                     sock_.core().model().copyPerByte(data.size()),
                     [&](uint32_t off, uint32_t n, bool fillDdgst) {
                         return buildDataPdu(wc_, kOpDataIn,
                                             dataBhs(itt, off, off + n >= len),
                                             ByteView(data).subspan(off, n),
                                             fillDdgst);
                     });
            enqueue(buildScsiResp(wc_, {.itt = itt, .status = 0}));
        });
    });
}

void
IscsiTarget::finishWrite(uint32_t itt)
{
    std::optional<Command> w = take(itt);
    ANIC_ASSERT(w.has_value());
    drive_.write(w->slba, w->len,
                 [this, itt, len = w->len, digestOk = !w->failed] {
        sock_.core().post([this, itt, len, digestOk] {
            stats_.writesServed++;
            stats_.bytesWritten += len;
            IscsiBhs resp;
            resp.itt = itt;
            resp.status = digestOk ? 0 : 1;
            enqueue(buildScsiResp(wc_, resp));
        });
    });
}

} // namespace anic::iscsi
