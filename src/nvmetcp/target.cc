#include "nvmetcp/target.hh"

#include <algorithm>

#include "host/core.hh"
#include "util/panic.hh"

namespace anic::nvmetcp {

NvmeTarget::NvmeTarget(tcp::StreamSocket &sock, host::NvmeDrive &drive,
                       WireConfig wc)
    : StorageEndpoint(sock, kNvmeWire, wc.digests(), {}), drive_(drive),
      wc_(wc)
{
    countInto({.dataPdus = &stats_.h2cPdusRx,
               .bytesPlaced = &stats_.h2cBytesPlaced,
               .bytesCopied = &stats_.h2cBytesCopied,
               .digestSkipped = &stats_.h2cDigestSkipped,
               .digestSoftware = &stats_.h2cDigestSoftware,
               .digestFailures = &stats_.digestFailures,
               .resyncRequests = &stats_.resyncRequests,
               .resyncConfirmed = &stats_.resyncConfirmed});
}

void
NvmeTarget::onPdu(core::RxMsg &&pdu)
{
    switch (pdu.frame.type) {
      case kPduCapsuleCmd: {
        CmdCapsule cmd = parseCmdCapsule(pdu.bytes);
        if (cmd.opcode == kOpRead) {
            serveRead(cmd);
            return;
        }
        // WRITE: the data follows as R2T invites it.
        Command &w = enter(cmd.cid, Verb::Write, cmd.slba, cmd.length);
        w.buffer = std::make_shared<host::BlockBuffer>(cmd.length);
        if (cmd.length == 0)
            finishWrite(cmd.cid);
        else
            issueR2t(cmd.cid, w);
        return;
      }
      case kPduH2CData: {
        DataPduHdr dh = parseDataPduHdr(pdu.bytes);
        Command *w = receiveData(pdu, dh.cid, dh.dataOffset);
        if (w == nullptr)
            return;
        if (w->received >= w->len)
            finishWrite(dh.cid);
        else if (w->received >= w->limit)
            issueR2t(dh.cid, *w); // window exhausted; grant the next
        return;
      }
      default:
        return; // targets ignore response-type PDUs
    }
}

void
NvmeTarget::issueR2t(uint16_t cid, Command &w)
{
    uint32_t n = static_cast<uint32_t>(
        std::min<uint64_t>(wc_.maxR2tWindow, w.len - w.limit));
    if (n == 0)
        return;

    if (w.limit == 0) {
        // l5o_add_rr_state before the credit leaves: H2CData can
        // arrive any time after, and the NIC places it directly.
        addRrState(cid, w.buffer);
    }

    R2tHdr r2t{cid, nextTtag_++, w.limit, n};
    w.limit += n; // H2CData is accepted only inside granted ranges
    stats_.r2tsSent++;
    sock_.core().charge(sock_.core().model().nvmePduCost);
    enqueue(buildR2tPdu(wc_, r2t));
}

void
NvmeTarget::serveRead(const CmdCapsule &cmd)
{
    host::Core &core = sock_.core();
    core.charge(core.model().nvmeRequestCost / 2);

    uint16_t cid = cmd.cid;
    drive_.read(cmd.slba, cmd.length, [this, cid, &core](Bytes data) {
        core.post([this, cid, data = std::move(data)] {
            stats_.readsServed++;
            stats_.bytesRead += data.size();
            // Drive buffer -> PDU copy.
            sendData(0, static_cast<uint32_t>(data.size()), wc_.maxDataPerPdu,
                     sock_.core().model().copyPerByte(data.size()),
                     [&](uint32_t off, uint32_t n, bool fillDdgst) {
                         return buildDataPdu(
                             wc_, kPduC2HData, DataPduHdr{cid, off, n},
                             ByteView(data).subspan(off, n), fillDdgst);
                     });
            enqueue(buildRespCapsule(wc_, RespCapsule{cid, 0}));
        });
    });
}

void
NvmeTarget::finishWrite(uint16_t cid)
{
    std::optional<Command> w = take(cid);
    ANIC_ASSERT(w.has_value());
    bool digestOk = !w->failed;

    drive_.write(w->slba, w->len, [this, cid, len = w->len, digestOk] {
        sock_.core().post([this, cid, len, digestOk] {
            stats_.writesServed++;
            stats_.bytesWritten += len;
            RespCapsule resp;
            resp.cid = cid;
            resp.status = digestOk ? 0 : 1;
            enqueue(buildRespCapsule(wc_, resp));
        });
    });
}

} // namespace anic::nvmetcp
