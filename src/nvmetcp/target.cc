#include "nvmetcp/target.hh"

#include <algorithm>
#include <cstring>

#include "host/core.hh"
#include "util/panic.hh"

namespace anic::nvmetcp {

NvmeTarget::NvmeTarget(tcp::StreamSocket &sock, host::NvmeDrive &drive,
                       WireConfig wc)
    : StorageEndpoint(sock, kNvmeWire, wc.digests(), {}), drive_(drive),
      wc_(wc)
{
}

void
NvmeTarget::onPdu(core::RxPdu &&pdu)
{
    host::Core &core = sock_.core();
    const host::CycleModel &m = core.model();
    core.charge(m.nvmePduCost);

    if (wc_.headerDigest) {
        core.charge(m.crcPerByte * pdu.frame.subHdrEnd);
        if (!verifyHdgst(wc_, pdu.bytes, pdu.frame.subHdrEnd)) {
            // Fatal transport error: a corrupted specific header
            // (cid, slba, data offset) must not reach the command
            // table.
            transportError();
            return;
        }
    }

    switch (pdu.frame.type) {
      case kPduCapsuleCmd: {
        CmdCapsule cmd = parseCmdCapsule(pdu.bytes);
        if (cmd.opcode == kOpRead) {
            serveRead(cmd);
        } else {
            // Data-out (WRITE, COMPARE) or data-less (FLUSH) command.
            PendingWrite w;
            w.opcode = cmd.opcode;
            w.len = cmd.length;
            w.slba = cmd.slba;
            w.buffer = std::make_shared<host::BlockBuffer>(cmd.length);
            writes_[cmd.cid] = w;
            if (cmd.length == 0)
                finishWrite(cmd.cid);
            else
                issueR2t(cmd.cid);
        }
        return;
      }
      case kPduH2CData:
        onH2cData(pdu);
        return;
      default:
        return; // targets ignore response-type PDUs
    }
}

void
NvmeTarget::issueR2t(uint16_t cid)
{
    auto it = writes_.find(cid);
    ANIC_ASSERT(it != writes_.end());
    PendingWrite &w = it->second;
    uint32_t n = static_cast<uint32_t>(
        std::min<uint64_t>(wc_.maxR2tWindow, w.len - w.granted));
    if (n == 0)
        return;

    if (w.granted == 0) {
        // l5o_add_rr_state before the credit leaves: H2CData can
        // arrive any time after, and the NIC places it directly.
        addRrState(cid, w.buffer);
    }

    R2tHdr r2t;
    r2t.cid = cid;
    r2t.ttag = nextTtag_++;
    r2t.r2tOffset = w.granted;
    r2t.r2tLength = n;
    w.granted += n;
    stats_.r2tsSent++;
    sock_.core().charge(sock_.core().model().nvmePduCost);
    enqueue(buildR2tPdu(wc_, r2t));
}

void
NvmeTarget::onH2cData(core::RxPdu &pdu)
{
    host::Core &core = sock_.core();
    const host::CycleModel &m = core.model();

    DataPduHdr dh = parseDataPduHdr(pdu.bytes);
    auto it = writes_.find(dh.cid);
    if (it == writes_.end())
        return; // stale / unknown capsule
    PendingWrite &w = it->second;
    const uint64_t pdo = pdu.frame.dataOff;

    // ---- copy (placement offload skips NIC-placed ranges)
    core::CopyCounts c = core::copyUnplaced(pdu, pdo, dh.dataLen,
                                            dh.dataOffset, w.buffer.get());
    core.charge(m.copyPerByte(w.len) * static_cast<double>(c.copied));
    stats_.h2cBytesCopied += c.copied;
    stats_.h2cBytesPlaced += c.placed;

    // ---- data digest
    if (wc_.dataDigest && dh.dataLen > 0) {
        if (ocfg_.crcRx && pdu.digestFullyOffloaded()) {
            stats_.h2cDigestSkipped++;
        } else {
            stats_.h2cDigestSoftware++;
            core.charge(m.crcPerByte * dh.dataLen);
            if (!core::dataDigestOk(pdu, pdo, dh.dataLen)) {
                w.digestOk = false;
                stats_.digestFailures++;
            }
        }
    }

    w.received += dh.dataLen;
    if (w.received >= w.len)
        finishWrite(dh.cid);
    else if (w.received >= w.granted)
        issueR2t(dh.cid); // previous window exhausted; grant the next
}

void
NvmeTarget::serveRead(const CmdCapsule &cmd)
{
    host::Core &core = sock_.core();
    core.charge(core.model().nvmeRequestCost / 2);

    drive_.read(cmd.slba, cmd.length, [this, cmd, &core](Bytes data) {
        core.post([this, cmd, data = std::move(data)] {
            host::Core &c = sock_.core();
            const host::CycleModel &m = c.model();
            stats_.readsServed++;
            stats_.bytesRead += data.size();

            size_t off = 0;
            while (off < data.size()) {
                size_t n = std::min(wc_.maxDataPerPdu, data.size() - off);
                DataPduHdr dh;
                dh.cid = cmd.cid;
                dh.dataOffset = static_cast<uint32_t>(off);
                dh.dataLen = static_cast<uint32_t>(n);
                // Drive buffer -> PDU copy; compute the digest in
                // software unless the NIC tx offload fills it.
                c.charge(m.copyPerByte(data.size()) * n +
                         (wc_.dataDigest && !ocfg_.crcTx ? m.crcPerByte * n
                                                         : 0) +
                         m.nvmePduCost);
                enqueue(buildDataPdu(wc_, kPduC2HData, dh,
                                     ByteView(data).subspan(off, n),
                                     /*fillDdgst=*/!ocfg_.crcTx));
                off += n;
            }
            RespCapsule resp;
            resp.cid = cmd.cid;
            resp.status = 0;
            enqueue(buildRespCapsule(wc_, resp));
        });
    });
}

void
NvmeTarget::finishWrite(uint16_t cid)
{
    auto it = writes_.find(cid);
    ANIC_ASSERT(it != writes_.end());
    PendingWrite w = std::move(it->second);
    writes_.erase(it);
    delRrState(cid); // l5o_del_rr_state

    if (w.opcode == kOpCompare) {
        // COMPARE: read the addressed range back and match it against
        // the received payload; miscompare is a non-zero status.
        drive_.read(w.slba, w.len,
                    [this, cid, buf = w.buffer,
                     digestOk = w.digestOk](Bytes data) {
            sock_.core().post(
                [this, cid, buf, digestOk, data = std::move(data)] {
                    host::Core &c = sock_.core();
                    c.charge(c.model().copyLlcPerByte *
                             static_cast<double>(data.size())); // memcmp
                    bool match = data.size() == buf->data.size() &&
                                 std::memcmp(data.data(), buf->data.data(),
                                             data.size()) == 0;
                    stats_.comparesServed++;
                    if (!match)
                        stats_.compareMismatches++;
                    RespCapsule resp;
                    resp.cid = cid;
                    resp.status = (digestOk && match) ? 0 : 1;
                    enqueue(buildRespCapsule(wc_, resp));
                });
        });
        return;
    }

    // WRITE and FLUSH share the drive's write channel (a flush is a
    // zero-length fence: access latency, no data).
    drive_.write(w.slba, w.len,
                 [this, cid, opcode = w.opcode, len = w.len,
                  digestOk = w.digestOk] {
        sock_.core().post([this, cid, opcode, len, digestOk] {
            if (opcode == kOpFlush) {
                stats_.flushesServed++;
            } else {
                stats_.writesServed++;
                stats_.bytesWritten += len;
            }
            RespCapsule resp;
            resp.cid = cid;
            resp.status = digestOk ? 0 : 1;
            enqueue(buildRespCapsule(wc_, resp));
        });
    });
}

} // namespace anic::nvmetcp
