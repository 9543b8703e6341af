#include "iscsi/session.hh"

#include <algorithm>

#include "host/core.hh"
#include "util/panic.hh"

namespace anic::iscsi {

// ----------------------------------------------------------- initiator

IscsiInitiator::IscsiInitiator(tcp::StreamSocket &sock, IscsiWireConfig wc,
                               IscsiOffloadConfig ocfg,
                               IscsiInitiatorStats *aggregate)
    : StorageEndpoint(sock, kIscsiWire, wc.digests(), ocfg), wc_(wc),
      aggregate_(aggregate)
{
}

uint32_t
IscsiInitiator::allocItt()
{
    for (;;) {
        uint32_t itt = nextItt_++;
        if (nextItt_ == 0)
            nextItt_ = 1;
        if (tasks_.find(itt) == tasks_.end())
            return itt;
    }
}

void
IscsiInitiator::read(uint64_t slba, uint32_t len, ReadDone done)
{
    host::Core &core = sock_.core();
    core.charge(core.model().nvmeRequestCost / 2);

    uint32_t itt = allocItt();
    Task task;
    task.scsiOp = kScsiRead;
    task.slba = slba;
    task.len = len;
    task.buffer = std::make_shared<host::BlockBuffer>(len);
    task.readDone = std::move(done);

    // l5o_add_rr_state: tell the NIC where Data-In belongs.
    addRrState(itt, task.buffer);
    tasks_.emplace(itt, std::move(task));

    IscsiBhs bhs;
    bhs.itt = itt;
    bhs.edtl = len;
    bhs.scsiOp = kScsiRead;
    bhs.slba = slba;
    bhs.length = len;
    enqueue(buildScsiCmd(wc_, bhs));
}

void
IscsiInitiator::write(uint64_t slba, uint32_t len, uint64_t contentSeed,
                      WriteDone done)
{
    host::Core &core = sock_.core();
    core.charge(core.model().nvmeRequestCost / 2);

    uint32_t itt = allocItt();
    Task task;
    task.scsiOp = kScsiWrite;
    task.slba = slba;
    task.len = len;
    task.writeDone = std::move(done);

    IscsiBhs bhs;
    bhs.itt = itt;
    bhs.edtl = len;
    bhs.scsiOp = kScsiWrite;
    bhs.slba = slba;
    bhs.length = len;
    enqueue(buildScsiCmd(wc_, bhs));
    sendDataOut(itt, task, contentSeed);
    tasks_.emplace(itt, std::move(task));
}

void
IscsiInitiator::sendDataOut(uint32_t itt, const Task &task,
                            uint64_t contentSeed)
{
    host::Core &core = sock_.core();
    const host::CycleModel &m = core.model();
    uint32_t off = 0;
    while (off < task.len) {
        uint32_t n = static_cast<uint32_t>(
            std::min<size_t>(wc_.maxDataSegment, task.len - off));
        Bytes data(n);
        fillDeterministic(data, contentSeed, task.slba + off);
        IscsiBhs dh;
        dh.itt = itt;
        dh.bufferOffset = off;
        dh.flags = off + n >= task.len ? kFlagFinal : 0;
        // User buffer -> PDU copy; compute the data digest in
        // software unless the NIC tx engine fills it.
        core.charge(m.copyLlcPerByte * n +
                    (wc_.dataDigest && !ocfg_.crcTx ? m.crcPerByte * n : 0) +
                    m.nvmePduCost);
        enqueue(buildDataPdu(wc_, kOpDataOut, dh, data,
                                /*fillDdgst=*/!ocfg_.crcTx));
        off += n;
    }
}

void
IscsiInitiator::onTransportError()
{
    std::vector<uint32_t> itts;
    itts.reserve(tasks_.size());
    for (const auto &[itt, task] : tasks_)
        itts.push_back(itt);
    // Issue order, not hash order, for cross-process determinism.
    std::sort(itts.begin(), itts.end());
    for (uint32_t itt : itts) {
        auto it = tasks_.find(itt);
        if (it == tasks_.end())
            continue;
        it->second.failed = true;
        completeTask(itt, false);
    }
}

void
IscsiInitiator::onPdu(core::RxPdu &&pdu)
{
    host::Core &core = sock_.core();
    const host::CycleModel &m = core.model();
    core.charge(m.nvmePduCost);
    IscsiBhs bhs = parseBhs(pdu.bytes);

    // Digest verification: one decision covers both digests — the
    // NIC engine folds the header and data digest verdicts into the
    // same per-PDU outcome.
    bool skip = ocfg_.crcRx && pdu.digestFullyOffloaded();
    bool hdgst_ok = true;
    bool ddgst_ok = true;
    if (skip) {
        count(&IscsiInitiatorStats::digestSkipped);
    } else {
        count(&IscsiInitiatorStats::digestSoftware);
        if (wc_.headerDigest) {
            core.charge(m.crcPerByte * kBhsSize);
            hdgst_ok = verifyHdgst(wc_, pdu.bytes);
        }
        if (wc_.dataDigest && bhs.dsl > 0) {
            core.charge(m.crcPerByte * bhs.dsl);
            ddgst_ok = core::dataDigestOk(pdu, pdu.frame.dataOff, bhs.dsl);
        }
    }
    if (!hdgst_ok) {
        // The BHS (ITT, buffer offset) cannot be trusted: fatal
        // transport error, like a corrupted NVMe specific header.
        count(&IscsiInitiatorStats::digestFailures);
        transportError();
        return;
    }

    if (bhs.opcode == kOpDataIn) {
        count(&IscsiInitiatorStats::dataInPdus);
        auto it = tasks_.find(bhs.itt);
        if (it == tasks_.end())
            return; // stale / unknown task
        Task &task = it->second;
        core::CopyCounts c =
            core::copyUnplaced(pdu, pdu.frame.dataOff, bhs.dsl,
                               bhs.bufferOffset, task.buffer.get());
        core.charge(m.copyPerByte(task.len) * static_cast<double>(c.copied));
        count(&IscsiInitiatorStats::bytesCopied, c.copied);
        count(&IscsiInitiatorStats::bytesPlaced, c.placed);
        if (!ddgst_ok) {
            task.failed = true;
            count(&IscsiInitiatorStats::digestFailures);
        }
        task.received += bhs.dsl;
        return;
    }

    if (bhs.opcode == kOpScsiResp) {
        completeTask(bhs.itt, bhs.status == 0);
        return;
    }
    // Initiators don't expect other opcodes.
}

void
IscsiInitiator::completeTask(uint32_t itt, bool ok)
{
    auto it = tasks_.find(itt);
    if (it == tasks_.end())
        return;
    Task task = std::move(it->second);
    tasks_.erase(it);

    host::Core &core = sock_.core();
    core.charge(core.model().nvmeRequestCost / 2);

    delRrState(itt); // l5o_del_rr_state

    bool success = ok && !task.failed &&
                   (task.scsiOp != kScsiRead || task.received == task.len);
    if (!success)
        count(&IscsiInitiatorStats::failures);
    if (task.scsiOp == kScsiRead) {
        count(&IscsiInitiatorStats::readsCompleted);
        if (task.readDone)
            task.readDone(success, std::move(task.buffer));
    } else {
        count(&IscsiInitiatorStats::writesCompleted);
        if (task.writeDone)
            task.writeDone(success);
    }
}

// -------------------------------------------------------------- target

IscsiTarget::IscsiTarget(tcp::StreamSocket &sock, host::NvmeDrive &drive,
                         IscsiWireConfig wc)
    : StorageEndpoint(sock, kIscsiWire, wc.digests(), {}), drive_(drive),
      wc_(wc)
{
}

void
IscsiTarget::onPdu(core::RxPdu &&pdu)
{
    host::Core &core = sock_.core();
    const host::CycleModel &m = core.model();
    core.charge(m.nvmePduCost);
    IscsiBhs bhs = parseBhs(pdu.bytes);

    bool skip = ocfg_.crcRx && pdu.digestFullyOffloaded();
    bool hdgst_ok = true;
    bool ddgst_ok = true;
    if (skip) {
        stats_.digestSkipped++;
    } else {
        stats_.digestSoftware++;
        if (wc_.headerDigest) {
            core.charge(m.crcPerByte * kBhsSize);
            hdgst_ok = verifyHdgst(wc_, pdu.bytes);
        }
        if (wc_.dataDigest && bhs.dsl > 0) {
            core.charge(m.crcPerByte * bhs.dsl);
            ddgst_ok = core::dataDigestOk(pdu, pdu.frame.dataOff, bhs.dsl);
        }
    }
    if (!hdgst_ok) {
        stats_.digestFailures++;
        transportError(); // a corrupted BHS must not reach the task table
        return;
    }

    switch (bhs.opcode) {
      case kOpScsiCmd: {
        if (bhs.scsiOp == kScsiRead) {
            serveRead(bhs);
        } else {
            PendingWrite w;
            w.slba = bhs.slba;
            w.len = bhs.length;
            w.buffer = std::make_shared<host::BlockBuffer>(bhs.length);
            if (bhs.length > 0) {
                // Unsolicited Data-Out can arrive right behind the
                // command: register placement state immediately.
                addRrState(bhs.itt, w.buffer);
            }
            writes_[bhs.itt] = std::move(w);
            if (bhs.length == 0)
                finishWrite(bhs.itt);
        }
        return;
      }
      case kOpDataOut:
        if (!ddgst_ok) {
            auto it = writes_.find(bhs.itt);
            if (it != writes_.end())
                it->second.digestOk = false;
            stats_.digestFailures++;
        }
        onDataOut(pdu, bhs);
        return;
      default:
        return; // targets ignore response-type opcodes
    }
}

void
IscsiTarget::onDataOut(core::RxPdu &pdu, const IscsiBhs &bhs)
{
    host::Core &core = sock_.core();
    const host::CycleModel &m = core.model();
    stats_.dataOutPdus++;

    auto it = writes_.find(bhs.itt);
    if (it == writes_.end())
        return; // stale / unknown task
    PendingWrite &w = it->second;

    core::CopyCounts c = core::copyUnplaced(pdu, pdu.frame.dataOff, bhs.dsl,
                                            bhs.bufferOffset, w.buffer.get());
    core.charge(m.copyPerByte(w.len) * static_cast<double>(c.copied));
    stats_.bytesCopied += c.copied;
    stats_.bytesPlaced += c.placed;

    w.received += bhs.dsl;
    if (w.received >= w.len)
        finishWrite(bhs.itt);
}

void
IscsiTarget::serveRead(const IscsiBhs &bhs)
{
    host::Core &core = sock_.core();
    core.charge(core.model().nvmeRequestCost / 2);

    drive_.read(bhs.slba, bhs.length, [this, bhs, &core](Bytes data) {
        core.post([this, itt = bhs.itt, data = std::move(data)] {
            host::Core &c = sock_.core();
            const host::CycleModel &m = c.model();
            stats_.readsServed++;
            stats_.bytesRead += data.size();

            size_t off = 0;
            while (off < data.size()) {
                size_t n = std::min(wc_.maxDataSegment, data.size() - off);
                IscsiBhs dh;
                dh.itt = itt;
                dh.bufferOffset = static_cast<uint32_t>(off);
                dh.flags = off + n >= data.size() ? kFlagFinal : 0;
                c.charge(m.copyPerByte(data.size()) * n +
                         (wc_.dataDigest && !ocfg_.crcTx ? m.crcPerByte * n
                                                         : 0) +
                         m.nvmePduCost);
                enqueue(buildDataPdu(wc_, kOpDataIn, dh,
                                     ByteView(data).subspan(off, n),
                                     /*fillDdgst=*/!ocfg_.crcTx));
                off += n;
            }
            IscsiBhs resp;
            resp.itt = itt;
            resp.status = 0;
            enqueue(buildScsiResp(wc_, resp));
        });
    });
}

void
IscsiTarget::finishWrite(uint32_t itt)
{
    auto it = writes_.find(itt);
    ANIC_ASSERT(it != writes_.end());
    PendingWrite w = std::move(it->second);
    writes_.erase(it);
    delRrState(itt); // l5o_del_rr_state

    drive_.write(w.slba, w.len,
                 [this, itt, len = w.len, digestOk = w.digestOk] {
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
