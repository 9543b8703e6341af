/**
 * @file
 * iSCSI session endpoints over a StreamSocket, backed by the same
 * host::NvmeDrive block model the NVMe-TCP endpoints use.
 *
 * IscsiInitiator maps read/write block requests to SCSI Command PDUs;
 * writes carry unsolicited Data-Out (InitialR2T=No with a large
 * FirstBurstLength, a common fast-path configuration — credit-gated
 * data-out is exercised by the NVMe-TCP R2T path). IscsiTarget serves
 * Data-In segments and collects Data-Out into per-task buffers.
 *
 * Both sides install NIC offloads through the shared storage-L5P
 * endpoint (core::StorageEndpoint, l5o_create with kIscsiWire):
 *  - rx digest offload: skip software header+data digest checks when
 *    the NIC verified every chunk of a PDU;
 *  - rx copy offload: skip copying ranges the NIC placed into the
 *    task buffer (ITT-keyed, at the wire BufferOffset);
 *  - tx digest offload: send data PDUs with dummy data digests for
 *    the NIC to fill;
 *  - resync: answers NIC BHS speculations with PDU-boundary anchors.
 */

#ifndef ANIC_ISCSI_SESSION_HH
#define ANIC_ISCSI_SESSION_HH

#include <unordered_map>

#include "core/storage_endpoint.hh"
#include "iscsi/pdu.hh"

namespace anic::iscsi {

struct IscsiInitiatorStats
{
    sim::Counter readsCompleted;
    sim::Counter writesCompleted;
    sim::Counter failures;
    sim::Counter dataInPdus;
    sim::Counter digestSkipped;  ///< PDUs fully verified by the NIC
    sim::Counter digestSoftware; ///< PDUs verified in software
    sim::Counter digestFailures;
    sim::Counter bytesPlaced;
    sim::Counter bytesCopied;
    sim::Counter resyncRequests;
    sim::Counter resyncConfirmed;
};

class IscsiInitiator : public core::StorageEndpoint
{
  public:
    IscsiInitiator(tcp::StreamSocket &sock, IscsiWireConfig wc,
                   IscsiOffloadConfig ocfg,
                   IscsiInitiatorStats *aggregate = nullptr);

    /** Installs NIC offload contexts (unified l5o_create binding). */
    void
    enableOffload(core::OffloadDevice &dev, tcp::TcpConnection &conn)
    {
        installOffload(dev, conn);
    }

    using ReadDone = std::function<void(bool ok, host::BlockBufferPtr)>;
    using WriteDone = std::function<void(bool ok)>;

    /** Reads @p len bytes at byte address @p slba. */
    void read(uint64_t slba, uint32_t len, ReadDone done);

    /** Writes @p len deterministic bytes (seed/slba-addressed),
     *  shipped as unsolicited Data-Out right behind the command. */
    void write(uint64_t slba, uint32_t len, uint64_t contentSeed,
               WriteDone done);

    const IscsiInitiatorStats &stats() const { return stats_; }
    size_t outstanding() const { return tasks_.size(); }

  private:
    struct Task
    {
        uint8_t scsiOp = 0;
        uint64_t slba = 0;
        uint32_t len = 0;
        host::BlockBufferPtr buffer;
        ReadDone readDone;
        WriteDone writeDone;
        uint32_t received = 0;
        bool failed = false;
    };

    uint32_t allocItt();
    void sendDataOut(uint32_t itt, const Task &task, uint64_t contentSeed);
    void completeTask(uint32_t itt, bool ok);

    // StorageEndpoint. A lost framing or BHS digest fails every
    // outstanding task and the session goes quiescent.
    void onPdu(core::RxPdu &&pdu) override;
    void onTransportError() override;
    void
    countResyncRequest() override
    {
        count(&IscsiInitiatorStats::resyncRequests);
    }
    void
    countResyncConfirmed() override
    {
        count(&IscsiInitiatorStats::resyncConfirmed);
    }

    void
    count(sim::Counter IscsiInitiatorStats::*m, uint64_t n = 1)
    {
        (stats_.*m) += n;
        if (aggregate_ != nullptr)
            (aggregate_->*m) += n;
    }

    IscsiWireConfig wc_;
    std::unordered_map<uint32_t, Task> tasks_;
    uint32_t nextItt_ = 1;

    IscsiInitiatorStats stats_;
    IscsiInitiatorStats *aggregate_ = nullptr;
};

struct IscsiTargetStats
{
    sim::Counter readsServed;
    sim::Counter writesServed;
    sim::Counter bytesRead;
    sim::Counter bytesWritten;
    sim::Counter dataOutPdus;
    sim::Counter digestSkipped;
    sim::Counter digestSoftware;
    sim::Counter digestFailures;
    sim::Counter bytesPlaced;
    sim::Counter bytesCopied;
    sim::Counter resyncRequests;
    sim::Counter resyncConfirmed;
};

class IscsiTarget : public core::StorageEndpoint
{
  public:
    IscsiTarget(tcp::StreamSocket &sock, host::NvmeDrive &drive,
                IscsiWireConfig wc);

    /** Installs NIC offload contexts (unified l5o_create binding). */
    void
    enableOffload(core::OffloadDevice &dev, tcp::TcpConnection &conn,
                  IscsiOffloadConfig ocfg)
    {
        ocfg_ = ocfg;
        installOffload(dev, conn);
    }

    const IscsiTargetStats &stats() const { return stats_; }

  private:
    struct PendingWrite
    {
        uint64_t slba = 0;
        uint32_t len = 0;
        uint32_t received = 0;
        bool digestOk = true;
        host::BlockBufferPtr buffer;
    };

    // StorageEndpoint. A lost framing or BHS digest stops serving.
    void onPdu(core::RxPdu &&pdu) override;
    void countResyncRequest() override { stats_.resyncRequests++; }
    void countResyncConfirmed() override { stats_.resyncConfirmed++; }

    void onDataOut(core::RxPdu &pdu, const IscsiBhs &bhs);
    void serveRead(const IscsiBhs &bhs);
    void finishWrite(uint32_t itt);

    host::NvmeDrive &drive_;
    IscsiWireConfig wc_;
    std::unordered_map<uint32_t, PendingWrite> writes_;

    IscsiTargetStats stats_;
};

} // namespace anic::iscsi

#endif // ANIC_ISCSI_SESSION_HH
