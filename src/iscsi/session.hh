/**
 * @file
 * iSCSI session endpoints over a StreamSocket, backed by the same
 * host::NvmeDrive block model the NVMe-TCP endpoints use.
 *
 * IscsiInitiator maps read/write block requests to SCSI Command PDUs;
 * writes carry unsolicited Data-Out (InitialR2T=No with a large
 * FirstBurstLength, a common fast-path configuration — credit-gated
 * data-out is exercised by the NVMe-TCP R2T path). IscsiTarget serves
 * Data-In segments and collects Data-Out into per-task buffers; data
 * outside a task's range is a fatal transport error.
 *
 * Both sides are thin: the task table, the pending writes, the data
 * path and the NIC offloads are the shared core::StorageEndpoint's
 * (l5o_create with kIscsiWire):
 *  - rx digest offload: skip software header+data digest checks when
 *    the NIC verified every chunk of a PDU;
 *  - rx copy offload: skip copying ranges the NIC placed into the
 *    task buffer (ITT-keyed, at the wire BufferOffset);
 *  - tx digest offload: send data PDUs with dummy data digests for
 *    the NIC to fill;
 *  - resync: answers NIC BHS speculations with PDU-boundary anchors.
 * What stays here is the BHS build and parse and unsolicited Data-Out.
 */

#ifndef ANIC_ISCSI_SESSION_HH
#define ANIC_ISCSI_SESSION_HH

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

class IscsiInitiator : public core::StorageInitiator
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

    /** Reads @p len bytes at byte address @p slba. */
    void read(uint64_t slba, uint32_t len, ReadDone done);

    /** Writes @p len deterministic bytes (seed/slba-addressed),
     *  shipped as unsolicited Data-Out right behind the command. */
    void write(uint64_t slba, uint32_t len, uint64_t contentSeed,
               WriteDone done);

    const IscsiInitiatorStats &stats() const { return stats_; }

  private:
    // StorageEndpoint. A lost framing, BHS digest or data range fails
    // every outstanding task and the session goes quiescent.
    void onPdu(core::RxMsg &&pdu) override;

    IscsiWireConfig wc_;
    IscsiInitiatorStats stats_;
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
    // StorageEndpoint. A lost framing, BHS digest or data range stops
    // serving.
    void onPdu(core::RxMsg &&pdu) override;

    void serveRead(const IscsiBhs &bhs);
    void finishWrite(uint32_t itt);

    host::NvmeDrive &drive_;
    IscsiWireConfig wc_;

    IscsiTargetStats stats_;
};

} // namespace anic::iscsi

#endif // ANIC_ISCSI_SESSION_HH
