/**
 * @file
 * NVMe-TCP target (controller): serves capsules over a StreamSocket
 * from an NvmeDrive. Lives on the workload-generator machine in the
 * paper's setup ("the server utilizes an Optane ... NVMe SSD that
 * resides remotely, on the generator").
 *
 * The write path is R2T-gated: a data-out command (WRITE, COMPARE)
 * is granted one outstanding R2T window at a time, and H2CData outside
 * the ranges granted so far is a fatal transport error. The pending
 * writes, the data path and the offloads are the shared
 * core::StorageEndpoint's: with enableOffload() the NIC verifies H2CData
 * digests and places payload directly into the pending write's block
 * buffer (rx), and fills C2HData digests on the way out (tx). This
 * class keeps the NVMe capsules, R2T credit, reads, FLUSH and COMPARE.
 */

#ifndef ANIC_NVMETCP_TARGET_HH
#define ANIC_NVMETCP_TARGET_HH

#include "core/storage_endpoint.hh"
#include "nvmetcp/pdu.hh"

namespace anic::nvmetcp {

struct NvmeTargetStats
{
    sim::Counter readsServed;
    sim::Counter writesServed;
    sim::Counter flushesServed;
    sim::Counter comparesServed;
    sim::Counter compareMismatches;
    sim::Counter bytesRead;
    sim::Counter bytesWritten;
    sim::Counter r2tsSent;
    sim::Counter h2cPdusRx;         ///< H2CData PDUs received
    sim::Counter digestFailures;    ///< H2CData DDGST mismatches
    sim::Counter h2cDigestSkipped;  ///< PDUs fully verified by the NIC
    sim::Counter h2cDigestSoftware; ///< PDUs verified in software
    sim::Counter h2cBytesPlaced;    ///< payload the NIC DMA'd to buffers
    sim::Counter h2cBytesCopied;    ///< payload copied by software
    sim::Counter resyncRequests;
    sim::Counter resyncConfirmed;
};

/** One connection's controller-side session. */
class NvmeTarget : public core::StorageEndpoint
{
  public:
    NvmeTarget(tcp::StreamSocket &sock, host::NvmeDrive &drive,
               WireConfig wc);

    /**
     * Installs NIC offload contexts on the target side (l5o_create on
     * the flow): rx digest verification + placement for inbound
     * H2CData, tx digest fill for outbound C2HData.
     */
    void
    enableOffload(core::OffloadDevice &dev, tcp::TcpConnection &conn,
                  NvmeOffloadConfig ocfg)
    {
        ocfg_ = ocfg;
        installOffload(dev, conn);
    }

    const NvmeTargetStats &stats() const { return stats_; }

  private:
    // StorageEndpoint. A lost framing or header digest stops serving
    // (a real controller resets the connection, NVMe/TCP §7.4.7).
    void onPdu(core::RxMsg &&pdu) override;

    void serveRead(const CmdCapsule &cmd);
    void issueR2t(uint16_t cid, Command &w);
    void finishWrite(uint16_t cid);

    host::NvmeDrive &drive_;
    WireConfig wc_;
    uint16_t nextTtag_ = 1;

    NvmeTargetStats stats_;
};

} // namespace anic::nvmetcp

#endif // ANIC_NVMETCP_TARGET_HH
