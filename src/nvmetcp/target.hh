/**
 * @file
 * NVMe-TCP target (controller): serves capsules over a StreamSocket
 * from an NvmeDrive. Lives on the workload-generator machine in the
 * paper's setup ("the server utilizes an Optane ... NVMe SSD that
 * resides remotely, on the generator").
 *
 * The write path is R2T-gated: a data-out command (WRITE, COMPARE)
 * is granted one outstanding R2T window at a time, and H2CData is
 * accepted only inside granted ranges. With enableOffload() the
 * target also acts as a device under test: its NIC verifies H2CData
 * digests and places payload directly into the pending write's block
 * buffer (rx), and fills C2HData digests on the way out (tx).
 */

#ifndef ANIC_NVMETCP_TARGET_HH
#define ANIC_NVMETCP_TARGET_HH

#include <unordered_map>

#include "core/storage_endpoint.hh"
#include "nvmetcp/pdu.hh"

namespace anic::nvmetcp {

struct NvmeTargetStats
{
    uint64_t readsServed = 0;
    uint64_t writesServed = 0;
    uint64_t flushesServed = 0;
    uint64_t comparesServed = 0;
    uint64_t compareMismatches = 0;
    uint64_t bytesRead = 0;
    uint64_t bytesWritten = 0;
    uint64_t r2tsSent = 0;
    uint64_t digestFailures = 0;       ///< H2CData DDGST mismatches
    uint64_t h2cDigestSkipped = 0;     ///< PDUs fully verified by the NIC
    uint64_t h2cDigestSoftware = 0;    ///< PDUs verified in software
    uint64_t h2cBytesPlaced = 0;       ///< payload the NIC DMA'd to buffers
    uint64_t h2cBytesCopied = 0;       ///< payload copied by software
    uint64_t resyncRequests = 0;
    uint64_t resyncConfirmed = 0;
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
    void onPdu(core::RxPdu &&pdu) override;
    void countResyncRequest() override { stats_.resyncRequests++; }
    void countResyncConfirmed() override { stats_.resyncConfirmed++; }

    void serveRead(const CmdCapsule &cmd);
    void onH2cData(core::RxPdu &pdu);
    void issueR2t(uint16_t cid);
    void finishWrite(uint16_t cid);

    host::NvmeDrive &drive_;
    WireConfig wc_;

    struct PendingWrite
    {
        uint8_t opcode = kOpWrite;
        uint32_t len = 0;
        uint32_t received = 0;
        uint32_t granted = 0;
        uint64_t slba = 0;
        bool digestOk = true;
        host::BlockBufferPtr buffer; ///< H2C payload lands here
    };
    std::unordered_map<uint16_t, PendingWrite> writes_;

    uint16_t nextTtag_ = 1;

    NvmeTargetStats stats_;
};

} // namespace anic::nvmetcp

#endif // ANIC_NVMETCP_TARGET_HH
