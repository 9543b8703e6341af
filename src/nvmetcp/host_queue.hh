/**
 * @file
 * NVMe-TCP host (initiator) queue: maps read/write/flush/compare
 * block requests to capsules over a StreamSocket. Data-out commands
 * (write, compare) are R2T-gated: H2CData PDUs are emitted only for
 * ranges the target has invited.
 *
 * The command table, the data path and the paper's offloads (rx CRC,
 * rx copy, tx CRC and plain-TCP resync) are the shared
 * core::StorageInitiator's. This queue keeps the NVMe capsules, R2T
 * credit, FLUSH/COMPARE and the NVMe-TLS composition, whose resync
 * anchors arrive as (record, offset) pairs via the TLS layer.
 *
 * The transport is any StreamSocket: a TcpConnection (plain NVMe-TCP)
 * or a TlsSocket (NVMe-TLS, §5.3).
 */

#ifndef ANIC_NVMETCP_HOST_QUEUE_HH
#define ANIC_NVMETCP_HOST_QUEUE_HH

#include "core/storage_endpoint.hh"
#include "nvmetcp/pdu.hh"
#include "tls/ktls.hh"

namespace anic::nvmetcp {

struct NvmeHostStats
{
    sim::Counter readsCompleted;
    sim::Counter writesCompleted;
    sim::Counter flushesCompleted;
    sim::Counter comparesCompleted;
    sim::Counter failures;
    sim::Counter dataPdusRx;
    sim::Counter r2tPdusRx;   ///< write credits granted by the target
    sim::Counter crcSkipped;  ///< capsules fully verified by the NIC
    sim::Counter crcSoftware; ///< capsules verified in software
    sim::Counter crcFailures;
    sim::Counter bytesPlaced; ///< payload the NIC DMA'd to buffers
    sim::Counter bytesCopied; ///< payload copied by software
    sim::Counter resyncRequests;
    sim::Counter resyncConfirmed;
};

class NvmeHostQueue : public core::StorageInitiator,
                      private tls::TlsSocket::RecordObserver
{
  public:
    /** @param aggregate optional owner-level stats (e.g. one per
     *  StorageService across its per-core queues) that every count but
     *  r2tPdusRx also lands in — that is what the registry publishes. */
    NvmeHostQueue(tcp::StreamSocket &sock, WireConfig wc,
                  NvmeOffloadConfig ocfg, NvmeHostStats *aggregate = nullptr);

    /**
     * Installs NIC offload contexts when the transport is a plain
     * TcpConnection (l5o_create on the flow).
     */
    void
    enableOffload(core::OffloadDevice &dev, tcp::TcpConnection &conn)
    {
        ANIC_ASSERT(tlsSock_ == nullptr);
        installOffload(dev, conn);
    }

    /**
     * NVMe-TLS composition: installs the NVMe engines *inside* the
     * TLS socket's NIC engines ("NIC HW parsing starts from Ethernet,
     * and proceeds to parse TLS then NVMe-TCP").
     */
    void enableOffloadOverTls(tls::TlsSocket &tlsSock);

    /** Reads @p len bytes at byte address @p slba. */
    void read(uint64_t slba, uint32_t len, ReadDone done);

    /** Writes @p len deterministic bytes (seed/slba-addressed). Data
     *  is held back until the target grants R2T credit. */
    void write(uint64_t slba, uint32_t len, uint64_t contentSeed,
               WriteDone done);

    /** FLUSH: a data-less command fence. */
    void flush(WriteDone done);

    /** COMPARE: sends @p len deterministic bytes for the target to
     *  match against the addressed range (R2T-gated like a write). */
    void compare(uint64_t slba, uint32_t len, uint64_t contentSeed,
                 WriteDone done);

    const NvmeHostStats &stats() const { return stats_; }

    /** FSM stats of the rx offload (outer or inner), if any. */
    const nic::FsmStats *rxFsmStats() const;

  private:
    void issueDataOutCmd(uint8_t opcode, Verb verb, uint64_t slba,
                         uint32_t len, uint64_t contentSeed, WriteDone done);
    void onR2t(const R2tHdr &r2t);
    /** Resolves a pending inner anchor as its record completes. */
    void onRecord(uint64_t recIdx, uint64_t plainOff) override;

    // StorageEndpoint.
    void onPdu(core::RxMsg &&pdu) override;
    void answerResync(bool ok) override;

    WireConfig wc_;

    // NVMe-TLS composition: the TLS rx engine hosts our inner engine
    // and resync anchors arrive as (record, offset) pairs.
    tls::TlsSocket *tlsSock_ = nullptr;
    tls::TlsRxEngine *tlsRxEngine_ = nullptr;
    uint64_t resyncReqId_ = 0;
    uint64_t innerAnchorRecIdx_ = 0;
    uint32_t innerAnchorRecOff_ = 0;

    NvmeHostStats stats_;
};

} // namespace anic::nvmetcp

#endif // ANIC_NVMETCP_HOST_QUEUE_HH
