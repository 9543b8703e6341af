/**
 * @file
 * NVMe-TCP host (initiator) queue: maps read/write/flush/compare
 * block requests to capsules over a StreamSocket. Data-out commands
 * (write, compare) are R2T-gated: H2CData PDUs are emitted only for
 * ranges the target has invited. Implements the paper's offloads:
 *
 *  - rx CRC offload: skip software data-digest verification when the
 *    NIC checked every chunk of a capsule;
 *  - rx copy offload: skip copying payload ranges the NIC already
 *    placed into the destination block buffer (zero-copy receive);
 *  - tx CRC offload: send data PDUs with dummy digests for the NIC
 *    to fill, keeping per-capsule state for retransmit recovery;
 *  - resync: answers the NIC's PDU-header speculations, both for the
 *    plain-TCP transport (sequence-number anchors, in the shared
 *    StorageEndpoint) and for the NVMe-TLS composition (record/offset
 *    anchors via the TLS layer, here).
 *
 * The transport is any StreamSocket: a TcpConnection (plain NVMe-TCP)
 * or a TlsSocket (NVMe-TLS, §5.3).
 */

#ifndef ANIC_NVMETCP_HOST_QUEUE_HH
#define ANIC_NVMETCP_HOST_QUEUE_HH

#include <unordered_map>

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

class NvmeHostQueue : public core::StorageEndpoint
{
  public:
    /** @param aggregate optional owner-level stats (e.g. one per
     *  StorageService across its per-core queues) every count also
     *  lands in — that is what the registry publishes. */
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

    using ReadDone = std::function<void(bool ok, host::BlockBufferPtr)>;
    using WriteDone = std::function<void(bool ok)>;

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
    size_t outstanding() const { return requests_.size(); }
    uint64_t outstandingBytes() const { return outstandingBytes_; }

    /** FSM stats of the rx offload (outer or inner), if any. */
    const nic::FsmStats *rxFsmStats() const;

  private:
    struct Request
    {
        uint8_t opcode = 0;
        uint64_t slba = 0;
        uint32_t len = 0;
        uint64_t contentSeed = 0; ///< data-out payload (write/compare)
        host::BlockBufferPtr buffer;
        ReadDone readDone;
        WriteDone writeDone;
        uint32_t received = 0;
        bool failed = false;
    };

    uint16_t allocCid();
    void issueDataOutCmd(uint8_t opcode, uint64_t slba, uint32_t len,
                         uint64_t contentSeed, WriteDone done);
    void onR2t(const R2tHdr &r2t);
    void completeRequest(uint16_t cid, bool ok);
    void handleInnerAnchor(uint64_t recIdx, uint64_t plainOff);

    // StorageEndpoint.
    void onPdu(core::RxPdu &&pdu) override;
    /** Fails every outstanding command: the initiator-side analogue
     *  of a fatal transport error. */
    void onTransportError() override;
    void countResyncRequest() override;
    void countResyncConfirmed() override;
    void answerResync(bool ok) override;

    /** Counts into the queue stats and the owner aggregate. */
    void
    count(sim::Counter NvmeHostStats::*m, uint64_t n = 1)
    {
        (stats_.*m) += n;
        if (aggregate_ != nullptr)
            (aggregate_->*m) += n;
    }

    WireConfig wc_;

    // NVMe-TLS composition: the TLS rx engine hosts our inner engine
    // and resync anchors arrive as (record, offset) pairs.
    tls::TlsSocket *tlsSock_ = nullptr;
    tls::TlsRxEngine *tlsRxEngine_ = nullptr;
    uint64_t resyncReqId_ = 0;
    bool innerAnchorPending_ = false;
    uint64_t innerAnchorRecIdx_ = 0;
    uint32_t innerAnchorRecOff_ = 0;

    std::unordered_map<uint16_t, Request> requests_;
    uint16_t nextCid_ = 1;
    uint64_t outstandingBytes_ = 0;

    NvmeHostStats stats_;
    NvmeHostStats *aggregate_ = nullptr;
};

} // namespace anic::nvmetcp

#endif // ANIC_NVMETCP_HOST_QUEUE_HH
