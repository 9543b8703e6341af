/**
 * @file
 * One end of a storage-L5P session (NVMe-TCP host queue or target,
 * iSCSI initiator or target): the stream plumbing every endpoint
 * shares. It owns
 *  - PDU reassembly from the transport, handing complete PDUs to the
 *    protocol's onPdu();
 *  - the send queue, which records every message in the tx-message
 *    map while a tx offload context exists (l5o_get_tx_msgstate);
 *  - offload install through the unified l5o_create binding, and the
 *    tag -> buffer placement state (l5o_add/del_rr_state);
 *  - rx resync: translating the NIC's speculated sequence number into
 *    a stream offset and confirming it once reassembly reaches it.
 */

#ifndef ANIC_CORE_STORAGE_ENDPOINT_HH
#define ANIC_CORE_STORAGE_ENDPOINT_HH

#include <deque>

#include "core/offload_device.hh"
#include "core/storage_engine.hh"
#include "core/tx_msg_tracker.hh"

namespace anic::core {

class StorageEndpoint : private L5pCallbacks
{
  public:
    StorageEndpoint(const StorageEndpoint &) = delete;
    StorageEndpoint &operator=(const StorageEndpoint &) = delete;

    /** True once PDU framing (or a header digest) was lost: a fatal
     *  transport error after which the session is quiescent. */
    bool desynced() const { return dead_; }

    /** FSM stats of the rx offload, if any. */
    const nic::FsmStats *
    rxFsmStats() const
    {
        return l5o_ != nullptr ? l5o_->rxFsmStats() : nullptr;
    }

  protected:
    StorageEndpoint(tcp::StreamSocket &sock, const StorageWire &wire,
                    Digests d, StorageOffloadConfig ocfg);
    ~StorageEndpoint() override;

    /** l5o_create on a plain TCP transport for the directions ocfg_
     *  asks for. */
    void installOffload(OffloadDevice &dev, tcp::TcpConnection &conn);

    /** Queues a PDU for the transport and sends what fits. */
    void enqueue(Bytes pdu);

    /** l5o_add_rr_state (when placement is on) / l5o_del_rr_state. */
    void addRrState(uint32_t tag, host::BlockBufferPtr buf);
    void delRrState(uint32_t tag);

    /** Marks the session dead and lets the protocol fail its work. */
    void transportError();

    /** Answers the pending resync once reassembly reaches its offset. */
    void checkPendingResync();

    virtual void onPdu(RxPdu &&pdu) = 0;
    virtual void onTransportError() {}
    virtual void countResyncRequest() = 0;
    virtual void countResyncConfirmed() = 0;
    /** Sends the resync verdict to the NIC (default: plain-TCP
     *  l5o_resync_rx_resp with software's PDU count). */
    virtual void answerResync(bool ok);

    tcp::StreamSocket &sock_;
    StorageOffloadConfig ocfg_;
    L5Offload *l5o_ = nullptr;
    tcp::TcpConnection *conn_ = nullptr;
    StorageRxEngine *rxEngine_ = nullptr;
    PduAssembler assembler_;

    // Pending rx resync speculation (one outstanding).
    bool resyncPending_ = false;
    bool resyncOffValid_ = false; ///< resyncOff_ known (TLS: later)
    uint32_t resyncSeq_ = 0;
    uint64_t resyncOff_ = 0;

  private:
    void onReadable();
    void flushSendQueue();

    // L5pCallbacks (plain-TCP transport).
    std::optional<TxMsgState> getTxMsgState(uint32_t tcpsn) override;
    void resyncRxReq(uint32_t tcpsn) override;

    const StorageWire &wire_;
    Digests dg_;
    bool dead_ = false;

    struct SendEntry
    {
        Bytes bytes;
        bool added = false; ///< registered in txMap_
    };
    std::deque<SendEntry> sendq_;
    size_t sendqOff_ = 0;
    TxMsgTracker txMap_;
    uint64_t txMsgIdx_ = 0;
};

} // namespace anic::core

#endif // ANIC_CORE_STORAGE_ENDPOINT_HH
