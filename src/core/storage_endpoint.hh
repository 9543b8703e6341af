/**
 * @file
 * One end of a storage-L5P session (NVMe-TCP host queue or target,
 * iSCSI initiator or target): the data path every endpoint shares.
 * It is a core::L5pStream, like TlsSocket, so PDU reassembly, the
 * offload handle, the tx-message map (l5o_get_tx_msgstate) and rx
 * resync with its one confirm rule are the stream layer's. On top of
 * that it owns
 *  - the digest policy, handing PDUs whose header can be trusted to
 *    the protocol's onPdu();
 *  - the command table: an initiator's outstanding commands, a
 *    target's pending writes;
 *  - the data-PDU send loop and the receive step of a data PDU;
 *  - the send queue, which records every message in the tx-message
 *    map while a tx offload context exists;
 *  - offload install for the directions it asks for, and the tag ->
 *    buffer placement state (l5o_add/del_rr_state);
 *  - the counts of all of the above (StorageCounters).
 * StorageInitiator adds tags, completion and failing every command on
 * a transport error. A protocol keeps its PDU build and parse and its
 * own verbs.
 *
 * StorageWire::nicHeaderDigest fixes the digest policy. If the NIC
 * verifies both digests (iSCSI), each PDU gets one verdict, the NIC's
 * or software's, before dispatch. Otherwise (NVMe-TCP) software checks
 * every header digest, and each data PDU gets a data verdict after
 * its copy.
 */

#ifndef ANIC_CORE_STORAGE_ENDPOINT_HH
#define ANIC_CORE_STORAGE_ENDPOINT_HH

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "core/l5p_stream.hh"
#include "core/storage_engine.hh"
#include "host/core.hh"
#include "sim/registry.hh"
#include "util/ring_fifo.hh"

namespace anic::core {

/** The endpoint's stats fields the shared data path counts into. A
 *  kind of endpoint never counts the ones it leaves null. */
struct StorageCounters
{
    sim::Counter *dataPdus = nullptr;
    sim::Counter *bytesPlaced = nullptr;
    sim::Counter *bytesCopied = nullptr;
    sim::Counter *digestSkipped = nullptr; ///< verdicts the NIC made
    sim::Counter *digestSoftware = nullptr;
    sim::Counter *digestFailures = nullptr;
    sim::Counter *resyncRequests = nullptr;
    sim::Counter *resyncConfirmed = nullptr;
    // Initiators only.
    sim::Counter *failures = nullptr;
    sim::Counter *readsCompleted = nullptr;
    sim::Counter *writesCompleted = nullptr;
};

class StorageEndpoint : public L5pStream
{
  public:
    using ReadDone = std::function<void(bool ok, host::BlockBufferPtr)>;
    using WriteDone = std::function<void(bool ok)>;

    /** True once PDU framing, a header digest or a data range was
     *  lost: a fatal transport error after which the session is
     *  quiescent. */
    bool desynced() const { return dead_; }

  protected:
    enum class Verb : uint8_t
    {
        Read,
        Write,
    };

    /** A command in flight: outstanding at an initiator, a pending
     *  write at a target. */
    struct Command
    {
        Verb verb = Verb::Read;
        uint64_t slba = 0;
        uint32_t len = 0;
        uint32_t limit = 0;    ///< data is accepted only in [0, limit)
        uint32_t received = 0; ///< data bytes accepted so far
        bool failed = false;   ///< a data digest failed
        host::BlockBufferPtr buffer; ///< where data lands
        uint64_t contentSeed = 0;    ///< data-out payload (initiator)
        ReadDone readDone;
        WriteDone writeDone;
    };

    StorageEndpoint(tcp::StreamSocket &sock, const StorageWire &wire,
                    net::Digests d, StorageOffloadConfig ocfg);

    /** Points the shared counts at the endpoint's stats fields and,
     *  optionally, an aggregate's. Called once, by the constructor. */
    void
    countInto(const StorageCounters &own, const StorageCounters &agg = {})
    {
        own_ = own;
        agg_ = agg;
    }

    void
    count(sim::Counter *StorageCounters::*field, uint64_t n = 1)
    {
        *(own_.*field) += n;
        if (agg_.*field != nullptr)
            *(agg_.*field) += n;
    }

    /** l5o_create on a plain TCP transport for the directions ocfg_
     *  asks for. */
    void installOffload(OffloadDevice &dev, tcp::TcpConnection &conn);

    /** Queues a PDU for the transport and sends what fits. */
    void enqueue(Bytes pdu);

    /**
     * The data-PDU send loop: sends data [off, end) as PDUs of at most
     * @p maxPdu data bytes. Each is charged its copy at @p copyPerByte,
     * its data digest unless the NIC tx offload fills it, and its
     * header processing; build(off, n, fillDdgst) returns its bytes.
     */
    template <typename Build>
    void
    sendData(uint32_t off, uint32_t end, size_t maxPdu, double copyPerByte,
             Build &&build)
    {
        host::Core &core = sock_.core();
        const host::CycleModel &m = core.model();
        const bool swDigest = dg_.data && !ocfg_.crcTx;
        while (off < end) {
            uint32_t n =
                static_cast<uint32_t>(std::min<size_t>(maxPdu, end - off));
            core.charge(copyPerByte * n + (swDigest ? m.crcPerByte * n : 0) +
                        m.nvmePduCost);
            enqueue(build(off, n, /*fillDdgst=*/!ocfg_.crcTx));
            off += n;
        }
    }

    /** Enters a command under @p tag, replacing any entry there. */
    Command &enter(uint32_t tag, Verb verb, uint64_t slba, uint32_t len);

    Command *command(uint32_t tag);

    /** Takes a command out of the table and drops its placement state
     *  (l5o_del_rr_state); nullopt for an unknown tag. */
    std::optional<Command> take(uint32_t tag);

    /**
     * The receive step of a data PDU for command @p tag, at
     * @p bufferOffset of its buffer: counts the PDU, copies what the
     * NIC did not place and applies the data-digest verdict. The copy
     * is charged for a working set of the command's length, or of
     * @p queueBytes if larger. Returns the command, or null for a
     * stale tag and after data outside [0, limit): a fatal transport
     * error, since dropping the data would leave a hole in a command
     * that then completes "successfully".
     */
    Command *receiveData(const RxMsg &pdu, uint32_t tag, uint32_t bufferOffset,
                         uint64_t queueBytes = 0);

    /** l5o_add_rr_state (when placement is on) / l5o_del_rr_state. */
    void addRrState(uint32_t tag, host::BlockBufferPtr buf);
    void delRrState(uint32_t tag);

    /** Marks the session dead and lets the protocol fail its work. */
    void transportError();

    virtual void onPdu(RxMsg &&pdu) = 0;
    virtual void onTransportError() {}

    tcp::StreamSocket &sock_;
    StorageOffloadConfig ocfg_;
    StorageRxEngine *rxEngine_ = nullptr;
    std::unordered_map<uint32_t, Command> cmds_;

  private:
    void onReadable();
    /** Charges a PDU's header processing, applies the digest policy's
     *  checks that precede dispatch and hands it to onPdu(). */
    void dispatch(RxMsg &&pdu);
    /** Counts one digest verdict; true if the NIC made it. */
    bool nicVerified(const RxMsg &pdu);
    void flushSendQueue();
    void countEvent(StreamEvent e) override;

    const StorageWire &wire_;
    net::Digests dg_;
    bool dead_ = false;
    bool pduDataOk_ = true; ///< data verdict made before dispatch
    StorageCounters own_;
    StorageCounters agg_;

    struct SendEntry
    {
        SharedBytes msg; ///< shared with its txMap_ entry, if any
        bool added = false; ///< registered in txMap_
    };
    util::RingFifo<SendEntry> sendq_;
    size_t sendqOff_ = 0;
    uint64_t txMsgIdx_ = 0;
};

/** The initiator side of the command table. */
class StorageInitiator : public StorageEndpoint
{
  public:
    size_t outstanding() const { return cmds_.size(); }
    uint64_t outstandingBytes() const { return outstandingBytes_; }

  protected:
    /** @param maxTag the largest tag the wire carries. */
    StorageInitiator(tcp::StreamSocket &sock, const StorageWire &wire,
                     net::Digests d, StorageOffloadConfig ocfg, uint32_t maxTag);

    /** Charges the issue half of a command and enters it under the
     *  next free tag (counting up from 1, wrapping past maxTag), which
     *  it returns. A read gets a buffer, registered for placement
     *  (l5o_add_rr_state) before the command leaves. */
    uint32_t issue(Verb verb, uint64_t slba, uint32_t len,
                   uint64_t contentSeed, ReadDone readDone,
                   WriteDone writeDone);

    /** Charges the completion half of a command and reports success
     *  iff @p ok, no data digest failed and a read got all its data. */
    void complete(uint32_t tag, bool ok);

  private:
    /** Fails every outstanding command, in tag order. */
    void onTransportError() override;

    uint32_t maxTag_;
    uint32_t nextTag_ = 1;
    uint64_t outstandingBytes_ = 0;
};

} // namespace anic::core

#endif // ANIC_CORE_STORAGE_ENDPOINT_HH
