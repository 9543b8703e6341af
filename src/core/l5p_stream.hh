/**
 * @file
 * The software half every L5P shares (paper §4.1, Listings 1-2). TLS
 * records and NVMe-TCP / iSCSI PDUs are all self-framing messages in
 * a TCP byte stream, so message reassembly, the seq -> message map
 * behind l5o_get_tx_msgstate and the answer to l5o_resync_rx_req are
 * written once here. A protocol plugs in with its net::MsgWire: the
 * same framing rule the NIC's stream FSM tracks it by.
 *
 * The one resync confirm rule: the NIC speculates that a message
 * starts at stream offset X. Software compares X with its message
 * boundary when the request arrives (the start of the message in
 * progress, else the next unconsumed byte) and at every later message
 * start. The first boundary at X confirms it, with the index of the
 * message starting there; the first boundary past X refutes it.
 */

#ifndef ANIC_CORE_L5P_STREAM_HH
#define ANIC_CORE_L5P_STREAM_HH

#include <optional>
#include <vector>

#include "core/offload_device.hh"
#include "net/msg_wire.hh"
#include "tcp/seq.hh"
#include "tcp/socket.hh"
#include "util/panic.hh"
#include "util/ring_fifo.hh"

namespace anic::core {

/** One segment's share of a message past its prefix: message bytes
 *  [off, off + len) and its packet's offload results, placed ranges
 *  clipped to the chunk and chunk-relative. */
struct MsgChunk
{
    uint32_t off = 0;
    uint32_t len = 0;
    net::RxOffloadMeta meta;
};

/** A fully reassembled message. */
struct RxMsg
{
    net::MsgFrame frame;
    Bytes bytes; ///< full wire bytes [0, wireLen)
    /** Segments that carried bytes past the prefix, in order. */
    std::vector<MsgChunk> chunks;

    /** True iff the NIC checked (and passed) layer @p k on every
     *  chunk: the "crc_ok bits of all SKBs" condition. A chunk in
     *  which no check completed passes vacuously. */
    bool verifiedByNic(net::L5Kind k) const;
};

/** Incremental reassembler of in-order stream segments into messages.
 *  Framing loss (invalid prefix) sets error() and stops it; so does a
 *  sink that rejects a message. */
class MsgAssembler
{
  public:
    MsgAssembler(const net::MsgWire &wire, net::Digests d)
        : wire_(wire), dg_(d)
    {
    }

    /**
     * Feeds a segment. Calls @p onStart(streamOff) as each message's
     * first byte arrives and @p sink(RxMsg &&) as each completes, with
     * msgsDelivered() its index. A sink that returns false rejects the
     * message: it is not counted and reassembly stops.
     */
    template <typename OnStart, typename Sink>
    void
    ingest(const tcp::RxSegment &seg, OnStart &&onStart, Sink &&sink)
    {
        size_t off = 0;
        const size_t n = seg.data.size();
        while (off < n && !stopped()) {
            if (have_ < wire_.prefixSize) {
                if (have_ == 0)
                    onStart(seg.streamOff + off);
                off += takePrefix(seg, off);
                continue;
            }
            off += takeBody(seg, off);
            if (have_ == cur_.frame.wireLen) {
                RxMsg done = std::move(cur_);
                cur_ = RxMsg{};
                have_ = 0;
                if (!sink(std::move(done))) {
                    rejected_ = true;
                    return;
                }
                delivered_++;
            }
        }
    }

    /** Framing was lost. */
    bool error() const { return error_; }

    /** Framing was lost or a sink rejected a message. */
    bool stopped() const { return error_ || rejected_; }

    /** Stream offset of the next unconsumed byte. */
    uint64_t streamConsumed() const { return consumed_; }

    /** The current message's start when mid-message, else the next
     *  unconsumed byte. */
    uint64_t boundaryOff() const { return consumed_ - have_; }

    /** Messages the sink accepted so far: the index of the next one. */
    uint64_t msgsDelivered() const { return delivered_; }

  private:
    size_t takePrefix(const tcp::RxSegment &seg, size_t off);
    size_t takeBody(const tcp::RxSegment &seg, size_t off);

    const net::MsgWire &wire_;
    RxMsg cur_;
    uint8_t prefix_[net::kMaxPrefixSize] = {};
    net::Digests dg_;
    bool error_ = false;
    bool rejected_ = false;
    uint32_t have_ = 0; ///< bytes of the current message collected
    uint64_t consumed_ = 0;
    uint64_t delivered_ = 0;
};

/**
 * Map from TCP sequence numbers to in-flight messages, trimmed as
 * cumulative ACKs arrive: "the L5P software must maintain a map from
 * TCP sequence numbers to their corresponding L5P messages". Each
 * entry shares its message's buffer with the L5P's send path; a trim
 * drops this reference, and a resync descriptor still in the NIC's
 * ring keeps its own.
 */
class TxMsgTracker
{
  public:
    struct Entry
    {
        uint32_t startSeq = 0;
        uint32_t wireLen = 0;
        uint64_t msgIdx = 0;
        /** Pre-offload message bytes, held until the whole message is
         *  acked: the NIC reads its context-recovery rebuild from here.
         *  TCP cannot serve it, since it releases acked bytes. It is
         *  the buffer the L5P built and sent, shared, not a copy. */
        SharedBytes msg;
    };

    /** Records a message; messages must be added in stream order. */
    void
    add(uint32_t startSeq, uint32_t wireLen, uint64_t msgIdx,
        SharedBytes msg = nullptr)
    {
        ANIC_ASSERT(msgs_.empty() ||
                        startSeq == msgs_.back().startSeq + msgs_.back().wireLen,
                    "messages must be contiguous in sequence space");
        msgs_.push_back(Entry{startSeq, wireLen, msgIdx, std::move(msg)});
    }

    /** Drops messages fully acknowledged below @p una. */
    void
    trimAcked(uint32_t una)
    {
        while (!msgs_.empty() &&
               tcp::seqLeq(msgs_.front().startSeq + msgs_.front().wireLen,
                           una))
            msgs_.pop_front();
    }

    /** Finds the message containing @p tcpsn. */
    const Entry *
    find(uint32_t tcpsn) const
    {
        for (size_t i = 0; i < msgs_.size(); i++) {
            const Entry &e = msgs_[i];
            if (tcp::seqGeq(tcpsn, e.startSeq) &&
                tcp::seqLt(tcpsn, e.startSeq + e.wireLen))
                return &e;
        }
        return nullptr;
    }

    size_t size() const { return msgs_.size(); }
    bool empty() const { return msgs_.empty(); }

  private:
    util::RingFifo<Entry> msgs_;
};

/** The base of every software L5P endpoint (TlsSocket,
 *  StorageEndpoint): reassembly, the l5o_create handle, the
 *  tx-message map and the rx resync answer. */
class L5pStream : protected L5pCallbacks
{
  public:
    L5pStream(const L5pStream &) = delete;
    L5pStream &operator=(const L5pStream &) = delete;

    /** The l5o_create handle (null without offload). */
    L5Offload *offload() { return l5o_; }

    /** The tx-message map (introspection). */
    const TxMsgTracker &txMsgs() const { return txMap_; }

    /** FSM stats of the rx offload, if any. */
    const nic::FsmStats *
    rxFsmStats() const
    {
        return l5o_ != nullptr ? l5o_->rxFsmStats() : nullptr;
    }

  protected:
    /** Events a protocol counts in its own stats. */
    enum class StreamEvent : uint8_t
    {
        ResyncRequest,
        ResyncConfirmed,
        TxMsgStateUpcall,
    };

    /** @param conn the TCP flow, if known before createOffload(). */
    L5pStream(const net::MsgWire &wire, net::Digests d,
              tcp::TcpConnection *conn = nullptr)
        : conn_(conn), assembler_(wire, d)
    {
    }
    ~L5pStream() override;

    /** l5o_create on @p conn for @p dirs (none: no offload). With
     *  kL5Tx, the flow's packets are tagged with the tx context, and
     *  txMap_ is trimmed as they are acked. */
    void createOffload(OffloadDevice &dev, tcp::TcpConnection &conn,
                       const L5StaticState &st, unsigned dirs,
                       uint64_t rxMsgIdx = 0, uint64_t txMsgIdx = 0);

    /** MsgAssembler::ingest, applying the confirm rule at every
     *  message start. */
    template <typename Sink>
    void
    ingest(const tcp::RxSegment &seg, Sink &&sink)
    {
        assembler_.ingest(
            seg, [this](uint64_t start) { resolveResync(start); }, sink);
    }

    /** Opens the pending slot for speculation @p seq, its offset not
     *  known yet (NVMe-TLS inner anchors name a record). */
    void
    awaitResync(uint32_t seq)
    {
        resync_ = PendingResync{true, false, seq, 0};
    }

    /** Sets the pending speculation's stream offset and applies the
     *  request-time half of the confirm rule. */
    void placeResync(uint64_t off);

    /** Drops the pending speculation unanswered. */
    void dropResync() { resync_.pending = false; }

    /** Whether messages go through a tx offload context: then every
     *  one must be in txMap_, so framing recovery can cross any. */
    bool txOffloaded() const { return l5o_ != nullptr && l5o_->txCtxId() != 0; }

    /** A speculation is pending whose offset is not known yet. */
    bool unplacedResync() const { return resync_.pending && !resync_.offValid; }

    /** Sends the verdict (default: l5o_resync_rx_resp with the index
     *  of the message starting at the speculated offset). */
    virtual void answerResync(bool ok);

    virtual void countEvent(StreamEvent e) = 0;

    L5Offload *l5o_ = nullptr;
    tcp::TcpConnection *conn_; ///< the TCP flow (null until known)
    MsgAssembler assembler_;
    TxMsgTracker txMap_;

  private:
    /** Answers the pending speculation once boundary @p at reaches
     *  its offset (the confirm rule). */
    void resolveResync(uint64_t at);

    // L5pCallbacks.
    std::optional<TxMsgState> getTxMsgState(uint32_t tcpsn) override;
    void resyncRxReq(uint32_t tcpsn) override;

    struct PendingResync
    {
        bool pending = false;
        bool offValid = false; ///< off known
        uint32_t seq = 0;      ///< echoed in the answer
        uint64_t off = 0;
    };
    PendingResync resync_;
};

} // namespace anic::core

#endif // ANIC_CORE_L5P_STREAM_HH
