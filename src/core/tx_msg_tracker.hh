/**
 * @file
 * Map from TCP sequence numbers to in-flight L5P messages.
 *
 * "The L5P software must maintain a map from TCP sequence numbers to
 * their corresponding L5P messages (in our experience, this takes
 * ~200 LoC)" — both kTLS (records) and NVMe-TCP (capsules) use this
 * to answer l5o_get_tx_msgstate; entries are trimmed as cumulative
 * ACKs arrive, mirroring how TCP itself releases acked bytes.
 */

#ifndef ANIC_CORE_TX_MSG_TRACKER_HH
#define ANIC_CORE_TX_MSG_TRACKER_HH

#include "tcp/seq.hh"
#include "util/bytes.hh"
#include "util/panic.hh"
#include "util/ring_fifo.hh"

namespace anic::core {

class TxMsgTracker
{
  public:
    struct Entry
    {
        uint32_t startSeq = 0;
        uint32_t wireLen = 0;
        uint64_t msgIdx = 0;
        /** Pre-offload message bytes, retained until the whole
         *  message is acked ("the L5P holds a reference to the
         *  buffers which contain transmitted L5P message data"); the
         *  NIC reads its context-recovery rebuild from here. TCP
         *  cannot serve this: it releases at byte granularity. */
        Bytes bytes;
    };

    /** Records a message; messages must be added in stream order. */
    void
    add(uint32_t startSeq, uint32_t wireLen, uint64_t msgIdx,
        Bytes bytes = {})
    {
        ANIC_ASSERT(msgs_.empty() ||
                        startSeq == msgs_.back().startSeq + msgs_.back().wireLen,
                    "messages must be contiguous in sequence space");
        msgs_.push_back(Entry{startSeq, wireLen, msgIdx, std::move(bytes)});
    }

    /** Drops messages fully acknowledged below @p una. */
    void
    trimAcked(uint32_t una)
    {
        while (!msgs_.empty() &&
               tcp::seqLeq(msgs_.front().startSeq + msgs_.front().wireLen,
                           una)) {
            msgs_.pop_front();
        }
    }

    /** Finds the message containing @p tcpsn. */
    const Entry *
    find(uint32_t tcpsn) const
    {
        for (size_t i = 0; i < msgs_.size(); i++) {
            const Entry &e = msgs_[i];
            if (tcp::seqGeq(tcpsn, e.startSeq) &&
                tcp::seqLt(tcpsn, e.startSeq + e.wireLen)) {
                return &e;
            }
        }
        return nullptr;
    }

    size_t size() const { return msgs_.size(); }
    bool empty() const { return msgs_.empty(); }
    const Entry &front() const { return msgs_.front(); }

  private:
    util::RingFifo<Entry> msgs_;
};

} // namespace anic::core

#endif // ANIC_CORE_TX_MSG_TRACKER_HH
