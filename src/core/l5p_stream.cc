#include "core/l5p_stream.hh"

#include <algorithm>
#include <cstring>

#include "tcp/tcp_connection.hh"
#include "util/panic.hh"

namespace anic::core {

bool
RxMsg::verifiedByNic(net::L5Kind k) const
{
    return !chunks.empty() &&
           std::all_of(chunks.begin(), chunks.end(), [k](const MsgChunk &c) {
               net::VerifyOutcome v = c.meta.verifyOf(k);
               return c.meta.offloaded && v != net::VerifyOutcome::Incomplete &&
                      v != net::VerifyOutcome::Failed;
           });
}

// ---------------------------------------------------------- assembler

size_t
MsgAssembler::takePrefix(const tcp::RxSegment &seg, size_t off)
{
    const size_t size = wire_.prefixSize;
    size_t take = std::min<size_t>(size - have_, seg.data.size() - off);
    std::memcpy(prefix_ + have_, seg.data.data() + off, take);
    have_ += take;
    consumed_ = seg.streamOff + off + take;
    if (have_ < size)
        return take;
    std::optional<net::MsgFrame> f = wire_.parsePrefix(prefix_, dg_);
    if (!f) {
        error_ = true;
        return take;
    }
    cur_.frame = *f;
    cur_.bytes.resize(f->wireLen);
    std::memcpy(cur_.bytes.data(), prefix_, size);
    return take;
}

size_t
MsgAssembler::takeBody(const tcp::RxSegment &seg, size_t off)
{
    size_t take = std::min<size_t>(cur_.frame.wireLen - have_,
                                   seg.data.size() - off);
    std::memcpy(cur_.bytes.data() + have_, seg.data.data() + off, take);

    MsgChunk &c = cur_.chunks.emplace_back();
    c.off = have_;
    c.len = static_cast<uint32_t>(take);
    c.meta.kind = seg.meta.kind;
    c.meta.offloaded = seg.meta.offloaded;
    std::copy(std::begin(seg.meta.verify), std::end(seg.meta.verify),
              c.meta.verify);
    for (const net::PlacedRange &r : seg.meta.placed) {
        // Convert segment-relative placement to chunk-relative.
        uint64_t s = std::max<uint64_t>(r.payloadOff, off);
        uint64_t e = std::min<uint64_t>(r.payloadOff + r.len, off + take);
        if (s < e) {
            c.meta.placed.push_back(net::PlacedRange{
                static_cast<uint32_t>(s - off), static_cast<uint32_t>(e - s)});
        }
    }

    have_ += c.len;
    consumed_ = seg.streamOff + off + take;
    return take;
}

// ------------------------------------------------------------- stream

L5pStream::~L5pStream()
{
    if (l5o_ != nullptr)
        l5o_->destroy();
}

void
L5pStream::createOffload(OffloadDevice &dev, tcp::TcpConnection &conn,
                         const L5StaticState &st, unsigned dirs,
                         uint64_t rxMsgIdx, uint64_t txMsgIdx)
{
    ANIC_ASSERT(l5o_ == nullptr, "offload already enabled");
    conn_ = &conn;
    if (dirs == 0)
        return;
    l5o_ = dev.l5oCreate(conn, st, dirs, this, rxMsgIdx, txMsgIdx);
    if (dirs & kL5Tx) {
        conn.setOnAcked([this](uint32_t una) { txMap_.trimAcked(una); });
        conn.setTxOffloadCtx(l5o_->txCtxId());
    }
}

std::optional<L5pCallbacks::TxMsgState>
L5pStream::getTxMsgState(uint32_t tcpsn)
{
    countEvent(StreamEvent::TxMsgStateUpcall);
    const TxMsgTracker::Entry *e = txMap_.find(tcpsn);
    if (e == nullptr)
        return std::nullopt;
    TxMsgState st;
    st.msgStartSeq = e->startSeq;
    st.msgIdx = e->msgIdx;
    st.msg = e->msg;
    st.rebuildLen = tcpsn - e->startSeq;
    ANIC_ASSERT(st.rebuildLen == 0 ||
                    (st.msg != nullptr && st.msg->size() >= st.rebuildLen),
                "message bytes not retained");
    return st;
}

void
L5pStream::resyncRxReq(uint32_t tcpsn)
{
    ANIC_ASSERT(conn_ != nullptr);
    countEvent(StreamEvent::ResyncRequest);
    awaitResync(tcpsn);
    // Translate the sequence number into our stream-offset space.
    uint64_t consumed = assembler_.streamConsumed();
    int64_t delta = static_cast<int32_t>(
        tcpsn - conn_->seqOfRcvStreamOff(consumed));
    placeResync(consumed + delta);
}

void
L5pStream::placeResync(uint64_t off)
{
    resync_.offValid = true;
    resync_.off = off;
    resolveResync(assembler_.boundaryOff());
}

void
L5pStream::resolveResync(uint64_t at)
{
    if (!resync_.pending || !resync_.offValid || at < resync_.off)
        return; // nothing pending, or not there yet
    bool ok = at == resync_.off;
    resync_.pending = false;
    if (ok)
        countEvent(StreamEvent::ResyncConfirmed);
    answerResync(ok);
}

void
L5pStream::answerResync(bool ok)
{
    // Confirm with software's message count: the NIC renumbers its
    // messages from this index, and message identity across
    // mid-message resumes rides on that numbering staying consistent
    // with what the engine saw before the gap.
    if (l5o_ != nullptr)
        l5o_->resyncRxResp(resync_.seq, ok, assembler_.msgsDelivered());
}

} // namespace anic::core
