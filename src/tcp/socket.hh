/**
 * @file
 * Stream socket abstraction shared by plain TCP and kTLS sockets, so
 * L5Ps (NVMe-TCP) and applications can run over either — which is how
 * the NVMe-TLS composition works.
 *
 * Unlike a POSIX byte-stream recv(), receive hands out *segments*
 * that preserve per-packet NIC offload metadata; the paper's design
 * depends on L5P software seeing which packets the NIC processed
 * ("the L5P software reads L5P messages handed to it by TCP
 * packet-by-packet").
 */

#ifndef ANIC_TCP_SOCKET_HH
#define ANIC_TCP_SOCKET_HH

#include <functional>

#include "net/packet.hh"
#include "util/bytes.hh"

namespace anic::host {
class Core;
}

namespace anic::tcp {

/**
 * Byte storage for an RxSegment. As TCP delivers it, in order or
 * from its out-of-order queue, it is a zero-copy view into the
 * arriving packet's payload, pinning the pooled packet alive for as
 * long as the segment exists; transformed data (software TLS
 * decrypt) owns its bytes instead. The read interface mimics a const
 * byte vector so consumers are agnostic to which mode backs the data.
 */
class SegmentBuffer
{
  public:
    SegmentBuffer() = default;

    /** Zero-copy: view @p v inside @p pkt's payload, pinning it. */
    void
    bind(net::PacketPtr pkt, ByteView v)
    {
        pkt_ = std::move(pkt);
        owned_.clear();
        view_ = v;
    }

    /** Owning copy of @p v. */
    void
    assign(ByteView v)
    {
        owned_.assign(v.begin(), v.end());
        pkt_.reset();
        view_ = owned_;
    }

    /** Drops the first @p n bytes from the view. */
    void
    dropFront(size_t n)
    {
        view_ = view_.subspan(n);
    }

    // Copies deep-copy owned bytes so the view never dangles; moves
    // are cheap (vector storage is stable across moves).
    SegmentBuffer(const SegmentBuffer &o) { *this = o; }

    SegmentBuffer &
    operator=(const SegmentBuffer &o)
    {
        if (this == &o)
            return *this;
        if (o.pkt_ != nullptr) {
            pkt_ = o.pkt_;
            owned_.clear();
            view_ = o.view_;
        } else {
            owned_.assign(o.view_.begin(), o.view_.end());
            pkt_.reset();
            view_ = owned_;
        }
        return *this;
    }

    SegmentBuffer(SegmentBuffer &&) = default;
    SegmentBuffer &operator=(SegmentBuffer &&) = default;

    const uint8_t *data() const { return view_.data(); }
    size_t size() const { return view_.size(); }
    bool empty() const { return view_.empty(); }
    const uint8_t *begin() const { return view_.data(); }
    const uint8_t *end() const { return view_.data() + view_.size(); }
    uint8_t operator[](size_t i) const { return view_[i]; }
    operator ByteView() const { return view_; }

    /** The packet pinned by a zero-copy view (null when owning). */
    const net::PacketPtr &backingPacket() const { return pkt_; }

  private:
    net::PacketPtr pkt_;
    ByteView view_;
    Bytes owned_;
};

/**
 * One in-order chunk of received stream data, carrying the NIC
 * offload results of the packet it arrived in. Segments with
 * different offload results are never coalesced.
 */
struct RxSegment
{
    uint64_t streamOff = 0; ///< offset in the connection byte stream
    SegmentBuffer data;
    net::RxOffloadMeta meta;
};

/** Reliable byte stream with per-segment offload metadata. */
class StreamSocket
{
  public:
    virtual ~StreamSocket() = default;

    /**
     * Appends up to data.size() bytes to the send stream; returns how
     * many were accepted (0 when the send buffer is full).
     */
    virtual size_t send(ByteView data) = 0;

    /**
     * send() of @p msg from @p off, for a message its sender keeps
     * unchanged until it is acked (an L5P message): a transport that
     * holds unacked bytes may hold a reference to @p msg instead of a
     * copy. The default copies.
     */
    virtual size_t
    sendShared(const SharedBytes &msg, size_t off)
    {
        return send(ByteView(*msg).subspan(off));
    }

    /** Free space in the send buffer. */
    virtual size_t sendSpace() const = 0;

    /** Invoked when sendSpace() becomes nonzero again. */
    virtual void setOnWritable(std::function<void()> cb) = 0;

    /** True if an in-order segment is available. */
    virtual bool readable() const = 0;

    /** Pops the next in-order segment; readable() must be true. */
    virtual RxSegment pop() = 0;

    /** Invoked when data becomes readable. */
    virtual void setOnReadable(std::function<void()> cb) = 0;

    /** Invoked when the peer closed its direction (FIN). */
    virtual void setOnPeerClosed(std::function<void()> cb) = 0;

    /** Graceful close of the send direction. */
    virtual void close() = 0;

    /** The core this connection's processing is steered to. */
    virtual host::Core &core() = 0;
};

} // namespace anic::tcp

#endif // ANIC_TCP_SOCKET_HH
