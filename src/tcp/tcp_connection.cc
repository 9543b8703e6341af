#include "tcp/tcp_connection.hh"

#include "tcp/tcp_stack.hh"
#include "util/panic.hh"

namespace anic::tcp {

using net::kTcpAck;
using net::kTcpCwr;
using net::kTcpEce;
using net::kTcpFin;
using net::kTcpPsh;
using net::kTcpSyn;

void
TcpConnection::count(sim::Counter TcpStats::*m, uint64_t n)
{
    (stats_.*m) += n;
    (stack_.agg_.*m) += n;
}

// -------------------------------------------------------------- SendQueue

size_t
SendQueue::push(const SharedBytes &msg, size_t off)
{
    ANIC_ASSERT(off <= msg->size());
    size_t n = std::min(space(), msg->size() - off);
    if (n > 0) {
        q_.push_back(Piece{msg, static_cast<uint32_t>(off),
                           static_cast<uint32_t>(n)});
        size_ += static_cast<uint32_t>(n);
    }
    return n;
}

size_t
SendQueue::pushCopy(ByteView data)
{
    size_t n = std::min(space(), data.size());
    for (size_t done = 0; done < n;) {
        ByteView part = data.subspan(done, std::min(n - done, kMaxCopyPiece));
        done += push(std::make_shared<const Bytes>(part.begin(), part.end()),
                     0);
    }
    return n;
}

void
SendQueue::gather(size_t relOff, ByteSpan out)
{
    ANIC_ASSERT(relOff + out.size() <= size_, "gather beyond queued data");
    if (out.empty())
        return;
    if (relOff < curStart_) {
        curIdx_ = 0;
        curStart_ = 0;
    }
    while (relOff >= curStart_ + q_[curIdx_].len)
        curStart_ += q_[curIdx_++].len;
    size_t pos = relOff - curStart_;
    for (size_t i = curIdx_, done = 0; done < out.size(); i++, pos = 0) {
        const Piece &p = q_[i];
        size_t n = std::min<size_t>(p.len - pos, out.size() - done);
        std::memcpy(out.data() + done, p.buf->data() + p.off + pos, n);
        done += n;
    }
}

void
SendQueue::popFront(size_t n)
{
    ANIC_ASSERT(n <= size_);
    size_ -= static_cast<uint32_t>(n);
    size_t popped = 0; // pieces released
    for (size_t left = n; left > 0;) {
        Piece &p = q_.front();
        if (left < p.len) {
            p.off += static_cast<uint32_t>(left);
            p.len -= static_cast<uint32_t>(left);
            break;
        }
        left -= p.len;
        q_.pop_front();
        popped++;
    }
    if (curIdx_ < popped) {
        curIdx_ = 0;
        curStart_ = 0;
    } else {
        curIdx_ -= popped;
        curStart_ = curIdx_ == 0 ? 0 : curStart_ - static_cast<uint32_t>(n);
    }
}

// --------------------------------------------------------- helper: meta

namespace {

/** Adjusts placement metadata after trimming @p trim payload bytes
 *  from the front and keeping @p keep bytes. */
net::RxOffloadMeta
trimMeta(const net::RxOffloadMeta &meta, size_t trim, size_t keep)
{
    net::RxOffloadMeta out = meta;
    out.placed.clear();
    for (const net::PlacedRange &r : meta.placed) {
        uint64_t start = std::max<uint64_t>(r.payloadOff, trim);
        uint64_t end = std::min<uint64_t>(r.payloadOff + r.len, trim + keep);
        if (start < end) {
            out.placed.push_back(net::PlacedRange{
                static_cast<uint32_t>(start - trim),
                static_cast<uint32_t>(end - start)});
        }
    }
    return out;
}

} // namespace

// ----------------------------------------------------------- TcpConnection

TcpConnection::TcpConnection(TcpStack &stack, host::Core &core,
                             const Config &cfg, net::FlowKey local,
                             uint32_t iss)
    : stack_(stack),
      core_(core),
      cfg_(cfg),
      local_(local),
      sndQueue_(cfg.sndBufSize),
      iss_(iss),
      sndUna_(iss),
      sndNxt_(iss),
      cc_(makeCongestionControl(
          cfg.cc, CcConfig{cfg.mss, cfg.initialCwndSegs, cfg.maxCwndSegs})),
      rto_(cfg.initialRto)
{
    lastAdvertisedWnd_ = static_cast<uint32_t>(cfg_.rcvBufSize);
    ecnWanted_ = cfg_.ecn || cc_->algo() == CcAlgo::Dctcp;
}

uint32_t
TcpConnection::sndLimit() const
{
    uint32_t wnd = std::min(cc_->cwnd(), peerWnd_);
    // Zero-window deadlock avoidance: allow a 1-byte probe when
    // nothing is in flight.
    if (wnd == 0 && flightSize() == 0)
        wnd = 1;
    return wnd;
}

bool
TcpConnection::sendOpen() const
{
    if (state_ != State::Established && state_ != State::CloseWait)
        return false;
    ANIC_ASSERT(!finQueued_, "send() after close()");
    return true;
}

size_t
TcpConnection::queued(size_t n)
{
    bytesAccepted_ += n;
    size_t threshold = std::max<size_t>(cfg_.mss, cfg_.sndBufSize / 3);
    writableSignaled_ = sndQueue_.space() >= threshold;
    if (n > 0)
        trySend();
    return n;
}

size_t
TcpConnection::send(ByteView data)
{
    return sendOpen() ? queued(sndQueue_.pushCopy(data)) : 0;
}

size_t
TcpConnection::sendShared(const SharedBytes &msg, size_t off)
{
    return sendOpen() ? queued(sndQueue_.push(msg, off)) : 0;
}

RxSegment
TcpConnection::pop()
{
    ANIC_ASSERT(!rxQueue_.empty(), "pop() on empty receive queue");
    RxSegment seg = std::move(rxQueue_.front());
    rxQueue_.pop_front();
    rxQueuedBytes_ -= seg.data.size();

    // Window update: if the advertised window grew substantially
    // since we last told the peer, send an ACK so it can resume.
    uint64_t queued = rxQueuedBytes_ + oooBytes_;
    uint32_t wnd = queued >= cfg_.rcvBufSize
                       ? 0
                       : static_cast<uint32_t>(cfg_.rcvBufSize - queued);
    if (state_ != State::Closed && wnd > lastAdvertisedWnd_ &&
        wnd - lastAdvertisedWnd_ >= 2 * cfg_.mss &&
        static_cast<uint64_t>(wnd - lastAdvertisedWnd_) >=
            cfg_.rcvBufSize / 4) {
        sendAck();
    }
    return seg;
}

void
TcpConnection::close()
{
    if (finQueued_ || state_ == State::Closed)
        return;
    finQueued_ = true;
    trySend();
}

uint8_t
TcpConnection::synFlags() const
{
    // RFC 3168 ECN-setup SYN: ECE and CWR both set.
    return kTcpSyn | (ecnWanted_ ? (kTcpEce | kTcpCwr) : 0);
}

uint8_t
TcpConnection::synAckFlags() const
{
    // RFC 3168 ECN-setup SYN-ACK: ECE only (once negotiated).
    return kTcpSyn | kTcpAck | (ecnEnabled_ ? kTcpEce : 0);
}

void
TcpConnection::startConnect()
{
    ANIC_ASSERT(state_ == State::Closed);
    state_ = State::SynSent;
    sendFlagsPacket(synFlags(), iss_, false);
    sndNxt_ = iss_ + 1;
    armRto();
}

void
TcpConnection::startAccept(uint32_t irs, uint8_t peerSynFlags)
{
    ANIC_ASSERT(state_ == State::Closed);
    irs_ = irs;
    rcvNxt_ = irs + 1;
    state_ = State::SynRcvd;
    // ECN-setup SYN has both ECE and CWR; anything else (including a
    // plain SYN from a non-ECN peer) leaves the connection non-ECT.
    ecnEnabled_ = ecnWanted_ && (peerSynFlags & kTcpEce) != 0 &&
                  (peerSynFlags & kTcpCwr) != 0;
    sendFlagsPacket(synAckFlags(), iss_, true);
    sndNxt_ = iss_ + 1;
    armRto();
}

void
TcpConnection::enterEstablished()
{
    state_ = State::Established;
    cc_->onEstablished();
    cancelRto();
    if (onConnected_)
        onConnected_();
}

void
TcpConnection::onPacket(const net::PacketPtr &pkt)
{
    const net::TcpHeader h = pkt->tcp();
    core_.charge(pkt->payloadSize() > 0 ? core_.model().tcpRxPerPacket
                                        : core_.model().tcpAckRxPerPacket);

    switch (state_) {
      case State::Closed:
        return;
      case State::SynSent:
        if ((h.flags & (kTcpSyn | kTcpAck)) == (kTcpSyn | kTcpAck) &&
            h.ack == iss_ + 1) {
            irs_ = h.seq;
            rcvNxt_ = h.seq + 1;
            sndUna_ = h.ack;
            peerWnd_ = h.window;
            // ECN-setup SYN-ACK carries ECE without CWR; a peer that
            // echoes neither (or both) did not negotiate ECN.
            ecnEnabled_ = ecnWanted_ && (h.flags & kTcpEce) != 0 &&
                          (h.flags & kTcpCwr) == 0;
            enterEstablished();
            sendAck();
        }
        return;
      case State::SynRcvd:
        if ((h.flags & kTcpSyn) && !(h.flags & kTcpAck)) {
            // Duplicate SYN: our SYN-ACK was lost; resend.
            sendFlagsPacket(synAckFlags(), iss_, true);
            return;
        }
        if ((h.flags & kTcpAck) && h.ack == iss_ + 1) {
            sndUna_ = h.ack;
            peerWnd_ = h.window;
            enterEstablished();
            // May carry data already; fall through to data handling.
            if (pkt->payloadSize() > 0 || (h.flags & kTcpFin))
                processData(pkt, h);
        }
        return;
      default:
        break;
    }

    // A SYN in a synchronized state is the peer retransmitting its
    // SYN-ACK: our handshake ACK was lost. RFC 793 requires any such
    // unacceptable segment to elicit an empty ACK — without it a
    // connection that never sends data (so nothing else carries an
    // ACK) leaves the peer stuck in SYN-RCVD forever.
    if (h.flags & kTcpSyn) {
        sendAck();
        return;
    }

    if (h.flags & kTcpAck)
        processAck(h);
    if (pkt->payloadSize() > 0 || (h.flags & kTcpFin))
        processData(pkt, h);
}

void
TcpConnection::processAck(const net::TcpHeader &h)
{
    uint32_t ack = h.ack;
    peerWnd_ = h.window;

    if (seqGt(ack, sndNxt_))
        return; // acks data we never sent

    bool ece = ecnEnabled_ && (h.flags & kTcpEce) != 0;

    if (seqGt(ack, sndUna_)) {
        uint32_t acked = seqDiff(ack, sndUna_);
        count(&TcpStats::acksRcvd);
        if (ece)
            count(&TcpStats::ecnEchoesRcvd);

        if (rttPending_ && seqGeq(ack, rttSeq_)) {
            rttSample(stack_.sim().now() - rttSentAt_);
            rttPending_ = false;
        }

        // The FIN, if sent and covered by this ack, consumed one
        // sequence number that has no queued bytes behind it.
        uint32_t dataAcked = acked;
        bool finAcked = finSent_ && ack == sndNxt_;
        if (finAcked && dataAcked > 0)
            dataAcked--;
        dataAcked = std::min<uint32_t>(dataAcked, sndQueue_.size());
        sndQueue_.popFront(dataAcked);
        sndUna_ = ack;
        rtoBackoff_ = 0;
        dupAcks_ = 0;
        if (rtoEpisode_ && seqGeq(ack, rtoRecover_))
            rtoEpisode_ = false; // loss episode fully recovered

        CongestionControl::AckEvent ev;
        ev.acked = acked;
        ev.flight = flightSize();
        ev.ackSeq = ack;
        ev.sndNxt = sndNxt_;
        ev.ecnEcho = ece;
        ev.now = stack_.sim().now();
        ev.srtt = srtt_;
        if (cc_->onAcked(ev)) {
            // DCTCP reduced in-band: announce with CWR on next data.
            cwrPending_ = true;
            noteCwndReduction();
        }

        if (inRecovery_) {
            if (seqGeq(ack, recover_)) {
                inRecovery_ = false;
                cc_->onExitRecovery();
            } else {
                // NewReno partial ack: retransmit the next hole.
                uint32_t len = std::min<uint32_t>(
                    cfg_.mss, std::min<uint32_t>(flightSize(),
                                                 sndQueue_.size()));
                if (len > 0) {
                    sendSegment(sndUna_, len, true);
                }
            }
        } else if (ece && !cc_->perAckEcnEcho() &&
                   (!ecnRespValid_ || seqGeq(ack, ecnRespSeq_))) {
            // Classic RFC 3168 reaction: at most once per window of
            // data, and recovery already covers the reduction.
            cc_->onEcnEcho();
            ecnRespValid_ = true;
            ecnRespSeq_ = sndNxt_;
            cwrPending_ = true;
            noteCwndReduction();
        }

        if (flightSize() == 0)
            cancelRto();
        else
            armRto();

        if (onAcked_)
            onAcked_(sndUna_);

        if (finAcked) {
            if (state_ == State::FinWait1)
                state_ = State::FinWait2;
            else if (state_ == State::LastAck || state_ == State::Closing)
                state_ = State::Closed;
        }

        // Low-water-mark wakeups (like tcp_poll's 1/3-free rule):
        // waking the writer on every ack would make it dribble tiny
        // sends with full per-call overhead.
        size_t threshold = std::max<size_t>(cfg_.mss, cfg_.sndBufSize / 3);
        bool above = sndQueue_.space() >= threshold;
        if (onWritable_ && above && !writableSignaled_) {
            writableSignaled_ = true;
            onWritable_();
        }
    } else if (ack == sndUna_ && flightSize() > 0 &&
               (h.flags & ~(kTcpEce | kTcpCwr)) == kTcpAck) {
        // Potential duplicate ACK (no data, no SYN/FIN; ECN echo bits
        // don't disqualify — DCTCP receivers set ECE on dup acks too).
        dupAcks_++;
        count(&TcpStats::dupAcksRcvd);
        if (dupAcks_ == 3 && !inRecovery_) {
            enterFastRecovery();
        } else if (inRecovery_) {
            cc_->onDupAck(); // inflation during recovery
        }
    }

    trySend();
}

void
TcpConnection::enterFastRecovery()
{
    cc_->onEnterRecovery(flightSize());
    inRecovery_ = true;
    recover_ = sndNxt_;
    count(&TcpStats::fastRetransmits);
    stack_.sampleCongestion(cc_->cwnd(), cc_->ssthresh(), cfg_.mss);
    uint32_t len = std::min<uint32_t>(
        cfg_.mss, std::min<uint32_t>(flightSize(), sndQueue_.size()));
    if (len > 0)
        sendSegment(sndUna_, len, true);
    else if (finSent_)
        sendFlagsPacket(kTcpFin | kTcpAck, sndNxt_ - 1, true);
}

void
TcpConnection::noteCwndReduction()
{
    count(&TcpStats::ecnCwndReductions);
    stack_.sampleCongestion(cc_->cwnd(), cc_->ssthresh(), cfg_.mss);
}

void
TcpConnection::rttSample(sim::Tick sample)
{
    if (srtt_ == 0) {
        srtt_ = sample;
        rttvar_ = sample / 2;
    } else {
        sim::Tick err = srtt_ > sample ? srtt_ - sample : sample - srtt_;
        rttvar_ = (3 * rttvar_ + err) / 4;
        srtt_ = (7 * srtt_ + sample) / 8;
    }
    sim::Tick rto = srtt_ + std::max<sim::Tick>(4 * rttvar_,
                                                sim::kMillisecond / 4);
    rto_ = std::clamp(rto, cfg_.minRto, cfg_.maxRto);
}

void
TcpConnection::trySend()
{
    if (state_ != State::Established && state_ != State::CloseWait &&
        state_ != State::FinWait1 && state_ != State::LastAck) {
        return;
    }
    if (devBlocked_)
        return;

    for (;;) {
        uint32_t limit = sndLimit();
        uint32_t flight = flightSize();
        uint32_t data_end = sndUna_ + static_cast<uint32_t>(sndQueue_.size());
        uint32_t unsent = seqGt(data_end, sndNxt_) ? seqDiff(data_end, sndNxt_)
                                                   : 0;
        // Retransmitted FIN occupies flight but is past queued data.
        if (finSent_)
            unsent = 0;
        if (unsent == 0)
            break;
        if (flight >= limit)
            break;
        uint32_t len = std::min({unsent, cfg_.mss, limit - flight});
        if (len == 0)
            break;
        if (!sendSegment(sndNxt_, len, false))
            return; // device full; redriven via onDeviceWritable
        sndNxt_ += len;
        count(&TcpStats::bytesSent, len);
    }

    // Send FIN once all data has been transmitted at least once.
    if (finQueued_ && !finSent_ &&
        sndNxt_ == sndUna_ + static_cast<uint32_t>(sndQueue_.size())) {
        sendFlagsPacket(kTcpFin | kTcpAck, sndNxt_, true);
        sndNxt_ += 1;
        finSent_ = true;
        if (state_ == State::Established)
            state_ = State::FinWait1;
        else if (state_ == State::CloseWait)
            state_ = State::LastAck;
    }

    if (flightSize() > 0 && !rtoArmed_)
        armRto();
}

uint8_t
TcpConnection::ecnAckFlags(bool dataSegment) const
{
    if (!ecnEnabled_)
        return 0;
    uint8_t f = 0;
    bool echo = cc_->perAckEcnEcho() ? ecnCeSinceAck_ : ecnEceLatched_;
    if (echo)
        f |= kTcpEce;
    if (dataSegment && cwrPending_)
        f |= kTcpCwr;
    return f;
}

void
TcpConnection::ecnEchoSent(bool dataSegment)
{
    if (!ecnEnabled_)
        return;
    ecnCeSinceAck_ = false; // this ack conveyed the CE state
    if (dataSegment && cwrPending_)
        cwrPending_ = false;
}

bool
TcpConnection::sendSegment(uint32_t seq, uint32_t len, bool retransmission)
{
    net::Ipv4Header ip;
    ip.src = local_.srcIp;
    ip.dst = local_.dstIp;
    if (ecnEnabled_)
        ip.tos = net::kEcnEct0; // data segments are ECN-capable

    net::TcpHeader th;
    th.srcPort = local_.srcPort;
    th.dstPort = local_.dstPort;
    th.seq = seq;
    th.ack = rcvNxt_;
    th.flags = kTcpAck | ecnAckFlags(true);
    uint32_t data_end = sndUna_ + static_cast<uint32_t>(sndQueue_.size());
    if (seq + len == data_end)
        th.flags |= kTcpPsh;
    uint64_t queued = rxQueuedBytes_ + oooBytes_;
    th.window = queued >= cfg_.rcvBufSize
                    ? 0
                    : static_cast<uint32_t>(cfg_.rcvBufSize - queued);

    // Pooled packet, payload gathered straight from the queued pieces
    // into the wire buffer (no intermediate allocation).
    net::PacketPtr pkt = stack_.pool().makeTcp(ip, th, len);
    sndQueue_.gather(seqDiff(seq, sndUna_), pkt->payloadMut());
    pkt->txCtx = txOffloadCtx_;

    core_.charge(core_.model().tcpTxPerPacket);
    if (!stack_.output(*this, pkt)) {
        devBlocked_ = true;
        return false;
    }
    count(&TcpStats::dataPktsSent);
    if (retransmission) {
        count(&TcpStats::retransmits);
        const std::string &prefix = stack_.scope_.prefix();
        stack_.trace_->record(stack_.sim().now(), sim::TraceKind::Retransmit,
                              prefix.empty() ? std::string_view("tcp")
                                             : std::string_view(prefix),
                              net::FlowKeyHash{}(local_), seq, len);
    } else if (!rttPending_) {
        rttSeq_ = seq + len;
        rttSentAt_ = stack_.sim().now();
        rttPending_ = true;
    }
    // This segment carried an up-to-date ack.
    unackedDataPkts_ = 0;
    lastAdvertisedWnd_ = th.window;
    ecnEchoSent(true);
    return true;
}

void
TcpConnection::sendFlagsPacket(uint8_t flags, uint32_t seq, bool withAck)
{
    net::Ipv4Header ip;
    ip.src = local_.srcIp;
    ip.dst = local_.dstIp;

    net::TcpHeader th;
    th.srcPort = local_.srcPort;
    th.dstPort = local_.dstPort;
    th.seq = seq;
    th.ack = withAck ? rcvNxt_ : 0;
    th.flags = flags | (withAck ? kTcpAck : 0);
    // Pure acks echo CE state (never CWR: that rides on data only),
    // but the handshake packets carry exactly their negotiated bits.
    if (withAck && !(flags & kTcpSyn))
        th.flags |= ecnAckFlags(false);
    uint64_t queued = rxQueuedBytes_ + oooBytes_;
    th.window = queued >= cfg_.rcvBufSize
                    ? 0
                    : static_cast<uint32_t>(cfg_.rcvBufSize - queued);

    net::PacketPtr pkt = stack_.pool().makeTcp(ip, th, 0);
    pkt->txCtx = txOffloadCtx_;

    core_.charge(core_.model().tcpTxPerPacket);
    stack_.output(*this, pkt); // control packets ignore backpressure
    if (withAck) {
        count(&TcpStats::acksSent);
        unackedDataPkts_ = 0;
        lastAdvertisedWnd_ = th.window;
        if (!(flags & kTcpSyn))
            ecnEchoSent(false);
    }
}

void
TcpConnection::sendAck()
{
    sendFlagsPacket(kTcpAck, sndNxt_, true);
}

template <typename Fire>
void
TcpConnection::atTime(sim::Tick when, Fire fire)
{
    TcpStack *stack = &stack_;
    host::Core *core = &core_;
    util::SlabHandle self = self_;
    stack_.sim().scheduleAt(when, [stack, core, self, fire] {
        core->post([stack, self, fire] {
            if (TcpConnection *c = stack->connection(self))
                fire(*c);
        });
    });
}

void
TcpConnection::scheduleDelayedAck()
{
    if (delayedAckScheduled_)
        return;
    delayedAckScheduled_ = true;
    uint64_t gen = ++delAckGeneration_;
    atTime(stack_.sim().now() + cfg_.delayedAckTimeout,
           [gen](TcpConnection &c) {
               if (gen != c.delAckGeneration_)
                   return;
               c.delayedAckScheduled_ = false;
               if (c.unackedDataPkts_ > 0)
                   c.sendAck();
           });
}

void
TcpConnection::armRto()
{
    // Lazy re-arm: every ack would otherwise schedule a fresh event,
    // leaving millions of stale closures in the event queue at high
    // ack rates. Instead keep at most one outstanding event per
    // connection and push the deadline forward; the event re-posts
    // itself if it fires early.
    sim::Tick timeout = rto_ << std::min(rtoBackoff_, 6);
    rtoDeadline_ = stack_.sim().now() + timeout;
    if (rtoArmed_)
        return;
    rtoArmed_ = true;
    uint64_t gen = ++rtoGeneration_;
    atTime(rtoDeadline_, [gen](TcpConnection &c) { c.onRtoFire(gen); });
}

void
TcpConnection::cancelRto()
{
    rtoGeneration_++;
    rtoArmed_ = false;
}

void
TcpConnection::onRtoFire(uint64_t generation)
{
    if (generation != rtoGeneration_)
        return;
    rtoArmed_ = false;
    if (stack_.sim().now() < rtoDeadline_) {
        // The deadline moved (acks arrived): re-arm for the rest.
        rtoArmed_ = true;
        uint64_t gen = ++rtoGeneration_;
        atTime(rtoDeadline_, [gen](TcpConnection &c) { c.onRtoFire(gen); });
        return;
    }

    if (state_ == State::SynSent) {
        count(&TcpStats::rtoFires);
        rtoBackoff_++;
        sendFlagsPacket(synFlags(), iss_, false);
        armRto();
        return;
    }
    if (state_ == State::SynRcvd) {
        count(&TcpStats::rtoFires);
        rtoBackoff_++;
        sendFlagsPacket(synAckFlags(), iss_, true);
        armRto();
        return;
    }
    if (flightSize() == 0)
        return;

    count(&TcpStats::rtoFires);
    // ssthresh is recomputed only on the first fire of a loss episode.
    // Repeat backoffs (or fires after partial progress within the
    // episode) used to recompute it from a flight the episode itself
    // had collapsed, spiraling ssthresh to its floor.
    bool newEpisode = !rtoEpisode_;
    if (newEpisode) {
        rtoEpisode_ = true;
        rtoRecover_ = sndNxt_;
    }
    cc_->onRto(flightSize(), newEpisode);
    if (newEpisode)
        stack_.sampleCongestion(cc_->cwnd(), cc_->ssthresh(), cfg_.mss);
    inRecovery_ = false;
    dupAcks_ = 0;
    rttPending_ = false; // Karn: don't sample retransmitted segments
    rtoBackoff_++;

    uint32_t len = std::min<uint32_t>(
        cfg_.mss, std::min<uint32_t>(flightSize(), sndQueue_.size()));
    if (len > 0)
        sendSegment(sndUna_, len, true);
    else if (finSent_)
        sendFlagsPacket(kTcpFin | kTcpAck, sndNxt_ - 1, true);
    armRto();
}

void
TcpConnection::processData(const net::PacketPtr &pkt, const net::TcpHeader &h)
{
    ByteView payload = pkt->payload();
    bool fin = (h.flags & kTcpFin) != 0;
    if (!payload.empty())
        count(&TcpStats::dataPktsRcvd);

    // CE is only meaningful on segments that occupy sequence space;
    // a broken peer reflecting ECT/CE onto pure acks never reaches
    // here, so it cannot fake congestion signals.
    if (ecnEnabled_) {
        if (h.flags & kTcpCwr)
            ecnEceLatched_ = false; // peer reduced; stop the echo
        if ((pkt->ip().tos & net::kEcnMask) == net::kEcnCe) {
            count(&TcpStats::ecnCeRcvd);
            if (cc_->perAckEcnEcho())
                ecnCeSinceAck_ = true;
            else
                ecnEceLatched_ = true;
        }
    }

    int64_t delta = static_cast<int32_t>(h.seq - rcvNxt_);
    int64_t end_delta = delta + static_cast<int64_t>(payload.size());

    if (end_delta + (fin ? 1 : 0) <= 0) {
        // Entirely in the past: duplicate. Ack immediately so the
        // sender sees progress.
        sendAck();
        return;
    }

    if (delta > 0) {
        // Out of order: buffer, duplicate-ack immediately.
        count(&TcpStats::oooPktsRcvd);
        uint64_t pos = rcvStreamOff_ + static_cast<uint64_t>(delta);
        if (oooBytes_ + payload.size() <= cfg_.rcvBufSize) {
            auto it = ooo_.find(pos);
            if (it == ooo_.end() || it->second.data.size() < payload.size()) {
                OooSegment seg;
                seg.data.bind(pkt, payload);
                seg.meta = pkt->rx;
                seg.fin = fin;
                if (it != ooo_.end()) {
                    oooBytes_ -= it->second.data.size();
                    ooo_.erase(it);
                }
                oooBytes_ += seg.data.size();
                ooo_.emplace(pos, std::move(seg));
            }
        }
        sendAck();
        return;
    }

    // In order (possibly with a stale-front overlap to trim). The
    // fast path hands the application a view into the packet's own
    // payload — the pooled packet stays pinned until the segment is
    // consumed, and no bytes are copied.
    size_t trim = static_cast<size_t>(-delta);
    size_t keep = payload.size() - trim;
    net::RxOffloadMeta meta = trimMeta(pkt->rx, trim, keep);
    SegmentBuffer buf;
    buf.bind(pkt, payload.subspan(trim, keep));
    deliverSegment(h.seq + static_cast<uint32_t>(trim), std::move(buf),
                   std::move(meta), fin);
    drainOoo();

    if (peerFinSeen_)
        handleFin();

    unackedDataPkts_++;
    bool have_gap = !ooo_.empty();
    if (unackedDataPkts_ >= 2 || fin || have_gap || peerFinSeen_)
        sendAck();
    else
        scheduleDelayedAck();

    if (onReadable_ && readable())
        onReadable_();
}

void
TcpConnection::deliverSegment(uint32_t seq, SegmentBuffer data,
                              net::RxOffloadMeta meta, bool fin)
{
    ANIC_ASSERT(seq == rcvNxt_, "deliver must be in order");
    if (!data.empty()) {
        size_t len = data.size();
        RxSegment seg;
        seg.streamOff = rcvStreamOff_;
        seg.data = std::move(data);
        seg.meta = std::move(meta);
        rxQueuedBytes_ += len;
        rxQueue_.push_back(std::move(seg));
        rcvStreamOff_ += len;
        rcvNxt_ += static_cast<uint32_t>(len);
        count(&TcpStats::bytesDelivered, len);
    }
    if (fin) {
        rcvNxt_ += 1;
        peerFinSeen_ = true;
    }
}

void
TcpConnection::drainOoo()
{
    while (!ooo_.empty()) {
        auto it = ooo_.begin();
        uint64_t pos = it->first;
        OooSegment &seg = it->second;
        uint64_t end = pos + seg.data.size();
        if (pos > rcvStreamOff_)
            break; // still a gap
        oooBytes_ -= seg.data.size();
        if (end > rcvStreamOff_ || (seg.fin && end == rcvStreamOff_)) {
            size_t trim = static_cast<size_t>(rcvStreamOff_ - pos);
            size_t keep = seg.data.size() - trim;
            net::RxOffloadMeta meta = trimMeta(seg.meta, trim, keep);
            SegmentBuffer buf = std::move(seg.data);
            buf.dropFront(trim);
            deliverSegment(rcvNxt_, std::move(buf), std::move(meta),
                           seg.fin);
        }
        ooo_.erase(it);
    }
}

void
TcpConnection::handleFin()
{
    switch (state_) {
      case State::Established:
        state_ = State::CloseWait;
        break;
      case State::FinWait1:
        state_ = State::Closing;
        break;
      case State::FinWait2:
        state_ = State::Closed; // TIME_WAIT elided in simulation
        break;
      default:
        break;
    }
    peerFinSeen_ = false; // handled
    if (onPeerClosed_)
        onPeerClosed_();
}

void
TcpConnection::onDeviceWritable()
{
    if (!devBlocked_)
        return;
    devBlocked_ = false;
    trySend();
}

} // namespace anic::tcp
