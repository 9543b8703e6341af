#include "nic/stream_fsm.hh"

#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "util/env.hh"
#include "util/panic.hh"

namespace anic::nic {

namespace {

/**
 * Mutation-testing hook: ANIC_FSM_BUG=<name> deliberately mis-wires
 * one FSM decision so the fuzz harness can prove it detects real
 * bugs (the "mutation smoke check"). Never set in production runs.
 *
 *  - confirm_off_by_one: adopt a confirmed speculation with the wrong
 *    message index (crypto state one record ahead of the stream).
 *  - skip_confirm: treat a software *refutation* as a confirmation —
 *    i.e. the NIC stops honoring the resync handshake.
 */
enum class FsmBug
{
    None,
    ConfirmOffByOne,
    SkipConfirm,
};

FsmBug
fsmBug()
{
    static const FsmBug bug = [] {
        const std::string &e = util::Env::fsmBug();
        if (e == "confirm_off_by_one")
            return FsmBug::ConfirmOffByOne;
        if (e == "skip_confirm")
            return FsmBug::SkipConfirm;
        return FsmBug::None;
    }();
    return bug;
}

} // namespace

const char *
fsmStateName(FsmState s)
{
    switch (s) {
      case FsmState::Offloading:
        return "offloading";
      case FsmState::Searching:
        return "searching";
      case FsmState::Tracking:
        return "tracking";
    }
    return "?";
}

StreamFsm::StreamFsm(
    L5Engine &engine,
    std::function<void(uint64_t reqId, uint64_t pos)> requestResync)
    : engine_(engine), requestResync_(std::move(requestResync))
{
}

void
StreamFsm::setHooks(FsmHooks hooks)
{
    hooks_ = std::move(hooks);
    if (hooks_.now)
        stateEnterTick_ = hooks_.now();
}

void
StreamFsm::toState(FsmState next)
{
    if (next == state_)
        return;
    if (hooks_.probe != nullptr)
        hooks_.probe->onTransition(hooks_.traceId, state_, next);
    if (hooks_.now) {
        sim::Tick now = hooks_.now();
        if (auto *d = hooks_.dwellNs[static_cast<int>(state_)])
            d->add(static_cast<double>(now - stateEnterTick_) /
                   sim::kNanosecond);
        stateEnterTick_ = now;
    }
    traceEvent(sim::TraceKind::FsmTransition, static_cast<uint64_t>(state_),
               static_cast<uint64_t>(next));
    state_ = next;
}

void
StreamFsm::bump(sim::Counter FsmStats::*m, uint64_t n)
{
    (stats_.*m) += n;
    if (hooks_.aggregate != nullptr)
        ((*hooks_.aggregate).*m) += n;
}

void
StreamFsm::traceEvent(sim::TraceKind kind, uint64_t a, uint64_t b)
{
    if (hooks_.trace == nullptr)
        return;
    hooks_.trace->record(hooks_.now ? hooks_.now() : 0, kind, hooks_.name,
                         hooks_.traceId, a, b);
}

void
StreamFsm::reset(uint64_t pos, uint64_t msgIdx)
{
    toState(FsmState::Offloading);
    expected_ = pos;
    msgStart_ = pos;
    msgIdx_ = msgIdx;
    hdrBuf_.clear();
    hdrComplete_ = false;
    msgLen_ = 0;
    inMsgOff_ = 0;
    covered_ = true;
    skipMode_ = false;
    msgActive_ = false;
    contValid_ = false;
    searchCarry_.clear();
    trackHdrBuf_.clear();
    pendingReqId_ = 0;
    haveConfirm_ = false;
}

bool
StreamFsm::segment(uint64_t pos, ByteSpan data, PacketResult &res)
{
    if (data.empty())
        return false;
    FsmState pre = state_;
    uint64_t preExpected = expected_;
    bool processed = segmentImpl(pos, data, res);
    if (hooks_.probe != nullptr)
        hooks_.probe->onSegment(hooks_.traceId, pre, pos, preExpected,
                                data.size(), processed);
    return processed;
}

void
StreamFsm::replay(uint64_t pos, ByteView prefix)
{
    ANIC_ASSERT(state_ == FsmState::Offloading && !skipMode_ &&
                    pos == msgStart_ && pos == expected_ && inMsgOff_ == 0,
                "tx replay at %llu, not where reset() armed a message",
                static_cast<unsigned long long>(pos));
    if (prefix.empty())
        return;
    PacketResult res;
    bool processed = processSpan(pos, prefix, res);
    ANIC_ASSERT(msgStart_ == pos && inMsgOff_ == prefix.size(),
                "tx replay prefix of %zu bytes ran past its message",
                prefix.size());
    if (hooks_.probe != nullptr)
        hooks_.probe->onSegment(hooks_.traceId, FsmState::Offloading, pos,
                                pos, prefix.size(), processed);
}

bool
StreamFsm::segmentImpl(uint64_t pos, ByteSpan data, PacketResult &res)
{
    switch (state_) {
      case FsmState::Offloading: {
        uint64_t end = pos + data.size();
        if (end <= expected_ || pos < expected_) {
            // Entirely or partially "in the past" (retransmission /
            // overlap): bypassed, context unchanged (Figure 8a).
            bump(&FsmStats::bypassedSpans);
            return false;
        }
        if (pos == expected_)
            return processSpan(pos, data, res);
        bump(&FsmStats::gapEvents);
        handleGap(pos, data, res);
        return false;
      }
      case FsmState::Searching:
        bump(&FsmStats::bypassedSpans);
        scanSpan(pos, data, res);
        return false;
      case FsmState::Tracking:
        bump(&FsmStats::bypassedSpans);
        trackSpan(pos, data, res);
        return false;
    }
    return false;
}

void
StreamFsm::feedScan(uint64_t pos, ByteView data, PacketResult &res)
{
    if (state_ == FsmState::Searching)
        scanSpan(pos, data, res);
    else if (state_ == FsmState::Tracking)
        trackSpan(pos, data, res);
}

template <typename Span>
bool
StreamFsm::processSpan(uint64_t pos, Span data, PacketResult &res,
                       bool allowResume)
{
    ANIC_ASSERT(pos == expected_);
    const size_t hdr_size = engine_.headerSize();

    // Packet-aligned resumption points: transforms may only switch on
    // at the start of a *packet* so a packet is never half-processed
    // (allowResume is false for the dry-run tail of an out-of-
    // sequence packet, which must go up the stack unmodified).
    if (skipMode_ && allowResume) {
        if (!hdrComplete_ && hdrBuf_.empty() && inMsgOff_ == 0) {
            // Fresh message boundary at span start: full resume.
            skipMode_ = false;
            covered_ = true;
        } else if (hdrComplete_ && engine_.resumeMidMessage()) {
            // Placement-style engines resume inside the message.
            engine_.onMsgResume(msgIdx_, hdrBuf_, inMsgOff_);
            msgActive_ = true;
            skipMode_ = false;
            covered_ = false;
            bump(&FsmStats::midMsgResumes);
        }
    }

    size_t off = 0;
    const size_t n = data.size();
    while (off < n) {
        if (!hdrComplete_) {
            size_t need = hdr_size - hdrBuf_.size();
            size_t take = std::min(need, n - off);
            hdrBuf_.insert(hdrBuf_.end(), data.begin() + off,
                           data.begin() + off + take);
            inMsgOff_ += take;
            off += take;
            if (hdrBuf_.size() < hdr_size)
                break;

            std::optional<MsgInfo> info = engine_.parseHeader(hdrBuf_);
            if (!info) {
                // In-sequence framing desync: the previous length
                // field led us astray (possible only after incorrect
                // speculation). Fall back to searching and rescan,
                // seeding the scanner with the failed header bytes.
                if (msgActive_) {
                    engine_.onMsgAbort();
                    msgActive_ = false;
                    bump(&FsmStats::msgsAborted);
                }
                bump(&FsmStats::desyncs);
                Bytes failed = hdrBuf_;
                uint64_t fail_end = pos + off;
                enterSearch(fail_end - failed.size());
                scanSpan(fail_end - failed.size(), failed, res);
                if (off < n)
                    feedScan(fail_end, data.subspan(off), res);
                // Earlier bytes of this span may already have been
                // transformed; flag the packet so software treats the
                // flow as broken rather than re-processing mixed
                // content (only reachable via a wrong confirmation).
                res.tagFailed = true;
                return false;
            }
            ANIC_ASSERT(info->wireLen >= hdr_size,
                        "message shorter than its header");
            msgLen_ = info->wireLen;
            hdrComplete_ = true;
            if (!skipMode_) {
                engine_.onMsgStart(msgIdx_, hdrBuf_);
                msgActive_ = true;
            }
        } else {
            uint64_t remaining = msgLen_ - inMsgOff_;
            size_t take =
                static_cast<size_t>(std::min<uint64_t>(remaining, n - off));
            if (!skipMode_) {
                res.spanPktOff = res.payloadBase + static_cast<uint32_t>(off);
                if constexpr (std::is_same_v<Span, ByteView>)
                    engine_.onMsgReplay(inMsgOff_, data.subspan(off, take));
                else
                    engine_.onMsgData(inMsgOff_, data.subspan(off, take),
                                      false, res);
            }
            inMsgOff_ += take;
            off += take;
            if (inMsgOff_ == msgLen_) {
                if (!skipMode_) {
                    engine_.onMsgEnd(covered_, res);
                    msgActive_ = false;
                    bump(&FsmStats::msgsCompleted);
                    if (covered_)
                        bump(&FsmStats::msgsCovered);
                    covered_ = true;
                }
                msgIdx_++;
                msgStart_ += msgLen_;
                hdrBuf_.clear();
                hdrComplete_ = false;
                inMsgOff_ = 0;
            }
        }
    }
    expected_ = pos + n;
    return !skipMode_;
}

void
StreamFsm::handleGap(uint64_t pos, ByteSpan data, PacketResult &res)
{
    uint64_t end = pos + data.size();

    if (msgActive_) {
        engine_.onMsgAbort();
        msgActive_ = false;
        bump(&FsmStats::msgsAborted);
    }

    if (!hdrComplete_) {
        // Boundary position unknown (header unseen or split): the NIC
        // cannot re-frame deterministically -> speculative search.
        enterSearch(pos);
        scanSpan(pos, data, res);
        return;
    }

    uint64_t boundary = msgStart_ + msgLen_;
    if (boundary < pos) {
        // The gap jumped past the next header: framing lost.
        enterSearch(pos);
        scanSpan(pos, data, res);
        return;
    }

    covered_ = false;
    if (end < boundary) {
        // Gap and packet are inside the current message. The packet
        // itself is bypassed; subsequent packets can resume mid-
        // message for placement-style engines, or wait for the
        // boundary otherwise.
        skipMode_ = true;
        inMsgOff_ = end - msgStart_;
        expected_ = end;
        bump(&FsmStats::bypassedSpans);
        return;
    }

    // The packet reaches or crosses the boundary: virtually consume
    // the rest of the current message and dry-run the remainder of
    // the packet from the boundary (parses headers, Figure 8b).
    msgIdx_++;
    msgStart_ = boundary;
    hdrBuf_.clear();
    hdrComplete_ = false;
    inMsgOff_ = 0;
    skipMode_ = true;
    expected_ = boundary;
    bump(&FsmStats::bypassedSpans);
    if (end > boundary) {
        processSpan(boundary,
                    data.subspan(static_cast<size_t>(boundary - pos)), res,
                    /*allowResume=*/false);
    }
}

void
StreamFsm::enterSearch(uint64_t contPos)
{
    toState(FsmState::Searching);
    contValid_ = true;
    searchCont_ = contPos;
    searchCarry_.clear();
    trackHdrBuf_.clear();
    pendingReqId_ = 0;
    haveConfirm_ = false;
}

void
StreamFsm::positionLost()
{
    if (msgActive_) {
        engine_.onMsgAbort();
        msgActive_ = false;
        bump(&FsmStats::msgsAborted);
    }
    toState(FsmState::Searching);
    contValid_ = false;
    searchCarry_.clear();
    trackHdrBuf_.clear();
    pendingReqId_ = 0;
    haveConfirm_ = false;
}

void
StreamFsm::scanSpan(uint64_t pos, ByteView data, PacketResult &res)
{
    const size_t hdr_size = engine_.headerSize();

    if (contValid_ && pos < searchCont_) {
        if (pos + data.size() <= searchCont_)
            return; // stale bytes
        data = data.subspan(static_cast<size_t>(searchCont_ - pos));
        pos = searchCont_;
    }
    if (!contValid_ || pos != searchCont_)
        searchCarry_.clear();

    // Assemble carry + data so patterns split across packets match.
    Bytes window(searchCarry_);
    window.insert(window.end(), data.begin(), data.end());
    uint64_t window_base = pos - searchCarry_.size();

    for (size_t i = 0; i + hdr_size <= window.size(); i++) {
        std::optional<MsgInfo> info =
            engine_.parseHeader(ByteView(window).subspan(i, hdr_size));
        if (!info)
            continue;

        // Plausible header: speculate, ask software, start tracking.
        uint64_t cand = window_base + i;
        bump(&FsmStats::resyncRequests);
        pendingReqId_ = nextReqId_++;
        pendingReqPos_ = cand;
        haveConfirm_ = false;
        toState(FsmState::Tracking);
        traceEvent(sim::TraceKind::ResyncRequest, cand);
        if (hooks_.probe != nullptr)
            hooks_.probe->onResyncRequest(hooks_.traceId, pendingReqId_, cand);
        trackMsgCount_ = 0;
        trackCurStart_ = cand;
        trackCurLen_ = info->wireLen;
        trackCurHdr_.assign(window.begin() + i, window.begin() + i + hdr_size);
        nextHdrPos_ = cand + info->wireLen;
        trackHdrBuf_.clear();
        trackCont_ = cand + hdr_size;
        requestResync_(pendingReqId_, cand);

        // Keep tracking through the remainder of this packet.
        uint64_t consumed = trackCont_ - pos; // header end within data
        if (consumed < data.size()) {
            trackSpan(trackCont_,
                      data.subspan(static_cast<size_t>(consumed)), res);
        }
        return;
    }

    size_t keep = std::min(window.size(), hdr_size - 1);
    searchCarry_.assign(window.end() - keep, window.end());
    contValid_ = true;
    searchCont_ = pos + data.size();
}

void
StreamFsm::trackSpan(uint64_t pos, ByteView data, PacketResult &res)
{
    const size_t hdr_size = engine_.headerSize();
    uint64_t end = pos + data.size();

    if (pos != trackCont_) {
        if (pos < trackCont_) {
            if (end <= trackCont_)
                return; // stale bytes
            data = data.subspan(static_cast<size_t>(trackCont_ - pos));
            pos = trackCont_;
        } else {
            // Gap while tracking. Body bytes don't matter, but a gap
            // over (or into) the next header loses the chain.
            if (!trackHdrBuf_.empty() || pos > nextHdrPos_) {
                enterSearch(pos);
                scanSpan(pos, data, res);
                return;
            }
            trackCont_ = pos;
        }
    }

    size_t off = 0;
    while (off < data.size()) {
        uint64_t cur = pos + off;
        if (cur < nextHdrPos_) {
            uint64_t skip = std::min<uint64_t>(nextHdrPos_ - cur,
                                               data.size() - off);
            off += static_cast<size_t>(skip);
            continue;
        }
        size_t need = hdr_size - trackHdrBuf_.size();
        size_t take = std::min(need, data.size() - off);
        trackHdrBuf_.insert(trackHdrBuf_.end(), data.begin() + off,
                            data.begin() + off + take);
        off += take;
        if (trackHdrBuf_.size() < hdr_size)
            break;

        std::optional<MsgInfo> info = engine_.parseHeader(trackHdrBuf_);
        if (!info) {
            // Magic mismatch: the speculation was wrong (d1).
            bump(&FsmStats::trackFailures);
            Bytes failed = trackHdrBuf_;
            uint64_t fail_pos = nextHdrPos_;
            enterSearch(fail_pos);
            scanSpan(fail_pos, failed, res);
            if (off < data.size())
                feedScan(pos + off, data.subspan(off), res);
            return;
        }
        trackMsgCount_++;
        trackCurStart_ = nextHdrPos_;
        trackCurLen_ = info->wireLen;
        trackCurHdr_ = trackHdrBuf_;
        nextHdrPos_ += info->wireLen;
        trackHdrBuf_.clear();
    }
    trackCont_ = pos + data.size();
}

void
StreamFsm::confirm(uint64_t reqId, bool ok, uint64_t msgIdx)
{
    if (state_ != FsmState::Tracking || reqId != pendingReqId_)
        return; // stale response for an abandoned speculation
    uint64_t reqPos = pendingReqPos_;
    pendingReqId_ = 0;
    if (hooks_.probe != nullptr)
        hooks_.probe->onResyncResolved(hooks_.traceId, reqId, ok, reqPos);
    if (fsmBug() == FsmBug::SkipConfirm && !ok)
        ok = true; // mutation: ignore software's refutation
    if (!ok) {
        bump(&FsmStats::resyncRefuted);
        traceEvent(sim::TraceKind::ResyncRefuted, trackCont_);
        enterSearch(trackCont_);
        return;
    }
    bump(&FsmStats::resyncConfirmed);
    // Operand b carries the speculated stream position so trace-level
    // checkers can assert confirmations advance in sequence space.
    traceEvent(sim::TraceKind::ResyncConfirmed, msgIdx, reqPos);
    confirmedMsgIdx_ = msgIdx;
    if (fsmBug() == FsmBug::ConfirmOffByOne)
        confirmedMsgIdx_ = msgIdx + 1; // mutation: wrong record index
    adoptTrackedPosition();
}

void
StreamFsm::adoptTrackedPosition()
{
    // Software confirmed that the message at the candidate position
    // is message #confirmedMsgIdx_. Everything tracked since then is
    // position- and index-known, so flip to Offloading in skip mode;
    // transforms re-engage at the next packet-aligned boundary (d2).
    toState(FsmState::Offloading);
    skipMode_ = true;
    covered_ = false;
    msgActive_ = false;
    expected_ = trackCont_;

    if (!trackHdrBuf_.empty()) {
        // Mid-header of the message after the tracked chain.
        msgStart_ = nextHdrPos_;
        msgIdx_ = confirmedMsgIdx_ + trackMsgCount_ + 1;
        hdrBuf_ = trackHdrBuf_;
        hdrComplete_ = false;
        msgLen_ = 0;
        inMsgOff_ = trackHdrBuf_.size();
    } else if (trackCont_ == nextHdrPos_) {
        // Exactly at a boundary.
        msgStart_ = nextHdrPos_;
        msgIdx_ = confirmedMsgIdx_ + trackMsgCount_ + 1;
        hdrBuf_.clear();
        hdrComplete_ = false;
        msgLen_ = 0;
        inMsgOff_ = 0;
    } else {
        // Mid-body of the tracked message.
        msgStart_ = trackCurStart_;
        msgIdx_ = confirmedMsgIdx_ + trackMsgCount_;
        hdrBuf_ = trackCurHdr_;
        hdrComplete_ = true;
        msgLen_ = trackCurLen_;
        inMsgOff_ = trackCont_ - trackCurStart_;
    }
    trackHdrBuf_.clear();
}

} // namespace anic::nic
