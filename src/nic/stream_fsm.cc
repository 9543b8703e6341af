#include "nic/stream_fsm.hh"

#include <algorithm>
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

/**
 * Gathers the next bytes of a @p size-byte prefix from @p data at
 * @p off into @p buf (@p have bytes so far). Returns the prefix once
 * complete, else an empty view.
 */
ByteView
takePrefix(ByteView data, size_t &off, uint8_t *buf, uint64_t &have,
           size_t size)
{
    size_t take = std::min<size_t>(size - have, data.size() - off);
    std::memcpy(buf + have, data.data() + off, take);
    have += take;
    off += take;
    return have == size ? ByteView(buf, size) : ByteView();
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

std::optional<net::MsgFrame>
StreamFsm::parse(ByteView prefix) const
{
    return engine_.wire().parsePrefix(prefix.data(), engine_.digests());
}

void
StreamFsm::reset(uint64_t pos, uint64_t msgIdx)
{
    toState(FsmState::Offloading);
    expected_ = pos;
    msgStart_ = pos;
    msgIdx_ = msgIdx;
    hdrComplete_ = false;
    inMsgOff_ = 0;
    covered_ = true;
    skipMode_ = false;
    msgActive_ = false;
    contValid_ = false;
    searchCarryLen_ = 0;
    trackHdrHave_ = 0;
    pendingReqId_ = 0;
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
    const net::MsgWire &wire = engine_.wire();
    const size_t psize = wire.prefixSize;

    // Packet-aligned resumption points: transforms may only switch on
    // at the start of a *packet* so a packet is never half-processed
    // (allowResume is false for the dry-run tail of an out-of-
    // sequence packet, which must go up the stack unmodified).
    if (skipMode_ && allowResume) {
        if (!hdrComplete_ && inMsgOff_ == 0) {
            // Fresh message boundary at span start: full resume.
            skipMode_ = false;
            covered_ = true;
        } else if (hdrComplete_ && wire.resumeMidMessage) {
            // Placement-style engines resume inside the message.
            engine_.onMsgResume(msgIdx_, frame_, ByteView(hdrBuf_, psize),
                                inMsgOff_);
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
            ByteView prefix = takePrefix(data, off, hdrBuf_, inMsgOff_, psize);
            if (prefix.empty())
                break;

            std::optional<net::MsgFrame> f = parse(prefix);
            if (!f) {
                // In-sequence framing desync: the previous length
                // field led us astray (possible only after incorrect
                // speculation). Fall back to searching and rescan,
                // seeding the scanner with the failed prefix bytes.
                abortMsg();
                bump(&FsmStats::desyncs);
                uint64_t fail_end = pos + off;
                enterSearch(fail_end - psize);
                scanSpan(fail_end - psize, prefix, res);
                if (off < n)
                    feedScan(fail_end, data.subspan(off), res);
                // Earlier bytes of this span may already have been
                // transformed; flag the packet so software treats the
                // flow as broken rather than re-processing mixed
                // content (only reachable via a wrong confirmation).
                res.tagFailed = true;
                return false;
            }
            ANIC_ASSERT(f->wireLen >= psize, "message shorter than its prefix");
            frame_ = *f;
            hdrComplete_ = true;
            if (!skipMode_) {
                engine_.onMsgStart(msgIdx_, frame_, prefix);
                msgActive_ = true;
            }
        } else {
            uint64_t remaining = frame_.wireLen - inMsgOff_;
            size_t take =
                static_cast<size_t>(std::min<uint64_t>(remaining, n - off));
            if (!skipMode_) {
                res.spanPktOff = res.payloadBase + static_cast<uint32_t>(off);
                if constexpr (std::is_same_v<Span, ByteView>)
                    engine_.onMsgReplay(inMsgOff_, data.subspan(off, take));
                else
                    engine_.onMsgData(inMsgOff_, data.subspan(off, take), res);
            }
            inMsgOff_ += take;
            off += take;
            if (inMsgOff_ == frame_.wireLen) {
                if (!skipMode_) {
                    engine_.onMsgEnd(covered_, res);
                    msgActive_ = false;
                    bump(&FsmStats::msgsCompleted);
                    if (covered_)
                        bump(&FsmStats::msgsCovered);
                    covered_ = true;
                }
                msgIdx_++;
                msgStart_ += frame_.wireLen;
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

    abortMsg();
    if (!hdrComplete_) {
        // Boundary position unknown (header unseen or split): the NIC
        // cannot re-frame deterministically -> speculative search.
        enterSearch(pos);
        scanSpan(pos, data, res);
        return;
    }

    uint64_t boundary = msgStart_ + frame_.wireLen;
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
    searchCarryLen_ = 0;
    trackHdrHave_ = 0;
    pendingReqId_ = 0;
}

void
StreamFsm::positionLost()
{
    abortMsg();
    enterSearch(0);
    contValid_ = false;
}

void
StreamFsm::abortMsg()
{
    if (!msgActive_)
        return;
    engine_.onMsgAbort();
    msgActive_ = false;
    bump(&FsmStats::msgsAborted);
}

void
StreamFsm::scanSpan(uint64_t pos, ByteView data, PacketResult &res)
{
    const size_t psize = engine_.wire().prefixSize;

    if (contValid_ && pos < searchCont_) {
        if (pos + data.size() <= searchCont_)
            return; // stale bytes
        data = data.subspan(static_cast<size_t>(searchCont_ - pos));
        pos = searchCont_;
    }
    if (!contValid_ || pos != searchCont_)
        searchCarryLen_ = 0;

    // Candidates starting in the carry are checked on the carry
    // stitched to this span's first bytes, so a prefix split across
    // packets still matches; the rest are parsed in place.
    const size_t carry = searchCarryLen_;
    const size_t head = std::min(data.size(), psize - 1);
    uint8_t stitch[2 * net::kMaxPrefixSize];
    std::memcpy(stitch, searchCarry_, carry);
    std::memcpy(stitch + carry, data.data(), head);
    const ByteView stitched(stitch, carry + head);

    std::optional<net::MsgFrame> f;
    ByteView prefix;
    uint64_t cand = 0;
    for (size_t i = 0; !f && i < carry && i + psize <= stitched.size(); i++) {
        prefix = stitched.subspan(i, psize);
        cand = pos - carry + i;
        f = parse(prefix);
    }
    for (size_t i = 0; !f && i + psize <= data.size(); i++) {
        prefix = data.subspan(i, psize);
        cand = pos + i;
        f = parse(prefix);
    }
    if (!f) {
        // Keep the last bytes of carry + span for the next packet.
        size_t keep = std::min(carry + data.size(), psize - 1);
        ByteView tail = data.size() >= keep ? data : stitched;
        std::memcpy(searchCarry_, tail.data() + tail.size() - keep, keep);
        searchCarryLen_ = static_cast<uint8_t>(keep);
        contValid_ = true;
        searchCont_ = pos + data.size();
        return;
    }

    // Plausible prefix: speculate, ask software, start tracking.
    bump(&FsmStats::resyncRequests);
    pendingReqId_ = nextReqId_++;
    pendingReqPos_ = cand;
    toState(FsmState::Tracking);
    traceEvent(sim::TraceKind::ResyncRequest, cand);
    if (hooks_.probe != nullptr)
        hooks_.probe->onResyncRequest(hooks_.traceId, pendingReqId_, cand);
    trackMsgCount_ = 0;
    trackCurStart_ = cand;
    trackCurFrame_ = *f;
    std::memcpy(trackCurHdr_, prefix.data(), psize);
    nextHdrPos_ = cand + f->wireLen;
    trackHdrHave_ = 0;
    trackCont_ = cand + psize;
    requestResync_(pendingReqId_, cand);

    // Keep tracking through the remainder of this packet.
    uint64_t consumed = trackCont_ - pos; // prefix end within data
    if (consumed < data.size())
        trackSpan(trackCont_, data.subspan(static_cast<size_t>(consumed)), res);
}

void
StreamFsm::trackSpan(uint64_t pos, ByteView data, PacketResult &res)
{
    const size_t psize = engine_.wire().prefixSize;
    uint64_t end = pos + data.size();

    if (pos != trackCont_) {
        if (pos < trackCont_) {
            if (end <= trackCont_)
                return; // stale bytes
            data = data.subspan(static_cast<size_t>(trackCont_ - pos));
            pos = trackCont_;
        } else {
            // Gap while tracking. Body bytes don't matter, but a gap
            // over (or into) the next prefix loses the chain.
            if (trackHdrHave_ != 0 || pos > nextHdrPos_) {
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
        ByteView prefix =
            takePrefix(data, off, trackHdrBuf_, trackHdrHave_, psize);
        if (prefix.empty())
            break;

        std::optional<net::MsgFrame> f = parse(prefix);
        if (!f) {
            // Magic mismatch: the speculation was wrong (d1).
            bump(&FsmStats::trackFailures);
            uint64_t fail_pos = nextHdrPos_;
            enterSearch(fail_pos);
            scanSpan(fail_pos, prefix, res);
            if (off < data.size())
                feedScan(pos + off, data.subspan(off), res);
            return;
        }
        trackMsgCount_++;
        trackCurStart_ = nextHdrPos_;
        trackCurFrame_ = *f;
        std::memcpy(trackCurHdr_, prefix.data(), psize);
        nextHdrPos_ += f->wireLen;
        trackHdrHave_ = 0;
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
    if (fsmBug() == FsmBug::ConfirmOffByOne)
        msgIdx++; // mutation: wrong record index
    adoptTrackedPosition(msgIdx);
}

void
StreamFsm::adoptTrackedPosition(uint64_t confirmedMsgIdx)
{
    // Software confirmed that the message at the candidate position
    // is message #confirmedMsgIdx. Everything tracked since then is
    // position- and index-known, so flip to Offloading in skip mode;
    // transforms re-engage at the next packet-aligned boundary (d2).
    toState(FsmState::Offloading);
    skipMode_ = true;
    covered_ = false;
    msgActive_ = false;
    expected_ = trackCont_;

    const size_t psize = engine_.wire().prefixSize;
    if (trackHdrHave_ != 0 || trackCont_ == nextHdrPos_) {
        // At the boundary after the tracked chain, or inside the
        // prefix of the message there.
        msgStart_ = nextHdrPos_;
        msgIdx_ = confirmedMsgIdx + trackMsgCount_ + 1;
        std::memcpy(hdrBuf_, trackHdrBuf_, trackHdrHave_);
        hdrComplete_ = false;
        inMsgOff_ = trackHdrHave_;
    } else {
        // Mid-body of the tracked message.
        msgStart_ = trackCurStart_;
        msgIdx_ = confirmedMsgIdx + trackMsgCount_;
        std::memcpy(hdrBuf_, trackCurHdr_, psize);
        hdrComplete_ = true;
        frame_ = trackCurFrame_;
        inMsgOff_ = trackCont_ - trackCurStart_;
    }
    trackHdrHave_ = 0;
}

} // namespace anic::nic
