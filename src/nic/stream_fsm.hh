/**
 * @file
 * The autonomous-offload stream state machine (paper §4.3, Figure 7).
 *
 * One StreamFsm instance tracks one L5P layer of one flow direction
 * inside the NIC. It is generic over the protocol: it frames messages
 * through the engine's net::MsgWire (the same framing rule the host's
 * message assembler uses) and drives the engine's transforms. It is
 * reused both for the outer layer (messages framed directly in the
 * TCP byte stream) and, in the NVMe-TLS composition, for the inner
 * layer (messages framed in the TLS plaintext stream).
 *
 * States:
 *  - Offloading: the context can process the next in-sequence byte.
 *    A sub-mode ("skip") performs framing-only processing while
 *    waiting to re-enable transforms at a packet-aligned message
 *    boundary, which keeps offload decisions packet-granular (a
 *    packet is either fully processed or fully bypassed, mirroring
 *    the single decrypted/crc_ok descriptor bit).
 *  - Searching: scans payload for the protocol's magic pattern;
 *    a plausible header triggers a resync request to software.
 *  - Tracking: follows the speculated message chain via header
 *    length fields, verifying each subsequent magic pattern, until
 *    software confirms or refutes the speculation.
 *
 * Positions are 64-bit logical stream offsets maintained by the
 * caller (the NIC maps TCP sequence numbers onto them; inner layers
 * count plaintext bytes).
 */

#ifndef ANIC_NIC_STREAM_FSM_HH
#define ANIC_NIC_STREAM_FSM_HH

#include <functional>
#include <string>

#include "nic/engine.hh"
#include "sim/registry.hh"
#include "sim/trace.hh"

namespace anic::nic {

enum class FsmState
{
    Offloading,
    Searching,
    Tracking,
};

constexpr int kFsmStateCount = 3;

const char *fsmStateName(FsmState s);

/** Observable FSM statistics (drive Figures 16-18 classification). */
struct FsmStats
{
    sim::Counter msgsCompleted;   ///< messages whose end was processed
    sim::Counter msgsCovered;     ///< ... with full coverage (verified)
    sim::Counter msgsAborted;     ///< messages disrupted mid-processing
    sim::Counter resyncRequests;  ///< speculations sent to software
    sim::Counter resyncConfirmed; ///< speculations software confirmed
    sim::Counter resyncRefuted;   ///< speculations software refuted
    sim::Counter trackFailures;   ///< magic mismatch while tracking
    sim::Counter desyncs;         ///< in-sequence framing desync (bad)
    sim::Counter gapEvents;       ///< out-of-sequence spans observed
    sim::Counter bypassedSpans;   ///< spans passed through unprocessed
    sim::Counter midMsgResumes;   ///< mid-message (placement) resumes
};

/**
 * Invariant probe: a harness-side observer of every FSM decision.
 * Unlike the TraceRing (bounded, sampling-friendly), a probe sees
 * every event synchronously and can assert invariants the paper's
 * transparency argument rests on — e.g. a span is only ever processed
 * in-sequence from the Offloading state, transition edges follow the
 * documented diagram, and resync confirmations move forward in
 * sequence space. All callbacks default to no-ops so checkers
 * override only what they need.
 */
struct FsmProbe
{
    virtual ~FsmProbe() = default;
    /** One segment() call: @p preState / @p preExpected are the state
     *  and next-processable position on entry, @p processed the
     *  return value (span fully consumed with transforms active). */
    virtual void onSegment(uint64_t traceId, FsmState preState, uint64_t pos,
                           uint64_t preExpected, size_t len, bool processed)
    {
        (void)traceId, (void)preState, (void)pos;
        (void)preExpected, (void)len, (void)processed;
    }
    /** A state change (self-loops are never reported). */
    virtual void onTransition(uint64_t traceId, FsmState from, FsmState to)
    {
        (void)traceId, (void)from, (void)to;
    }
    virtual void onResyncRequest(uint64_t traceId, uint64_t reqId,
                                 uint64_t pos)
    {
        (void)traceId, (void)reqId, (void)pos;
    }
    /** Software's confirm/refute reached a live speculation; @p pos is
     *  the originally speculated stream position. */
    virtual void onResyncResolved(uint64_t traceId, uint64_t reqId, bool ok,
                                  uint64_t pos)
    {
        (void)traceId, (void)reqId, (void)ok, (void)pos;
    }
};

/**
 * Observability hooks the owner (the NIC, or a test) installs on a
 * StreamFsm. All members are optional; a default-constructed hooks
 * struct keeps the FSM silent. The NIC aggregates every per-flow FSM
 * into one FsmStats + per-state dwell distributions so the registry
 * stays bounded no matter how many flows exist.
 */
struct FsmHooks
{
    std::function<sim::Tick()> now; ///< time source for dwell/trace
    FsmStats *aggregate = nullptr;  ///< owner-level roll-up
    /** Per-state dwell-time distributions (ns per visit), indexed by
     *  FsmState; the Figs 17-18 signal for how long loss/reorder keep
     *  the NIC out of Offloading. */
    sim::Distribution *dwellNs[kFsmStateCount] = {};
    sim::TraceRing *trace = nullptr;
    uint64_t traceId = 0;           ///< flow id stamped on trace events
    FsmProbe *probe = nullptr;      ///< synchronous invariant observer
    std::string name;               ///< component path, e.g. "srv.nic0.fsm"
};

class StreamFsm
{
  public:
    /**
     * @param engine    protocol engine (owned by the flow context); its
     *                  wire frames the stream
     * @param requestResync  upcall: ask software to confirm a header
     *                       speculation at a stream position; the id
     *                       must be echoed in confirm().
     */
    StreamFsm(L5Engine &engine,
              std::function<void(uint64_t reqId, uint64_t pos)> requestResync);

    /** Installs observability hooks (see FsmHooks). Call before
     *  reset() so the initial state's dwell clock starts correctly. */
    void setHooks(FsmHooks hooks);

    /** Arms the FSM: the next message starts at @p pos with index
     *  @p msgIdx (from l5o_create / context recovery). */
    void reset(uint64_t pos, uint64_t msgIdx);

    /**
     * Feeds one span of this layer's stream (one packet's worth of
     * bytes at this layer) at logical position @p pos. Bytes may be
     * transformed in place; results accumulate into @p res.
     *
     * @return true iff every byte of the span was consumed with
     * transforms active — the condition for setting the packet's
     * single offloaded descriptor bit.
     */
    bool segment(uint64_t pos, ByteSpan data, PacketResult &res);

    /**
     * Tx context recovery: replays @p prefix, the first bytes of the
     * message reset() just armed at @p pos, through the engine's
     * read-only path (L5Engine::onMsgReplay). The prefix must end
     * inside that message; its bytes are only read.
     */
    void replay(uint64_t pos, ByteView prefix);

    /** The caller lost track of stream positions (inner layer only):
     *  drop to Searching and accept the next segment position as a
     *  fresh continuity base. */
    void positionLost();

    /** Software's answer to a resync request. @p msgIdx is the index
     *  of the message starting at the speculated position (valid when
     *  @p ok). */
    void confirm(uint64_t reqId, bool ok, uint64_t msgIdx);

    FsmState state() const { return state_; }
    const FsmStats &stats() const { return stats_; }

    /** True while transforms are live (Offloading, not skip mode). */
    bool transformsActive() const
    {
        return state_ == FsmState::Offloading && !skipMode_;
    }

  private:
    bool segmentImpl(uint64_t pos, ByteSpan data, PacketResult &res);
    /** In-sequence processing from the Offloading state. @p Span is
     *  ByteSpan for packets (engines may write) and ByteView for a
     *  replay (engines may only read). */
    template <typename Span>
    bool processSpan(uint64_t pos, Span data, PacketResult &res,
                     bool allowResume = true);
    void feedScan(uint64_t pos, ByteView data, PacketResult &res);
    void handleGap(uint64_t pos, ByteSpan data, PacketResult &res);
    void enterSearch(uint64_t contPos);
    /** Tells the engine the message it holds state for is disrupted. */
    void abortMsg();
    void scanSpan(uint64_t pos, ByteView data, PacketResult &res);
    void trackSpan(uint64_t pos, ByteView data, PacketResult &res);
    void adoptTrackedPosition(uint64_t confirmedMsgIdx);
    /** The wire's magic-pattern check of a prefixSize-byte prefix. */
    std::optional<net::MsgFrame> parse(ByteView prefix) const;

    /** State transition: closes the departing state's dwell interval
     *  and records a trace event when the state actually changes. */
    void toState(FsmState next);
    /** Increments a stat on this FSM and on the owner aggregate. */
    void bump(sim::Counter FsmStats::*m, uint64_t n = 1);
    void traceEvent(sim::TraceKind kind, uint64_t a = 0, uint64_t b = 0);

    L5Engine &engine_;
    std::function<void(uint64_t, uint64_t)> requestResync_;

    FsmState state_ = FsmState::Searching;
    FsmStats stats_;
    FsmHooks hooks_;
    sim::Tick stateEnterTick_ = 0;

    // ---- Offloading sub-state
    uint64_t expected_ = 0; ///< next processable stream position
    uint64_t msgStart_ = 0; ///< current message start position
    uint64_t msgIdx_ = 0;   ///< index of the current message
    /** The current message's prefix: inMsgOff_ bytes while incomplete,
     *  then kept for onMsgResume. */
    uint8_t hdrBuf_[net::kMaxPrefixSize] = {};
    bool hdrComplete_ = false;
    net::MsgFrame frame_;   ///< current framing (valid when hdrComplete_)
    uint64_t inMsgOff_ = 0; ///< consumed bytes of the current message
    bool covered_ = false;  ///< message seen from its start, gap-free
    bool skipMode_ = false; ///< framing-only (transforms disabled)
    bool msgActive_ = false; ///< engine holds transform state

    // ---- Searching sub-state
    bool contValid_ = false;
    uint64_t searchCont_ = 0;
    uint8_t searchCarry_[net::kMaxPrefixSize] = {}; ///< before searchCont_
    uint8_t searchCarryLen_ = 0;

    // ---- Tracking sub-state
    uint64_t trackCont_ = 0;
    uint64_t nextHdrPos_ = 0;
    uint8_t trackHdrBuf_[net::kMaxPrefixSize] = {}; ///< prefix at nextHdrPos_
    uint64_t trackHdrHave_ = 0;
    uint64_t trackMsgCount_ = 0;
    uint64_t trackCurStart_ = 0; ///< start of the tracked msg preceding nextHdrPos_
    net::MsgFrame trackCurFrame_;
    uint8_t trackCurHdr_[net::kMaxPrefixSize] = {}; ///< its prefix
    uint64_t pendingReqId_ = 0;
    uint64_t pendingReqPos_ = 0; ///< speculated position of the live request
    uint64_t nextReqId_ = 1;
};

} // namespace anic::nic

#endif // ANIC_NIC_STREAM_FSM_HH
