/**
 * @file
 * NIC-side L5P engine interface.
 *
 * The autonomous-offload NIC separates *framing + resynchronization*
 * (generic across L5Ps, implemented once in StreamFsm) from the
 * *offloaded computation* (per-L5P, implemented by an L5Engine).
 * Framing lives in the protocol's net::MsgWire, which the engine
 * carries: StreamFsm parses every prefix through it and hands the
 * engine the decoded MsgFrame, so engines only transform bytes and
 * never parse a header.
 *
 * An engine instance is the per-flow hardware state for one protocol
 * layer and one direction: it holds the static state from l5o_create
 * (keys, maps) and the dynamic state the paper requires to be
 * constant-size (cipher position, running CRC).
 */

#ifndef ANIC_NIC_ENGINE_HH
#define ANIC_NIC_ENGINE_HH

#include <cstdint>

#include "net/msg_wire.hh"
#include "net/packet.hh"
#include "sim/registry.hh"
#include "util/bytes.hh"
#include "util/panic.hh"

namespace anic::nic {

/**
 * Work counters shared by all engine kinds. Every counter is
 * protocol-agnostic; per-protocol attribution happens by publishing
 * one instance per engine kind (see EngineStatsBank).
 */
struct EngineStats
{
    sim::Counter bytesTransformed; ///< encrypted/decrypted in place
    sim::Counter bytesChecked;     ///< digest-covered payload bytes
    sim::Counter bytesPlaced;      ///< zero-copy DMA placement
    sim::Counter verifiedOk;       ///< tags/digests checked OK
    sim::Counter verifyFailures;   ///< tag/digest mismatches
};

/**
 * The per-device engine counter file: one aggregate bank plus one
 * bank per engine kind. The NIC owns one per device (published as
 * "<nic>.engine.*" and "<nic>.engine.<kind>.*") and installs it on
 * every engine it hosts, including inner engines of the NVMe-TLS
 * composition; engines attribute their own work via their kind().
 */
struct EngineStatsBank
{
    EngineStats total;
    EngineStats kind[net::kL5KindCount];

    void
    bump(net::L5Kind k, sim::Counter EngineStats::*m, uint64_t n = 1)
    {
        (total.*m) += n;
        (kind[static_cast<size_t>(k)].*m) += n;
    }

    const EngineStats &
    of(net::L5Kind k) const
    {
        return kind[static_cast<size_t>(k)];
    }
};

/**
 * Accumulates the offload results for the packet currently moving
 * through the rx pipeline; the NIC copies them into the packet's
 * receive descriptor (net::RxOffloadMeta). All fields are
 * protocol-agnostic: engines report verification outcomes into their
 * kind's slot, so composed layers (TLS outer, NVMe inner) never
 * clobber each other.
 */
struct PacketResult
{
    /** Per-layer verification outcome, indexed by net::L5Kind.
     *  Engines report through setVerify(); outcomes of multiple
     *  messages completing in one packet combine by severity. */
    net::VerifyOutcome verify[net::kL5KindCount] = {};

    /** Payload bytes transformed in place (crypto) in this packet. */
    uint64_t bytesTransformed = 0;

    /** The FSM tagged this packet as failed: it hit an irrecoverable
     *  framing/tracking fault and the stack must treat every offload
     *  claim on the packet as void. Set by StreamFsm, not engines. */
    bool tagFailed = false;

    /** Payload ranges DMA-written to their destination (offsets
     *  relative to the TCP payload of the packet). */
    std::vector<net::PlacedRange> placed;

    /** Offset within the packet's TCP payload corresponding to byte 0
     *  of the span handed to StreamFsm::segment (outer layer: 0; inner
     *  layers: set by the enclosing engine before feeding). */
    uint32_t payloadBase = 0;

    /** Offset within the packet's TCP payload of the bytes currently
     *  passed to onMsgData. Maintained by StreamFsm so engines can
     *  record placement ranges against the packet. */
    uint32_t spanPktOff = 0;

    /** Folds @p o into @p k's outcome slot (severity-max). */
    void
    setVerify(net::L5Kind k, net::VerifyOutcome o)
    {
        net::VerifyOutcome &slot = verify[static_cast<size_t>(k)];
        slot = net::worseOutcome(slot, o);
    }

    net::VerifyOutcome
    verifyOf(net::L5Kind k) const
    {
        return verify[static_cast<size_t>(k)];
    }
};

/**
 * Per-flow, per-layer engine. All stream offsets are relative to the
 * layer's own logical byte stream (TCP payload for the outer layer,
 * TLS plaintext for an inner layer).
 */
class L5Engine
{
  public:
    L5Engine(const net::MsgWire &wire, net::Digests d) : wire_(wire), dg_(d) {}
    virtual ~L5Engine() = default;

    /** The framing rule StreamFsm tracks this engine's stream by. */
    const net::MsgWire &wire() const { return wire_; }
    net::Digests digests() const { return dg_; }

    /** Protocol kind; selects the outcome slot and counter bank this
     *  engine reports into. */
    net::L5Kind kind() const { return wire_.kind; }

    // ------------------------------------------------- data path
    /**
     * A new message starts. @p msgIdx counts messages from offload
     * creation (the "number of previous messages" the dynamic state
     * may depend on); @p frame is its framing, decoded by StreamFsm
     * from @p prefix (the wire's prefixSize bytes).
     */
    virtual void onMsgStart(uint64_t msgIdx, const net::MsgFrame &frame,
                            ByteView prefix) = 0;

    /**
     * In-sequence message bytes past the prefix, starting at message
     * offset @p off. May modify bytes in place.
     */
    virtual void onMsgData(uint64_t off, ByteSpan data, PacketResult &res) = 0;

    /**
     * Tx context recovery: message bytes at offset @p off that this
     * context already sent, replayed to rebuild the state the first
     * pass left (running crypto or CRC, counters). @p data is the
     * L5P's retained message, read in place and never written: an
     * engine keeps what it would have written (tag, digest) for the
     * data bytes that follow. Only tx engines are recovered this way.
     */
    virtual void
    onMsgReplay(uint64_t off, ByteView data)
    {
        (void)off, (void)data;
        panic("engine kind %s has no tx replay", net::l5KindName(kind()));
    }

    /**
     * The message completed (all bytes seen since the engine's last
     * start/resume point). @p covered is false when processing
     * resumed mid-message, i.e. verification state is incomplete.
     */
    virtual void onMsgEnd(bool covered, PacketResult &res) = 0;

    /**
     * Processing resumes mid-message after out-of-sequence traffic:
     * the prefix was observed (possibly in a bypassed packet) and
     * subsequent packets will be fed from @p off onward. Only called
     * when the wire's resumeMidMessage is set, and only on rx: tx
     * contexts see their stream in sequence.
     */
    virtual void
    onMsgResume(uint64_t msgIdx, const net::MsgFrame &frame, ByteView prefix,
                uint64_t off)
    {
        (void)msgIdx, (void)frame, (void)prefix, (void)off;
        panic("engine kind %s has no mid-message resume",
              net::l5KindName(kind()));
    }

    /** The current message was disrupted; discard transform state. */
    virtual void onMsgAbort() = 0;

    /** The context was re-armed via a driver descriptor (tx resync /
     *  l5o re-create); engines hosting inner layers reset them here. */
    virtual void onRearm() {}

    /** Installs the owner's counter bank (may be null). Engines
     *  hosting inner layers propagate the pointer down. */
    virtual void setStats(EngineStatsBank *stats) { engineStats_ = stats; }

  protected:
    /** Bumps a counter (aggregate + this engine's kind bank). */
    void
    count(sim::Counter EngineStats::*m, uint64_t n = 1)
    {
        if (engineStats_ != nullptr)
            engineStats_->bump(kind(), m, n);
    }

    const net::MsgWire &wire_;
    const net::Digests dg_;
    EngineStatsBank *engineStats_ = nullptr;
};

} // namespace anic::nic

#endif // ANIC_NIC_ENGINE_HH
