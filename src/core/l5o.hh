/**
 * @file
 * The autonomous-offload software interface (paper §4.1).
 *
 * Mirrors Listings 1 and 2:
 *   Listing 1 (driver -> L5P):  OffloadDevice::l5oCreate /
 *       L5Offload::destroy / engine access for request-response state
 *       (l5o_add_rr_state) / L5Offload::resyncRxResp.
 *   Listing 2 (L5P -> driver):  L5pCallbacks::getTxMsgState
 *       (l5o_get_tx_msgstate) and L5pCallbacks::resyncRxReq
 *       (l5o_resync_rx_req).
 */

#ifndef ANIC_CORE_L5O_HH
#define ANIC_CORE_L5O_HH

#include <memory>
#include <optional>

#include "nic/stream_fsm.hh"

namespace anic::core {

/**
 * Upcalls an L5P implements so the driver can recover NIC contexts
 * (Listing 2). Invoked on the connection's core.
 */
class L5pCallbacks
{
  public:
    virtual ~L5pCallbacks() = default;

    /** State needed to rebuild the tx context for a retransmission. */
    struct TxMsgState
    {
        uint32_t msgStartSeq = 0; ///< TCP seq of the enclosing message
        uint64_t msgIdx = 0;      ///< index of that message
        /** The L5P's retained message, the same immutable buffer it
         *  sent and holds until the message is acked. Holding it pins
         *  it, so the driver passes it on to a resync descriptor that
         *  drains after the upcall returns, without copying. */
        SharedBytes msg;
        /** Bytes of msg the NIC replays: [msgStartSeq, tcpsn). */
        uint32_t rebuildLen = 0;
    };

    /**
     * l5o_get_tx_msgstate: maps a TCP sequence number inside an
     * unacknowledged message to that message's state. Returns nullopt
     * if the L5P no longer holds it (then the offload cannot recover
     * and the connection must stop offloading).
     */
    virtual std::optional<TxMsgState> getTxMsgState(uint32_t tcpsn) = 0;

    /**
     * l5o_resync_rx_req: the NIC speculatively identified a message
     * header at @p tcpsn. The L5P answers later (when its receive
     * processing reaches that point) via L5Offload::resyncRxResp.
     */
    virtual void resyncRxReq(uint32_t tcpsn) = 0;
};

/**
 * Static offload state handed to l5o_create (the paper's "static
 * state": crypto keys, negotiated wire options). Each protocol module
 * derives its own state type, reports its kind, and registers engine
 * factories for it via registerL5Protocol() — the driver then turns
 * (kind, state, directions) into NIC engines without naming any
 * protocol, which is what lets a new L5P bind with zero driver edits.
 */
class L5StaticState
{
  public:
    virtual ~L5StaticState() = default;
    virtual net::L5Kind kind() const = 0;
};

/** Direction mask for the unified l5o_create binding. */
enum : unsigned
{
    kL5Rx = 1u,
    kL5Tx = 2u,
};

/** Engine factories one protocol registers for its kind. Either may
 *  be null when the protocol offloads only one direction. */
struct L5ProtocolOps
{
    std::unique_ptr<nic::L5Engine> (*makeRx)(const L5StaticState &) = nullptr;
    std::unique_ptr<nic::L5Engine> (*makeTx)(const L5StaticState &) = nullptr;
};

/** Registers (or replaces) the factories for @p kind. Protocol
 *  modules call this from their static-state constructor so linking
 *  the module is all it takes to enable the binding. */
void registerL5Protocol(net::L5Kind kind, const L5ProtocolOps &ops);

/** Looks up the factories for @p kind; panics if unregistered. */
const L5ProtocolOps &l5ProtocolOps(net::L5Kind kind);

/**
 * Handle returned by l5o_create (Listing 1). Owned by the driver;
 * the L5P keeps a pointer until it calls destroy().
 */
class L5Offload
{
  public:
    virtual ~L5Offload() = default;

    /** l5o_resync_rx_resp: answers the pending speculation. @p msgIdx
     *  is the index of the message starting at @p tcpsn when ok. */
    virtual void resyncRxResp(uint32_t tcpsn, bool ok, uint64_t msgIdx) = 0;

    /** l5o_destroy. The handle is invalid afterwards. */
    virtual void destroy() = 0;

    /** Engine access for protocol-specific configuration descriptors
     *  (e.g. NVMe-TCP l5o_add_rr_state / l5o_del_rr_state update the
     *  CID -> buffer map inside the rx engine). */
    virtual nic::L5Engine *rxEngine() = 0;

    /** Context id the stack tags outgoing packets with. */
    virtual uint64_t txCtxId() const = 0;

    /** Receive FSM statistics (tests, benches). */
    virtual const nic::FsmStats *rxFsmStats() const = 0;
};

} // namespace anic::core

#endif // ANIC_CORE_L5O_HH
