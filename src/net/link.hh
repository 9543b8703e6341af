/**
 * @file
 * Point-to-point link with netem-style impairments: loss, reordering
 * (extra delay for selected packets), and duplication. Serialization
 * (line rate) is modeled by the NICs; the link adds propagation delay
 * and impairments only.
 *
 * Deliveries landing on the same tick for the same port are coalesced
 * into one scheduled event that drains the whole batch in send order,
 * so a burst costs one queue operation instead of one per packet.
 */

#ifndef ANIC_NET_LINK_HH
#define ANIC_NET_LINK_HH

#include <functional>
#include <vector>

#include "net/packet.hh"
#include "net/packet_pool.hh"
#include "sim/simulator.hh"
#include "util/panic.hh"
#include "util/rand.hh"

namespace anic::net {

/** One direction's impairment knobs. */
struct Impairments
{
    double lossRate = 0.0;      ///< probability a packet is dropped
    double reorderRate = 0.0;   ///< probability a packet is delayed extra
    double duplicateRate = 0.0; ///< probability a packet is duplicated
    /** Probability a packet's TCP payload is bit-flipped in flight.
     *  IP/TCP headers stay valid (the stack still delivers the bytes)
     *  so corruption surfaces as L5 integrity failures: TLS auth-tag
     *  mismatches and NVMe-TCP data-digest (CRC) mismatches. Packets
     *  without payload are never corrupted. */
    double corruptRate = 0.0;
    sim::Tick reorderExtraDelay = 20 * sim::kMicrosecond;
    /** Probability an ECT packet gets a CE mark (random RED-style
     *  marking; non-ECT packets are never touched). */
    double ecnMarkRate = 0.0;
    /** DCTCP-style step marking: CE-mark every ECT packet while more
     *  than this many bytes sit in the link's delivery queue for the
     *  destination port. 0 disables the threshold. */
    uint64_t ecnMarkThresholdBytes = 0;
};

/** Per-direction delivery counters. */
struct LinkStats
{
    uint64_t sent = 0;
    uint64_t delivered = 0;
    uint64_t dropped = 0;
    uint64_t reordered = 0;
    uint64_t duplicated = 0;
    uint64_t corrupted = 0;
    uint64_t ecnMarked = 0;
};

/**
 * Back-to-back cable between two NIC ports. Port 0 and port 1 attach
 * receive handlers; transmit(from, pkt) delivers to the other side.
 */
class Link
{
  public:
    struct Config
    {
        sim::Tick propDelay = 2 * sim::kMicrosecond;
        Impairments dir[2]; // [0]: port0->port1, [1]: port1->port0
        uint64_t seed = 1;
        /** Arena for corruption/duplication copies (required). */
        PacketPool *pool = nullptr;
    };

    using Handler = std::function<void(PacketPtr)>;

    Link(sim::Simulator &sim, Config cfg)
        : sim_(sim),
          cfg_(cfg),
          rng_(cfg.seed),
          pool_(required(cfg.pool, "Link::Config::pool"))
    {
    }

    /** Attaches the receive handler for @p port (0 or 1). */
    void
    attach(int port, Handler h)
    {
        ANIC_ASSERT(port == 0 || port == 1);
        handler_[port] = std::move(h);
    }

    /** Sends @p pkt from @p fromPort toward the opposite port. */
    void transmit(int fromPort, PacketPtr pkt);

    const LinkStats &stats(int dir) const { return stats_[dir]; }

    /** Replaces impairments at runtime (benches sweep loss rates). */
    void setImpairments(int dir, const Impairments &imp) { cfg_.dir[dir] = imp; }

  private:
    /** Packets due at one tick on one port, drained by one event. */
    struct Batch
    {
        sim::Tick due = 0;
        std::vector<PacketPtr> pkts;
    };

    void deliver(int toPort, PacketPtr pkt, sim::Tick delay);
    void flush(int toPort, sim::Tick due);

    sim::Simulator &sim_;
    Config cfg_;
    Rng rng_;
    PacketPool &pool_;
    Handler handler_[2];
    LinkStats stats_[2];
    std::vector<Batch> pending_[2];
    uint64_t pendingBytes_[2] = {0, 0}; ///< queued wire bytes per port
    std::vector<std::vector<PacketPtr>> batchFree_; ///< capacity recycling
};

} // namespace anic::net

#endif // ANIC_NET_LINK_HH
