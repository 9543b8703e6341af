/**
 * @file
 * TCP stack: connection demultiplexing, listeners, port allocation,
 * flow-to-core steering (models accelerated RFS), and routing of
 * outgoing packets to the bound device.
 */

#ifndef ANIC_TCP_TCP_STACK_HH
#define ANIC_TCP_TCP_STACK_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "host/core.hh"
#include "net/packet.hh"
#include "net/packet_pool.hh"
#include "sim/registry.hh"
#include "sim/trace.hh"
#include "tcp/net_device.hh"
#include "tcp/tcp_connection.hh"
#include "util/flat_map.hh"
#include "util/rand.hh"
#include "util/slab.hh"

namespace anic::tcp {

/** Per-host TCP stack. */
class TcpStack
{
  public:
    using AcceptFn = std::function<void(TcpConnection &)>;

    /** @param pool packet arena for outgoing segments (required).
     *  @param trace ring for retransmit events (required; the run's).
     *  @param scope registry scope to publish stack-wide counters
     *  under ("<node>.tcp"); a detached scope keeps the stack
     *  unregistered (bare construction in unit tests). */
    TcpStack(sim::Simulator &sim, std::vector<host::Core *> cores,
             uint64_t seed, net::PacketPool *pool, sim::TraceRing *trace,
             sim::StatsScope scope = {});

    /** Binds a device/IP pair (a host may have several ports). */
    void addDevice(NetDevice *dev);

    /** Starts listening; incoming SYNs to @p port spawn connections. */
    void listen(uint16_t port, const TcpConnection::Config &cfg,
                AcceptFn onAccept);

    /**
     * Active open from @p localIp (must match a bound device) toward
     * dst; the connection is pinned to @p core if given, else steered
     * by flow hash.
     */
    TcpConnection &connect(net::IpAddr localIp, net::IpAddr dstIp,
                           uint16_t dstPort, const TcpConnection::Config &cfg,
                           host::Core *core = nullptr);

    /**
     * Demultiplexes one received packet to its connection (or
     * listener). Must be called from a work item on steer(flow).
     */
    void input(const net::PacketPtr &pkt);

    /** The core that packets of @p flow are steered to. */
    host::Core &steer(const net::FlowKey &flow) const;

    /** The core an rx queue's completion interrupts are delivered to
     *  (MSI-X affinity: queue N -> core N mod cores). */
    host::Core &
    coreForQueue(int queue) const
    {
        return *cores_[static_cast<size_t>(queue) % cores_.size()];
    }

    /** Routes an outgoing packet to the device owning its source IP. */
    bool output(TcpConnection &conn, net::PacketPtr pkt);

    sim::Simulator &sim() { return sim_; }
    Rng &rng() { return rng_; }
    net::PacketPool &pool() { return pool_; }

    /** Closes and forgets a connection (tests / teardown). */
    void destroy(TcpConnection &conn);

    size_t connectionCount() const { return conns_.size(); }

    /** The connection in slot @p h, or null once it was destroyed. */
    TcpConnection *connection(util::SlabHandle h) { return connArena_.get(h); }

    /** Host-wide dropped-input counter (no matching flow). */
    uint64_t droppedInputs() const { return droppedInputs_; }

    /** Roll-up of every connection's counters on this stack. */
    const TcpStats &stats() const { return agg_; }

    /** Records a congestion event's cwnd/ssthresh into the tcp.cc
     *  distributions (sampled on events, not per ack, so the registry
     *  stays bounded; capped as a backstop for loss-storm fuzzing). */
    void
    sampleCongestion(uint32_t cwndBytes, uint32_t ssthreshBytes, uint32_t mss)
    {
        if (mss == 0 || cwndSegsDist_.count() >= kMaxCcSamples)
            return;
        cwndSegsDist_.add(static_cast<double>(cwndBytes) / mss);
        ssthreshSegsDist_.add(static_cast<double>(ssthreshBytes) / mss);
    }

  private:
    struct Listener
    {
        TcpConnection::Config cfg;
        AcceptFn onAccept;
    };

    NetDevice *deviceFor(net::IpAddr localIp) const;
    void onDeviceTxSpace(NetDevice *dev);
    void unlinkBlocked(TcpConnection &conn);
    TcpConnection &createConnection(const net::FlowKey &local,
                                    const TcpConnection::Config &cfg,
                                    host::Core *core);

    sim::Simulator &sim_;
    std::vector<host::Core *> cores_;
    Rng rng_;
    net::PacketPool &pool_;

    std::vector<NetDevice *> devices_;
    // Connections are slab-allocated (stable addresses — cores hold
    // raw pointers in queued work) and demuxed through a flat table
    // of 8-byte handles; churn recycles slots instead of hitting
    // malloc per connection (DESIGN.md §15).
    util::SlabArena<TcpConnection> connArena_;
    util::FlatMap<net::FlowKey, util::SlabHandle, net::FlowKeyHash> conns_;
    std::unordered_map<uint16_t, Listener> listeners_;
    uint16_t nextEphemeral_ = 32768;
    sim::Counter droppedInputs_;

    // Connections waiting for tx-ring space, per device. Each conn
    // appears at most once (TcpConnection::inBlockedQueue_) and is
    // unlinked on destroy, so the vectors cannot grow unboundedly —
    // or dangle — under connection churn.
    util::FlatMap<NetDevice *, std::vector<TcpConnection *>> blocked_;

    // Observability: per-connection stats roll up here so the
    // registry stays bounded at any connection count.
    sim::StatsScope scope_;
    TcpStats agg_;
    sim::Gauge connections_;
    sim::TraceRing *trace_ = nullptr;

    // Congestion-control observability under "<node>.tcp.cc".
    static constexpr size_t kMaxCcSamples = 1 << 16;
    sim::StatsScope ccScope_;
    sim::Distribution cwndSegsDist_;
    sim::Distribution ssthreshSegsDist_;

    friend class TcpConnection;
};

} // namespace anic::tcp

#endif // ANIC_TCP_TCP_STACK_HH
