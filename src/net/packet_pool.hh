/**
 * @file
 * Freelist arena for Packet buffers.
 *
 * Every simulated packet on the hot path comes from a pool: release
 * of the last PacketPtr pushes the packet onto the owning pool's
 * freelist with its payload vector's capacity intact, so after a
 * short warm-up the steady-state data path performs zero per-packet
 * heap allocations. Pools are per-world (each core::Testbed owns
 * one), which keeps --jobs N runs isolated without locks; the pool
 * must be declared before the Simulator that schedules events holding
 * PacketPtrs, so that every packet is released before the pool is
 * destroyed. There is no fallback pool: a Link, TcpStack or Node
 * built without one panics.
 */

#ifndef ANIC_NET_PACKET_POOL_HH
#define ANIC_NET_PACKET_POOL_HH

#include "net/packet.hh"
#include "sim/registry.hh"

namespace anic::net {

class PacketPool
{
  public:
    PacketPool() = default;
    PacketPool(const PacketPool &) = delete;
    PacketPool &operator=(const PacketPool &) = delete;
    ~PacketPool();

    /** A packet with bytes.size() == @p size; contents unspecified
     *  (callers overwrite). Recycles a freelist packet when one fits. */
    PacketPtr alloc(size_t size);

    /** Encodes headers + @p payloadLen unwritten payload bytes; the
     *  caller fills payloadMut(). The header cache is primed from the
     *  structs, so the packet is never re-decoded. */
    PacketPtr makeTcp(const Ipv4Header &ip, const TcpHeader &tcp,
                      size_t payloadLen);

    /** makeTcp + payload copy (control path / tests). */
    PacketPtr make(const Ipv4Header &ip, const TcpHeader &tcp,
                   ByteView payload);

    /** Content copy of @p src (link corruption/duplication). */
    PacketPtr copy(const Packet &src);

    /** Publishes sim.alloc.* under @p scope ("sim.alloc"). */
    void linkStats(sim::StatsScope scope);

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    uint64_t grows() const { return grows_; }
    uint64_t liveCount() const { return liveCount_; }
    uint64_t freeCount() const { return freeCount_; }

  private:
    friend class PacketPtr;

    Packet *take(size_t size);
    void recycle(Packet *p);

    Packet *free_ = nullptr;
    uint64_t freeCount_ = 0;
    uint64_t liveCount_ = 0;

    sim::Counter hits_;
    sim::Counter misses_;
    sim::Counter grows_;
    sim::Counter recycled_;
    sim::Gauge live_;
    sim::Gauge hwmLive_;
    double hwm_ = 0.0;
    /** Callbacks that overflowed the InlineFunction SBO: structurally
     *  zero (overflow is a compile error), published so snapshots can
     *  assert the zero-allocation claim. */
    sim::Counter cbHeapFallbacks_;
    sim::StatsScope scope_;
};

} // namespace anic::net

#endif // ANIC_NET_PACKET_POOL_HH
