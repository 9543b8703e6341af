/**
 * @file
 * The offload-aware NIC driver: implements the TCP stack's NetDevice
 * on top of the NIC model and carries the autonomous-offload driver
 * logic from §4.2/§4.3 — shadow context sequence checks, transmit
 * context recovery via l5o_get_tx_msgstate, receive delivery with
 * offload metadata, and routing of resync requests/responses.
 */

#ifndef ANIC_CORE_OFFLOAD_DEVICE_HH
#define ANIC_CORE_OFFLOAD_DEVICE_HH

#include "core/l5o.hh"
#include "nic/nic.hh"
#include "tcp/net_device.hh"
#include "tcp/tcp_stack.hh"
#include "util/flat_map.hh"
#include "util/slab.hh"

namespace anic::core {

/** One NIC port's driver instance. */
class OffloadDevice : public tcp::NetDevice
{
  public:
    OffloadDevice(sim::Simulator &sim, nic::Nic &nic, net::IpAddr ip);
    ~OffloadDevice() override; // out-of-line: OffloadImpl is incomplete here

    /** Binds the TCP stack receive path. */
    void attachStack(tcp::TcpStack *stack);

    // -------------------------------------------------- NetDevice
    bool transmit(net::PacketPtr pkt) override;
    void setOnTxSpace(std::function<void()> cb) override;
    net::IpAddr ipAddr() const override { return ip_; }
    int rxQueues() const override { return nic_.queueCount(); }
    int
    rxQueueFor(const net::FlowKey &wireFlow) const override
    {
        return nic_.rxQueueFor(wireFlow);
    }

    // ------------------------------------------------------- l5o
    /**
     * l5o_create: builds the engines for the static state's protocol
     * kind (via the registered factories), installs the NIC contexts
     * with flow key and sequence anchors taken from the connection's
     * current state, and returns the handle. All protocols install
     * through this entrypoint.
     * @p dirs is a kL5Rx/kL5Tx mask; @p rxMsgIdx / @p txMsgIdx seed
     * the per-direction message counters (0 for a fresh stream).
     */
    L5Offload *l5oCreate(tcp::TcpConnection &conn, const L5StaticState &st,
                         unsigned dirs, L5pCallbacks *cb,
                         uint64_t rxMsgIdx = 0, uint64_t txMsgIdx = 0);

    nic::Nic &nic() { return nic_; }

  private:
    class OffloadImpl;
    friend class OffloadImpl;

    void onNicRxInterrupt(int queue, net::PacketPtr pkt);
    void onNicResyncRequest(uint64_t ctxId, uint64_t reqId, uint32_t tcpSeq);
    void destroyOffload(util::SlabHandle h);

    sim::Simulator &sim_;
    nic::Nic &nic_;
    net::IpAddr ip_;
    tcp::TcpStack *stack_ = nullptr;

    // Offload records, indexed by tx ctx id (packet tags) and by rx
    // ctx id (upcalls).
    util::SlabArena<OffloadImpl> offloads_;
    util::FlatMap<uint64_t, util::SlabHandle> byRxCtx_;
    util::FlatMap<uint64_t, util::SlabHandle> byTxCtx_;
};

} // namespace anic::core

#endif // ANIC_CORE_OFFLOAD_DEVICE_HH
