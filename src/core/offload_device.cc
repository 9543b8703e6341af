#include "core/offload_device.hh"

#include "util/panic.hh"

namespace anic::core {

/** Driver-side record of one l5o offload instance. */
class OffloadDevice::OffloadImpl : public L5Offload
{
  public:
    explicit OffloadImpl(OffloadDevice &dev) : dev_(dev) {}

    void
    resyncRxResp(uint32_t tcpsn, bool ok, uint64_t msgIdx) override
    {
        if (rxCtx_ == 0 || pendingReqId_ == 0)
            return;
        // A response is only valid for the speculation that is still
        // outstanding: the NIC may have abandoned the one this answer
        // refers to and speculated anew (stale answers would confirm
        // the wrong message index).
        if (tcpsn != pendingSeq_)
            return;
        uint64_t req = pendingReqId_;
        pendingReqId_ = 0;
        dev_.nic_.rxResyncResponse(rxCtx_, req, ok, msgIdx);
    }

    void destroy() override { dev_.destroyOffload(self_); }

    nic::L5Engine *
    rxEngine() override
    {
        return rxCtx_ ? dev_.nic_.rxEngine(rxCtx_) : nullptr;
    }

    nic::L5Engine *
    txEngine() override
    {
        return txCtx_ ? dev_.nic_.txEngine(txCtx_) : nullptr;
    }

    uint64_t txCtxId() const override { return txCtx_; }

    const nic::FsmStats *
    rxFsmStats() const override
    {
        return rxCtx_ ? dev_.nic_.rxFsmStats(rxCtx_) : nullptr;
    }

    OffloadDevice &dev_;
    util::SlabHandle self_;
    uint64_t rxCtx_ = 0;
    uint64_t txCtx_ = 0;
    /** The driver's shadow of the tx context: the sequence number the
     *  NIC expects next. The NIC's own state only advances when ring
     *  entries drain. */
    uint32_t txShadowSeq_ = 0;
    uint64_t pendingReqId_ = 0;
    uint32_t pendingSeq_ = 0;
    L5pCallbacks *callbacks_ = nullptr;
    host::Core *core_ = nullptr;
};

OffloadDevice::OffloadDevice(sim::Simulator &sim, nic::Nic &nic,
                             net::IpAddr ip)
    : sim_(sim), nic_(nic), ip_(ip)
{
    nic_.setOnRxInterrupt([this](int queue, net::PacketPtr pkt) {
        onNicRxInterrupt(queue, std::move(pkt));
    });
    nic_.setOnResyncRequest(
        [this](uint64_t ctxId, uint64_t reqId, uint32_t seq) {
            onNicResyncRequest(ctxId, reqId, seq);
        });
}

OffloadDevice::~OffloadDevice() = default;

void
OffloadDevice::attachStack(tcp::TcpStack *stack)
{
    stack_ = stack;
}

bool
OffloadDevice::transmit(net::PacketPtr pkt)
{
    if (host::Core *cur = host::Core::current())
        cur->charge(cur->model().driverTxPerPacket);

    if (pkt->txCtx != 0 && pkt->payloadSize() > 0) {
        const net::TcpHeader th = pkt->tcp();
        const util::SlabHandle *h = byTxCtx_.find(pkt->txCtx);
        ANIC_ASSERT(h != nullptr, "unknown tx offload ctx");
        OffloadImpl &off = offloads_.at(*h);
        if (th.seq != off.txShadowSeq_) {
            // §4.2 context recovery: ask the L5P for the enclosing
            // message's state, hand it to the NIC via a special
            // descriptor, then post the packet as usual.
            std::optional<L5pCallbacks::TxMsgState> st =
                off.callbacks_->getTxMsgState(th.seq);
            ANIC_ASSERT(st.has_value(),
                        "L5P lost tx message state for unacked seq %u",
                        th.seq);
            if (host::Core *cur = host::Core::current())
                cur->charge(cur->model().resyncUpcallCost);
            // The special descriptor must ride the same ring the data
            // packet will, or the resync could drain after the packet
            // it is meant to precede.
            nic_.postTxResync(pkt->txCtx, th.seq, st->msgIdx,
                              std::move(st->msg), st->rebuildLen,
                              nic_.txQueueFor(pkt->flow()));
        }
        off.txShadowSeq_ = th.seq + static_cast<uint32_t>(pkt->payloadSize());
    }
    return nic_.transmit(std::move(pkt));
}

void
OffloadDevice::setOnTxSpace(std::function<void()> cb)
{
    nic_.setOnTxSpace(std::move(cb));
}

void
OffloadDevice::onNicRxInterrupt(int queue, net::PacketPtr pkt)
{
    if (stack_ == nullptr)
        return;
    // MSI-X affinity: queue N interrupts core N mod cores. RSS pinned
    // the packet's flow to this queue, so the stack work runs on the
    // flow's steered core without a cross-core handoff.
    host::Core &core = stack_->coreForQueue(queue);
    core.post([this, pkt = std::move(pkt), &core]() mutable {
        // Two charges in this order, not one summed constant: the
        // core accumulates cycles in floating point.
        core.charge(core.model().interruptCost);
        core.charge(core.model().driverRxPerPacket);
        stack_->input(pkt);
        pkt.reset();
    });
}

void
OffloadDevice::onNicResyncRequest(uint64_t ctxId, uint64_t reqId,
                                  uint32_t tcpSeq)
{
    const util::SlabHandle *h = byRxCtx_.find(ctxId);
    if (h == nullptr)
        return;
    OffloadImpl *off = &offloads_.at(*h);
    off->pendingReqId_ = reqId;
    off->pendingSeq_ = tcpSeq;
    host::Core *core = off->core_;
    ANIC_ASSERT(core != nullptr);
    core->post([off, tcpSeq, core] {
        core->charge(core->model().resyncUpcallCost);
        off->callbacks_->resyncRxReq(tcpSeq);
    });
}

L5Offload *
OffloadDevice::l5oCreate(tcp::TcpConnection &conn, const L5StaticState &st,
                         unsigned dirs, L5pCallbacks *cb, uint64_t rxMsgIdx,
                         uint64_t txMsgIdx)
{
    ANIC_ASSERT(dirs != 0 && cb != nullptr);
    const L5ProtocolOps &ops = l5ProtocolOps(st.kind());
    std::unique_ptr<nic::L5Engine> rxEngine;
    std::unique_ptr<nic::L5Engine> txEngine;
    if (dirs & kL5Rx) {
        ANIC_ASSERT(ops.makeRx != nullptr,
                    "protocol registered no rx engine factory");
        rxEngine = ops.makeRx(st);
    }
    if (dirs & kL5Tx) {
        ANIC_ASSERT(ops.makeTx != nullptr,
                    "protocol registered no tx engine factory");
        txEngine = ops.makeTx(st);
    }

    util::SlabHandle h = offloads_.alloc(*this);
    OffloadImpl &off = offloads_.at(h);
    off.self_ = h;
    off.callbacks_ = cb;
    off.core_ = &conn.core();
    if (rxEngine) {
        // Arriving packets carry the reversed flow (src = remote peer).
        off.rxCtx_ = nic_.createRxContext(conn.localFlow().reversed(),
                                          std::move(rxEngine),
                                          conn.rcvNxt(), rxMsgIdx);
        byRxCtx_.emplace(off.rxCtx_, h);
    }
    if (txEngine) {
        off.txShadowSeq_ = conn.sndNextByteSeq();
        off.txCtx_ = nic_.createTxContext(std::move(txEngine),
                                          off.txShadowSeq_, txMsgIdx);
        byTxCtx_.emplace(off.txCtx_, h);
    }
    return &off;
}

void
OffloadDevice::destroyOffload(util::SlabHandle h)
{
    OffloadImpl &off = offloads_.at(h);
    if (off.rxCtx_ != 0) {
        nic_.destroyRxContext(off.rxCtx_);
        byRxCtx_.erase(off.rxCtx_);
    }
    if (off.txCtx_ != 0) {
        nic_.destroyTxContext(off.txCtx_);
        byTxCtx_.erase(off.txCtx_);
    }
    offloads_.free(h);
}

} // namespace anic::core
