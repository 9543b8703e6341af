#include "nic/nic.hh"

#include <utility>

#include "util/panic.hh"
#include "util/rand.hh"

namespace anic::nic {

// ------------------------------------------------------------ FlowContext

FlowContext::FlowContext(
    uint64_t id, std::unique_ptr<L5Engine> engine,
    std::function<void(uint64_t reqId, uint32_t tcpSeq)> resyncReq)
    : id_(id),
      engine_(std::move(engine)),
      resyncReq_(std::move(resyncReq)),
      fsm_(*engine_, [this](uint64_t reqId, uint64_t pos) {
          if (resyncReq_)
              resyncReq_(reqId, seqOf(pos));
      })
{
}

void
FlowContext::arm(uint32_t tcpsn, uint64_t msgIdx)
{
    baseSeq_ = tcpsn;
    basePos_ = tcpsn; // start the 64-bit space at the sequence value
    fsm_.reset(basePos_, msgIdx);
    engine_->onRearm();
}

uint64_t
FlowContext::posOf(uint32_t seq) const
{
    return basePos_ + static_cast<int64_t>(static_cast<int32_t>(seq - baseSeq_));
}

uint32_t
FlowContext::seqOf(uint64_t pos) const
{
    return baseSeq_ + static_cast<uint32_t>(pos - basePos_);
}

void
FlowContext::advanceTo(uint32_t seq)
{
    basePos_ = posOf(seq);
    baseSeq_ = seq;
}

// -------------------------------------------------------------------- Nic

Nic::Nic(sim::Simulator &sim, net::Link &link, int port, Config cfg)
    : sim_(sim), link_(link), port_(port), cfg_(cfg)
{
    sim::StatsRegistry &reg =
        cfg_.registry != nullptr ? *cfg_.registry : sim::StatsRegistry::global();
    name_ = reg.uniqueName(cfg_.name.empty() ? "nic" : cfg_.name);
    scope_ = sim::StatsScope(reg, name_);
    trace_ = cfg_.trace != nullptr ? cfg_.trace : &sim::TraceRing::global();

    // 0 = auto; the driver resolves it to the host core count before
    // construction (Node::attachPort), bare construction gets 1.
    if (cfg_.numQueues <= 0)
        cfg_.numQueues = 1;
    if (cfg_.rssTableSize == 0)
        cfg_.rssTableSize = 1;
    ANIC_ASSERT(cfg_.ctxCacheCapacity > 0,
                "context cache capacity must be >= 1");
    rss_ = &net::Toeplitz::standard();
    queues_.reserve(static_cast<size_t>(cfg_.numQueues));
    for (int i = 0; i < cfg_.numQueues; i++) {
        auto q = std::make_unique<QueueState>();
        q->scope = scope_.child("q" + std::to_string(i));
        q->scope.link("txPkts", q->stats.txPkts);
        q->scope.link("rxPkts", q->stats.rxPkts);
        q->scope.link("compIrqs", q->stats.compIrqs);
        q->scope.link("ctxHits", q->stats.ctxHits);
        q->scope.link("ctxMisses", q->stats.ctxMisses);
        // q.evictions is exposed via queueStats() only: linking it
        // would add a field to every registry snapshot and break
        // byte-compatibility of existing bench output.
        queues_.push_back(std::move(q));
    }
    // Balanced fill, then a fixed-seed shuffle. The shuffle matters:
    // Toeplitz is XOR-linear, so flows on consecutive ephemeral ports
    // hash to slots whose low bits span a tiny GF(2) subspace — with
    // a plain round-robin fill (slot % queues) eight neighbouring
    // ports can collapse onto two queues. Decorrelating slot index
    // from queue keeps the per-slot balance exact while restoring the
    // spread a driver-programmed indirection table would have.
    rssTable_.resize(cfg_.rssTableSize);
    for (size_t i = 0; i < rssTable_.size(); i++)
        rssTable_[i] = static_cast<uint16_t>(i % queues_.size());
    Rng shuffleRng(0x52535321); // "RSS!" — same table every run
    for (size_t i = rssTable_.size(); i > 1; i--)
        std::swap(rssTable_[i - 1], rssTable_[shuffleRng.next() % i]);

    linkInstruments();
    link_.attach(port, [this](net::PacketPtr pkt) { onWire(std::move(pkt)); });
}

void
Nic::linkInstruments()
{
    scope_.link("pktsTx", stats_.pktsTx);
    scope_.link("pktsRx", stats_.pktsRx);
    scope_.link("bytesTx", stats_.bytesTx);
    scope_.link("bytesRx", stats_.bytesRx);
    scope_.link("ctxCacheHits", stats_.ctxCacheHits);
    scope_.link("ctxCacheMisses", stats_.ctxCacheMisses);
    scope_.link("ctxCacheEvictions", stats_.ctxCacheEvictions);
    scope_.link("rxOffloadedPkts", stats_.rxOffloadedPkts);
    scope_.link("txOffloadedPkts", stats_.txOffloadedPkts);
    scope_.link("txResyncs", stats_.txResyncs);
    scope_.link("irqsFired", stats_.irqsFired);

    scope_.link("pcie.rxDataBytes", pcie_.rxDataBytes);
    scope_.link("pcie.txDataBytes", pcie_.txDataBytes);
    scope_.link("pcie.descriptorBytes", pcie_.descriptorBytes);
    scope_.link("pcie.ctxFetchBytes", pcie_.ctxFetchBytes);
    scope_.link("pcie.ctxWritebackBytes", pcie_.ctxWritebackBytes);
    scope_.link("pcie.ctxRecoveryBytes", pcie_.ctxRecoveryBytes);

    scope_.link("fsm.msgsCompleted", fsmAgg_.msgsCompleted);
    scope_.link("fsm.msgsCovered", fsmAgg_.msgsCovered);
    scope_.link("fsm.msgsAborted", fsmAgg_.msgsAborted);
    scope_.link("fsm.resyncRequests", fsmAgg_.resyncRequests);
    scope_.link("fsm.resyncConfirmed", fsmAgg_.resyncConfirmed);
    scope_.link("fsm.resyncRefuted", fsmAgg_.resyncRefuted);
    scope_.link("fsm.trackFailures", fsmAgg_.trackFailures);
    scope_.link("fsm.desyncs", fsmAgg_.desyncs);
    scope_.link("fsm.gapEvents", fsmAgg_.gapEvents);
    scope_.link("fsm.bypassedSpans", fsmAgg_.bypassedSpans);
    scope_.link("fsm.midMsgResumes", fsmAgg_.midMsgResumes);
    scope_.link("fsm.dwellOffloadingNs",
                fsmDwellNs_[static_cast<int>(FsmState::Offloading)]);
    scope_.link("fsm.dwellSearchingNs",
                fsmDwellNs_[static_cast<int>(FsmState::Searching)]);
    scope_.link("fsm.dwellTrackingNs",
                fsmDwellNs_[static_cast<int>(FsmState::Tracking)]);

    // Aggregate engine work plus one scope per engine kind. The
    // legacy aggregate names (tagsVerified/crcFailures/...) stay
    // linked as roll-ups of the corresponding kind banks so existing
    // snapshot consumers keep parsing.
    scope_.link("engine.bytesTransformed", engineAgg_.total.bytesTransformed);
    scope_.link("engine.bytesChecked", engineAgg_.total.bytesChecked);
    scope_.link("engine.bytesPlaced", engineAgg_.total.bytesPlaced);
    scope_.link("engine.verifiedOk", engineAgg_.total.verifiedOk);
    scope_.link("engine.verifyFailures", engineAgg_.total.verifyFailures);
    scope_.link("engine.tagsVerified",
                engineAgg_.kind[static_cast<size_t>(net::L5Kind::Tls)]
                    .verifiedOk);
    scope_.link("engine.tagFailures",
                engineAgg_.kind[static_cast<size_t>(net::L5Kind::Tls)]
                    .verifyFailures);
    scope_.link("engine.crcsVerified",
                engineAgg_.kind[static_cast<size_t>(net::L5Kind::Nvme)]
                    .verifiedOk);
    scope_.link("engine.crcFailures",
                engineAgg_.kind[static_cast<size_t>(net::L5Kind::Nvme)]
                    .verifyFailures);
    for (size_t k = 1; k < net::kL5KindCount; k++) {
        std::string stem = "engine.";
        stem += net::l5KindName(static_cast<net::L5Kind>(k));
        EngineStats &es = engineAgg_.kind[k];
        scope_.link(stem + ".bytesTransformed", es.bytesTransformed);
        scope_.link(stem + ".bytesChecked", es.bytesChecked);
        scope_.link(stem + ".bytesPlaced", es.bytesPlaced);
        scope_.link(stem + ".verifiedOk", es.verifiedOk);
        scope_.link(stem + ".verifyFailures", es.verifyFailures);
    }
}

void
Nic::installFsmHooks(FlowContext &ctx)
{
    FsmHooks hooks;
    hooks.now = [this] { return sim_.now(); };
    hooks.aggregate = &fsmAgg_;
    for (int i = 0; i < kFsmStateCount; i++)
        hooks.dwellNs[i] = &fsmDwellNs_[i];
    hooks.trace = trace_;
    hooks.traceId = ctx.id();
    hooks.probe = cfg_.fsmProbe;
    hooks.name = name_ + ".fsm";
    ctx.fsm().setHooks(std::move(hooks));
    ctx.engine().setStats(&engineAgg_);
}

// ------------------------------------------------------------- transmit

bool
Nic::transmit(net::PacketPtr pkt)
{
    int queue =
        queues_.size() == 1 ? 0 : rxQueueFor(pkt->flow().reversed());
    return transmit(std::move(pkt), queue);
}

bool
Nic::transmit(net::PacketPtr pkt, int queue)
{
    QueueState &q = *queues_[static_cast<size_t>(queue)];
    if (q.txRing.size() >= cfg_.txRingSize)
        return false;
    pcie_.txDataBytes += pkt->bytes.size();
    pcie_.descriptorBytes += cfg_.descriptorBytes;
    q.txRing.push_back(std::move(pkt));
    txPendingTotal_++;
    pumpTx();
    return true;
}

void
Nic::postTxResync(uint64_t ctxId, uint32_t tcpsn, uint64_t msgIdx,
                  SharedBytes msg, uint32_t rebuildLen, int queue)
{
    size_t have = msg != nullptr ? msg->size() : 0;
    ANIC_ASSERT(rebuildLen <= have,
                "tx resync rebuild of %u bytes past its %zu-byte message",
                rebuildLen, have);
    pcie_.descriptorBytes += cfg_.descriptorBytes;
    // Special descriptors ride the same ring as the flow's data so
    // ordering with surrounding packets is preserved.
    QueueState &q = *queues_[static_cast<size_t>(queue)];
    q.txResyncs.push_back(
        TxResyncCmd{ctxId, msgIdx, tcpsn, rebuildLen, std::move(msg)});
    q.txRing.push_back(nullptr);
    txPendingTotal_++;
    pumpTx();
}

void
Nic::pumpTx()
{
    if (txPumping_ || txPendingTotal_ == 0)
        return;
    txPumping_ = true;
    sim::Tick start = std::max(sim_.now() + cfg_.txLatency, lineFreeAt_);
    sim_.scheduleAt(start, [this] { drainOne(); });
}

void
Nic::drainOne()
{
    txPumping_ = false;
    // Round-robin arbitration over the tx rings: one packet per grant,
    // starting after the ring served last. With one queue this is the
    // single-ring FIFO drain of the pre-multi-queue NIC.
    const int n = queueCount();
    QueueState *qs = nullptr;
    int qi = rrNext_;
    for (int scanned = 0; scanned < n; scanned++, qi = (qi + 1) % n) {
        QueueState &q = *queues_[static_cast<size_t>(qi)];
        // Apply special descriptors preceding this ring's next packet.
        while (!q.txRing.empty() && q.txRing.front() == nullptr) {
            applyTxResync(q.txResyncs.front());
            q.txResyncs.pop_front();
            q.txRing.pop_front();
            txPendingTotal_--;
        }
        if (!q.txRing.empty()) {
            qs = &q;
            break;
        }
    }
    if (qs == nullptr)
        return;
    rrNext_ = (qi + 1) % n;

    net::PacketPtr pkt = std::move(qs->txRing.front());
    qs->txRing.pop_front();
    txPendingTotal_--;

    if (pkt->txCtx != 0)
        processTxOffload(*pkt, qs->stats);

    double ps_per_byte = 8000.0 / cfg_.gbps;
    sim::Tick ser = static_cast<sim::Tick>(
        static_cast<double>(pkt->wireSize()) * ps_per_byte);
    lineFreeAt_ = std::max(sim_.now(), lineFreeAt_) + ser;

    stats_.pktsTx++;
    stats_.bytesTx += pkt->bytes.size();
    qs->stats.txPkts++;
    // The last bit leaves when serialization completes.
    sim_.scheduleAt(lineFreeAt_, [this, pkt = std::move(pkt)]() mutable {
        link_.transmit(port_, std::move(pkt));
    });

    bool had_backlog = qs->txRing.size() + 1 >= cfg_.txRingSize;
    if (had_backlog && onTxSpace_)
        onTxSpace_();
    if (txPendingTotal_ > 0) {
        txPumping_ = true;
        sim_.scheduleAt(lineFreeAt_, [this] { drainOne(); });
    }
}

void
Nic::processTxOffload(net::Packet &pkt, QueueStats &qstats)
{
    TxCtx *tc = txById_.find(pkt.txCtx);
    if (tc == nullptr)
        return; // context destroyed; send as-is
    FlowContext &ctx = ctxArena_.at(tc->ctx);
    touchContext(ctx, &qstats);

    const net::TcpHeader th = pkt.tcp();
    size_t payload = pkt.payloadSize();
    if (payload == 0)
        return; // pure ack/control

    // The driver guarantees in-sequence posting (it issues txResync
    // for out-of-sequence packets first).
    ANIC_ASSERT(th.seq == tc->expectedSeq,
                "tx descriptor out of sequence: seq=%u expected=%u", th.seq,
                tc->expectedSeq);

    PacketResult res;
    bool processed =
        ctx.fsm().segment(ctx.posOf(th.seq), pkt.payloadMut(), res);
    if (processed)
        stats_.txOffloadedPkts++;
    tc->expectedSeq = th.seq + static_cast<uint32_t>(payload);
    ctx.advanceTo(tc->expectedSeq);
}

// -------------------------------------------------------------- receive

int
Nic::rxQueueFor(const net::FlowKey &wireFlow) const
{
    if (queues_.size() == 1)
        return 0;
    uint32_t h = rss_->hashFlow(wireFlow);
    return rssTable_[h % rssTable_.size()];
}

void
Nic::onWire(net::PacketPtr pkt)
{
    stats_.pktsRx++;
    stats_.bytesRx += pkt->bytes.size();
    pcie_.rxDataBytes += pkt->bytes.size();
    pcie_.descriptorBytes += cfg_.descriptorBytes;

    // RSS: the indirection table pins the flow to one rx queue, so a
    // flow never migrates between queues (or cores) mid-stream.
    int queue = 0;
    if (queues_.size() > 1) {
        uint32_t h = rss_->hashFlow(pkt->flow());
        queue = rssTable_[h % rssTable_.size()];
        trace_->record(sim_.now(), sim::TraceKind::RxQueueSelect, name_,
                       static_cast<uint64_t>(queue), h);
    }
    QueueState &qs = *queues_[static_cast<size_t>(queue)];
    qs.stats.rxPkts++;

    sim::Tick extra = 0;
    util::SlabHandle *h = rxByFlow_.find(pkt->flow());
    if (h != nullptr && pkt->payloadSize() > 0) {
        FlowContext &ctx = ctxArena_.at(*h);
        extra = touchContext(ctx, &qs.stats);
        processRxOffload(*pkt, ctx);
    }

    // Same-tick handoffs coalesce into one event per distinct tick:
    // the batch drains in arrival order, so delivery order (and every
    // delivery tick) matches the unbatched schedule exactly.
    sim::Tick due = sim_.now() + cfg_.rxLatency + extra;
    for (RxPending &b : rxPending_) {
        if (b.due == due) {
            b.pkts.push_back(std::move(pkt));
            b.queues.push_back(queue);
            return;
        }
    }
    RxPending b;
    if (!rxPendingFree_.empty()) {
        b = std::move(rxPendingFree_.back());
        rxPendingFree_.pop_back();
    }
    b.due = due;
    b.pkts.push_back(std::move(pkt));
    b.queues.push_back(queue);
    rxPending_.push_back(std::move(b));
    sim_.scheduleAt(due, [this, due] { flushRx(due); });
}

void
Nic::flushRx(sim::Tick due)
{
    for (size_t i = 0; i < rxPending_.size(); i++) {
        if (rxPending_[i].due != due)
            continue;
        RxPending b = std::move(rxPending_[i]);
        rxPending_.erase(rxPending_.begin() + static_cast<ptrdiff_t>(i));
        for (size_t k = 0; k < b.pkts.size(); k++)
            deliverToQueue(b.queues[k], std::move(b.pkts[k]));
        b.pkts.clear();
        b.queues.clear();
        rxPendingFree_.push_back(std::move(b));
        return;
    }
    panic("nic rx flush with no pending batch at tick %llu",
          static_cast<unsigned long long>(due));
}

void
Nic::deliverToQueue(int queue, net::PacketPtr pkt)
{
    // One completion interrupt per packet.
    QueueState &q = *queues_[static_cast<size_t>(queue)];
    q.stats.compIrqs++;
    stats_.irqsFired++;
    trace_->record(sim_.now(), sim::TraceKind::IrqFire, name_,
                   static_cast<uint64_t>(queue), 1);
    if (onRxInterrupt_)
        onRxInterrupt_(queue, std::move(pkt));
}

void
Nic::processRxOffload(net::Packet &pkt, FlowContext &ctx)
{
    const net::TcpHeader th = pkt.tcp();

    PacketResult res;
    bool processed = ctx.fsm().segment(ctx.posOf(th.seq), pkt.payloadMut(), res);

    net::RxOffloadMeta meta;
    meta.kind = ctx.engine().kind();
    meta.offloaded = processed;
    for (size_t k = 0; k < net::kL5KindCount; k++)
        meta.verify[k] = res.tagFailed ? net::VerifyOutcome::Failed
                                       : res.verify[k];
    meta.placed = std::move(res.placed);
    pkt.rx = std::move(meta);

    if (processed) {
        stats_.rxOffloadedPkts++;
        ctx.advanceTo(th.seq + static_cast<uint32_t>(pkt.payloadSize()));
    }
}

// -------------------------------------------------------- context cache

sim::Tick
Nic::touchContext(FlowContext &ctx, QueueStats *qs)
{
    if (ctx.resident_) {
        stats_.ctxCacheHits++;
        if (qs != nullptr)
            qs->ctxHits++;
        if (lruHead_ != &ctx) {
            lruUnlink(ctx);
            lruPushFront(ctx);
        }
        return 0;
    }
    stats_.ctxCacheMisses++;
    if (qs != nullptr)
        qs->ctxMisses++;
    pcie_.ctxFetchBytes += cfg_.ctxBytes;
    trace_->record(sim_.now(), sim::TraceKind::CtxFetch, name_, ctx.id(),
                   cfg_.ctxBytes);
    // Write back from the cold end until the fetched context fits;
    // the queue whose miss forced the evictions is charged for them.
    while (ctxResident_ >= cfg_.ctxCacheCapacity) {
        FlowContext &victim = *lruTail_;
        lruUnlink(victim);
        onCtxEvict(victim.id(), qs);
    }
    lruPushFront(ctx);
    return cfg_.ctxFetchLatency;
}

void
Nic::onCtxEvict(uint64_t ctxId, QueueStats *qs)
{
    stats_.ctxCacheEvictions++;
    if (qs != nullptr)
        qs->evictions++;
    pcie_.ctxWritebackBytes += cfg_.ctxBytes;
    trace_->record(sim_.now(), sim::TraceKind::CtxEvict, name_, ctxId,
                   cfg_.ctxBytes);
}

void
Nic::lruPushFront(FlowContext &ctx)
{
    ctx.lruPrev_ = nullptr;
    ctx.lruNext_ = lruHead_;
    if (lruHead_ != nullptr)
        lruHead_->lruPrev_ = &ctx;
    else
        lruTail_ = &ctx;
    lruHead_ = &ctx;
    ctx.resident_ = true;
    ctxResident_++;
}

void
Nic::lruUnlink(FlowContext &ctx)
{
    if (ctx.lruPrev_ != nullptr)
        ctx.lruPrev_->lruNext_ = ctx.lruNext_;
    else
        lruHead_ = ctx.lruNext_;
    if (ctx.lruNext_ != nullptr)
        ctx.lruNext_->lruPrev_ = ctx.lruPrev_;
    else
        lruTail_ = ctx.lruPrev_;
    ctx.resident_ = false;
    ctxResident_--;
}

void
Nic::freeContext(util::SlabHandle h)
{
    // Destruction drops a resident context without a writeback: not
    // an eviction.
    FlowContext &ctx = ctxArena_.at(h);
    if (ctx.resident_)
        lruUnlink(ctx);
    ctxArena_.free(h);
}

// ------------------------------------------------------ context mgmt

uint64_t
Nic::createRxContext(const net::FlowKey &flow,
                     std::unique_ptr<L5Engine> engine, uint32_t tcpsn,
                     uint64_t msgIdx)
{
    uint64_t id = nextCtxId_++;
    ANIC_ASSERT(rxByFlow_.find(flow) == nullptr,
                "rx context already exists for flow");
    util::SlabHandle h = ctxArena_.alloc(
        id, std::move(engine), [this, id](uint64_t reqId, uint32_t seq) {
            if (onResyncRequest_) {
                pcie_.descriptorBytes += cfg_.descriptorBytes;
                onResyncRequest_(id, reqId, seq);
            }
        });
    FlowContext &ctx = ctxArena_.at(h);
    installFsmHooks(ctx);
    ctx.arm(tcpsn, msgIdx);
    rxByFlow_.emplace(flow, h);
    rxById_.emplace(id, RxRef{h, flow});
    pcie_.descriptorBytes += cfg_.ctxBytes; // initial state download
    touchContext(ctx);
    return id;
}

uint64_t
Nic::createTxContext(std::unique_ptr<L5Engine> engine, uint32_t tcpsn,
                     uint64_t msgIdx)
{
    uint64_t id = nextCtxId_++;
    TxCtx tc;
    tc.ctx = ctxArena_.alloc(id, std::move(engine), nullptr);
    FlowContext &ctx = ctxArena_.at(tc.ctx);
    installFsmHooks(ctx);
    ctx.arm(tcpsn, msgIdx);
    tc.expectedSeq = tcpsn;
    txById_.emplace(id, tc);
    pcie_.descriptorBytes += cfg_.ctxBytes;
    touchContext(ctx);
    return id;
}

void
Nic::destroyRxContext(uint64_t id)
{
    RxRef *r = rxById_.find(id);
    if (r == nullptr)
        return;
    RxRef ref = *r; // copy out: erase invalidates the pointer
    rxById_.erase(id);
    rxByFlow_.erase(ref.flow);
    freeContext(ref.ctx);
}

void
Nic::destroyTxContext(uint64_t id)
{
    TxCtx *tc = txById_.find(id);
    if (tc == nullptr)
        return;
    freeContext(tc->ctx);
    txById_.erase(id);
}

void
Nic::rxResyncResponse(uint64_t ctxId, uint64_t reqId, bool ok, uint64_t msgIdx)
{
    RxRef *r = rxById_.find(ctxId);
    if (r == nullptr)
        return;
    pcie_.descriptorBytes += cfg_.descriptorBytes;
    ctxArena_.at(r->ctx).fsm().confirm(reqId, ok, msgIdx);
}

void
Nic::applyTxResync(const TxResyncCmd &cmd)
{
    TxCtx *tc = txById_.find(cmd.ctxId);
    if (tc == nullptr)
        return; // context destroyed while the command was in flight
    FlowContext &ctx = ctxArena_.at(tc->ctx);
    stats_.txResyncs++;
    trace_->record(sim_.now(), sim::TraceKind::TxResync, name_, cmd.ctxId,
                   cmd.tcpsn, cmd.rebuildLen);
    touchContext(ctx);

    // The NIC re-reads the message bytes preceding the retransmitted
    // packet from host memory to rebuild the engine state (the PCIe
    // overhead Figure 16b measures).
    pcie_.ctxRecoveryBytes += cmd.rebuildLen;

    uint32_t msg_start = cmd.tcpsn - cmd.rebuildLen;
    ctx.arm(msg_start, cmd.msgIdx);
    if (cmd.rebuildLen > 0) {
        // Replay the pinned message's prefix where it lies: the
        // engine redoes the original pass's state updates and writes
        // nothing.
        ctx.fsm().replay(ctx.posOf(msg_start),
                         ByteView(*cmd.msg).first(cmd.rebuildLen));
    }
    tc->expectedSeq = cmd.tcpsn;
    ctx.advanceTo(cmd.tcpsn);
}

L5Engine *
Nic::rxEngine(uint64_t ctxId)
{
    RxRef *r = rxById_.find(ctxId);
    return r == nullptr ? nullptr : &ctxArena_.at(r->ctx).engine();
}

L5Engine *
Nic::txEngine(uint64_t ctxId)
{
    TxCtx *tc = txById_.find(ctxId);
    return tc == nullptr ? nullptr : &ctxArena_.at(tc->ctx).engine();
}

uint32_t
Nic::txExpectedSeq(uint64_t ctxId) const
{
    const TxCtx *tc = txById_.find(ctxId);
    ANIC_ASSERT(tc != nullptr);
    return tc->expectedSeq;
}

const FsmStats *
Nic::rxFsmStats(uint64_t ctxId) const
{
    const RxRef *r = rxById_.find(ctxId);
    return r == nullptr ? nullptr : &ctxArena_.get(r->ctx)->fsm().stats();
}

} // namespace anic::nic
