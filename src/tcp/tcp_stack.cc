#include "tcp/tcp_stack.hh"

#include "util/panic.hh"

namespace anic::tcp {

TcpStack::TcpStack(sim::Simulator &sim, std::vector<host::Core *> cores,
                   uint64_t seed, sim::StatsScope scope,
                   sim::TraceRing *trace, net::PacketPool *pool)
    : sim_(sim), cores_(std::move(cores)), rng_(seed),
      pool_(pool != nullptr ? *pool : net::PacketPool::threadDefault()),
      scope_(std::move(scope)),
      trace_(trace != nullptr ? trace : &sim::TraceRing::global())
{
    ANIC_ASSERT(!cores_.empty(), "stack needs at least one core");
    scope_.link("dataPktsSent", agg_.dataPktsSent);
    scope_.link("dataPktsRcvd", agg_.dataPktsRcvd);
    scope_.link("acksSent", agg_.acksSent);
    scope_.link("acksRcvd", agg_.acksRcvd);
    scope_.link("retransmits", agg_.retransmits);
    scope_.link("fastRetransmits", agg_.fastRetransmits);
    scope_.link("rtoFires", agg_.rtoFires);
    scope_.link("dupAcksRcvd", agg_.dupAcksRcvd);
    scope_.link("oooPktsRcvd", agg_.oooPktsRcvd);
    scope_.link("bytesSent", agg_.bytesSent);
    scope_.link("bytesDelivered", agg_.bytesDelivered);
    scope_.link("droppedInputs", droppedInputs_);
    scope_.link("connections", connections_);
    // Congestion-control view: distributions sampled on congestion
    // events plus the ECN/retransmit counters that explain them.
    ccScope_ = scope_.child("cc");
    ccScope_.link("cwndSegs", cwndSegsDist_);
    ccScope_.link("ssthreshSegs", ssthreshSegsDist_);
    ccScope_.link("ecnCeRcvd", agg_.ecnCeRcvd);
    ccScope_.link("ecnEchoesRcvd", agg_.ecnEchoesRcvd);
    ccScope_.link("ecnCwndReductions", agg_.ecnCwndReductions);
    ccScope_.link("fastRetransmits", agg_.fastRetransmits);
    ccScope_.link("rtoFires", agg_.rtoFires);
}

void
TcpStack::addDevice(NetDevice *dev)
{
    ANIC_ASSERT(dev != nullptr);
    devices_.push_back(dev);
    dev->setOnTxSpace([this, dev] { onDeviceTxSpace(dev); });
}

NetDevice *
TcpStack::deviceFor(net::IpAddr localIp) const
{
    for (NetDevice *d : devices_) {
        if (d->ipAddr() == localIp)
            return d;
    }
    return nullptr;
}

host::Core &
TcpStack::steer(const net::FlowKey &flow) const
{
    // RSS steering: when the device models rx queues, a flow's core
    // is the one its rx queue's interrupt lands on, so stack work for
    // the flow stays on the interrupted core (no cross-core bounce).
    // @p flow is the local view (src = us); the device hashes the
    // wire view of arriving packets (src = remote), i.e. reversed().
    NetDevice *dev = deviceFor(flow.srcIp);
    if (dev != nullptr && dev->rxQueues() > 0)
        return coreForQueue(dev->rxQueueFor(flow.reversed()));
    // ARFS-style fallback: pin each flow to a core by hash.
    size_t idx = net::FlowKeyHash{}(flow) % cores_.size();
    return *cores_[idx];
}

void
TcpStack::listen(uint16_t port, const TcpConnection::Config &cfg,
                 AcceptFn onAccept)
{
    ANIC_ASSERT(listeners_.find(port) == listeners_.end(),
                "port %u already listening", port);
    listeners_.emplace(port, Listener{cfg, std::move(onAccept)});
}

TcpConnection &
TcpStack::createConnection(const net::FlowKey &local,
                           const TcpConnection::Config &cfg, host::Core *core)
{
    ANIC_ASSERT(conns_.find(local) == nullptr, "flow already exists");
    host::Core &c = core != nullptr ? *core : steer(local);
    uint32_t iss = static_cast<uint32_t>(rng_.next());
    util::SlabHandle h = connArena_.alloc(*this, c, cfg, local, iss);
    conns_.emplace(local, h);
    connections_.set(static_cast<double>(conns_.size()));
    TcpConnection &conn = connArena_.at(h);
    conn.self_ = h;
    return conn;
}

TcpConnection &
TcpStack::connect(net::IpAddr localIp, net::IpAddr dstIp, uint16_t dstPort,
                  const TcpConnection::Config &cfg, host::Core *core)
{
    ANIC_ASSERT(deviceFor(localIp) != nullptr, "no device for local ip");
    net::FlowKey local;
    local.srcIp = localIp;
    local.dstIp = dstIp;
    local.dstPort = dstPort;
    // Ephemeral port: advance until free (4-tuple uniqueness).
    for (;;) {
        local.srcPort = nextEphemeral_;
        nextEphemeral_ = nextEphemeral_ == 0xffff
                             ? 32768
                             : static_cast<uint16_t>(nextEphemeral_ + 1);
        if (conns_.find(local) == nullptr)
            break;
    }
    TcpConnection &conn = createConnection(local, cfg, core);
    conn.core().post([&conn] { conn.startConnect(); });
    return conn;
}

void
TcpStack::input(const net::PacketPtr &pkt)
{
    const net::Ipv4Header ip = pkt->ip();
    const net::TcpHeader th = pkt->tcp();

    // Local view: src = us.
    net::FlowKey key;
    key.srcIp = ip.dst;
    key.srcPort = th.dstPort;
    key.dstIp = ip.src;
    key.dstPort = th.srcPort;

    if (util::SlabHandle *h = conns_.find(key)) {
        connArena_.at(*h).onPacket(pkt);
        return;
    }

    // New connection? Only a bare SYN to a listening port qualifies.
    if ((th.flags & net::kTcpSyn) && !(th.flags & net::kTcpAck)) {
        auto lit = listeners_.find(th.dstPort);
        if (lit != listeners_.end() && deviceFor(ip.dst) != nullptr) {
            TcpConnection &conn =
                createConnection(key, lit->second.cfg, nullptr);
            conn.peerWnd_ = th.window;
            // Process the SYN first so sequence state (rcvNxt) is
            // valid when the application installs offloads in the
            // accept callback; no data can arrive in between.
            conn.startAccept(th.seq, th.flags);
            lit->second.onAccept(conn);
            return;
        }
    }
    droppedInputs_++;
}

bool
TcpStack::output(TcpConnection &conn, net::PacketPtr pkt)
{
    NetDevice *dev = deviceFor(conn.localFlow().srcIp);
    ANIC_ASSERT(dev != nullptr, "connection bound to unknown device");
    if (dev->transmit(std::move(pkt)))
        return true;
    // Register for the tx-space wakeup once, no matter how many
    // transmits bounce while the ring stays full (sendFlagsPacket
    // fires acks through here too — without the flag a busy receiver
    // behind a full ring re-registers every ack).
    if (!conn.inBlockedQueue_) {
        conn.inBlockedQueue_ = true;
        std::vector<TcpConnection *> *vec = blocked_.find(dev);
        if (vec == nullptr)
            vec = &blocked_.emplace(dev, {});
        vec->push_back(&conn);
    }
    return false;
}

void
TcpStack::onDeviceTxSpace(NetDevice *dev)
{
    std::vector<TcpConnection *> *vec = blocked_.find(dev);
    if (vec == nullptr || vec->empty())
        return;
    std::vector<TcpConnection *> conns = std::move(*vec);
    vec->clear();
    for (TcpConnection *c : conns) {
        c->inBlockedQueue_ = false;
        // Softirq-style priority: transmit redrives must not starve
        // behind queued application work on a saturated core. The
        // work item re-resolves the flow key so a connection torn
        // down (and possibly recycled) before it runs is skipped
        // instead of dereferenced.
        net::FlowKey key = c->localFlow();
        c->core().postUrgent([this, key] {
            if (util::SlabHandle *h = conns_.find(key))
                connArena_.at(*h).onDeviceWritable();
        });
    }
}

void
TcpStack::unlinkBlocked(TcpConnection &conn)
{
    if (!conn.inBlockedQueue_)
        return;
    conn.inBlockedQueue_ = false;
    NetDevice *dev = deviceFor(conn.localFlow().srcIp);
    std::vector<TcpConnection *> *vec = blocked_.find(dev);
    if (vec == nullptr)
        return;
    for (size_t i = 0; i < vec->size(); i++) {
        if ((*vec)[i] == &conn) {
            vec->erase(vec->begin() + static_cast<ptrdiff_t>(i));
            return;
        }
    }
}

void
TcpStack::destroy(TcpConnection &conn)
{
    util::SlabHandle *h = conns_.find(conn.localFlow());
    if (h == nullptr || connArena_.get(*h) != &conn)
        return; // already destroyed (double destroy is a no-op)
    // Timers may still be armed (destroy mid-flight, or FIN
    // retransmission state): invalidate their closures before the
    // slot is freed and possibly recycled.
    conn.cancelTimers();
    unlinkBlocked(conn);
    util::SlabHandle handle = *h;
    conns_.erase(conn.localFlow());
    connArena_.free(handle);
    connections_.set(static_cast<double>(conns_.size()));
}

} // namespace anic::tcp
