#include "app/iperf.hh"

#include "util/panic.hh"

namespace anic::app {

namespace {

/** Session-key secret both ends derive from (stands in for the
 *  handshake). */
constexpr uint64_t kTlsSecret = 0x1beef;

} // namespace

IperfRun::IperfRun(core::Node &sender, net::IpAddr senderIp,
                   core::Node &receiver, net::IpAddr receiverIp,
                   IperfConfig cfg)
    : sender_(sender), senderIp_(senderIp), receiver_(receiver),
      receiverIp_(receiverIp), cfg_(std::move(cfg)),
      scope_(receiver.subScope("iperf")), txScope_(sender.subScope("iperfTx"))
{
    cfg_.serverTls.aggregate = &rxTlsAgg_;
    cfg_.clientTls.aggregate = &txTlsAgg_;
    scope_.link("bytesReceived", bytesReceived_);
    scope_.link("corruptions", corruptions_);
    scope_.link("goodput", meter_);
    tls::linkTlsStats(scope_, "tls", rxTlsAgg_);
    tls::linkTlsStats(txScope_, "tls", txTlsAgg_);
}

void
IperfRun::start()
{
    // Server side: one listener; each accepted connection binds to
    // the next stream (in connect order, which the simulator makes
    // deterministic).
    receiver_.stack().listen(
        cfg_.port, receiver_.tcpConfig(), [this](tcp::TcpConnection &c) {
            // Accept order is not connect order when handshake packets
            // are lost, so all streams share one key/content seed.
            size_t idx = static_cast<size_t>(acceptIdx_++);
            ANIC_ASSERT(idx < streams_.size());
            Stream *s = streams_[idx].get();
            if (cfg_.tlsEnabled) {
                s->rxTls = std::make_unique<tls::TlsSocket>(
                    c, tls::SessionKeys::derive(kTlsSecret, false),
                    cfg_.serverTls);
                s->rxTls->enableOffload(receiver_.device());
                s->rx = s->rxTls.get();
            } else {
                s->rx = &c;
            }
            s->rx->setOnReadable([this, s] {
                while (s->rx->readable()) {
                    tcp::RxSegment seg = s->rx->pop();
                    if (cfg_.verifyContent &&
                        !checkDeterministic(seg.data, s->seed,
                                            seg.streamOff)) {
                        corruptions_++;
                    }
                    s->received += seg.data.size();
                    bytesReceived_ += seg.data.size();
                    meter_.add(seg.data.size());
                }
            });
        });

    for (int i = 0; i < cfg_.streams; i++) {
        auto stream = std::make_unique<Stream>();
        stream->run = this;
        stream->seed = 1000; // shared across streams; see accept note
        Stream *sp = stream.get();
        streams_.push_back(std::move(stream));

        tcp::TcpConnection &c = sender_.stack().connect(
            senderIp_, receiverIp_, cfg_.port, sender_.tcpConfig());
        sp->rawTx = &c;
        c.setOnConnected([this, sp, &c] {
            if (cfg_.tlsEnabled) {
                sp->txTls = std::make_unique<tls::TlsSocket>(
                    c, tls::SessionKeys::derive(kTlsSecret, true),
                    cfg_.clientTls);
                sp->txTls->enableOffload(sender_.device());
                sp->tx = sp->txTls.get();
            } else {
                sp->tx = &c;
            }
            sp->tx->setOnWritable([sp] { sp->pumpSend(); });
            connected_++;
            sp->pumpSend();
        });
    }
}

void
IperfRun::Stream::pumpSend()
{
    // One application message per work item (a send() syscall): the
    // transport consumes what it can, and the continuation is
    // re-posted so receive/ack processing on the same core
    // interleaves — like a real sender blocking in send() while
    // softirqs run. Writing everything in one item would starve ack
    // processing and collapse the congestion window.
    size_t n = run->cfg_.sendChunk;
    Bytes chunk(n);
    fillDeterministic(chunk, seed, sent);
    size_t acc = tx->send(chunk);
    if (!run->cfg_.tlsEnabled && acc > 0) {
        // Plain TCP: the socket layer does not charge; account the
        // send syscall and the user->skb copy so the "tcp" baseline
        // is not artificially free.
        const host::CycleModel &m = tx->core().model();
        tx->core().charge(m.syscallCost + m.copyLlcPerByte * acc);
    }
    sent += acc;
    if (acc == n)
        tx->core().post([this] { pumpSend(); });
    // else: resume via the writable callback.
}

void
IperfRun::measureStart()
{
    meter_.start(receiver_.sim().now());
}

void
IperfRun::measureStop()
{
    meter_.stop(receiver_.sim().now());
}

tls::TlsStats
IperfRun::receiverTlsStats() const
{
    tls::TlsStats total;
    for (const auto &s : streams_) {
        if (!s->rxTls)
            continue;
        const tls::TlsStats &st = s->rxTls->stats();
        total.recordsRx += st.recordsRx;
        total.rxFullyOffloaded += st.rxFullyOffloaded;
        total.rxPartiallyOffloaded += st.rxPartiallyOffloaded;
        total.rxNotOffloaded += st.rxNotOffloaded;
        total.tagFailures += st.tagFailures;
        total.rxResyncRequests += st.rxResyncRequests;
        total.rxResyncConfirmed += st.rxResyncConfirmed;
        total.plaintextBytesRx += st.plaintextBytesRx;
    }
    return total;
}

tls::TlsStats
IperfRun::senderTlsStats() const
{
    tls::TlsStats total;
    for (const auto &s : streams_) {
        if (!s->txTls)
            continue;
        const tls::TlsStats &st = s->txTls->stats();
        total.recordsTx += st.recordsTx;
        total.txMsgStateUpcalls += st.txMsgStateUpcalls;
        total.plaintextBytesTx += st.plaintextBytesTx;
    }
    return total;
}

} // namespace anic::app
