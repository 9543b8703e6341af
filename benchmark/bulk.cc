/**
 * @file
 * The two bulk-transfer workloads: iperf-style streams whose receiver
 * verifies every byte, timed per 64 KiB application message from the
 * moment its first byte enters the sender's socket to the moment its
 * last byte reaches the receiving application.
 *
 *  - tcp_bulk: plain TCP, 64 streams, 4 server + 4 generator cores,
 *    clean link. Only the transport path works: event queue, packet
 *    pool, link, NIC queues and interrupts, TCP. It is the control for
 *    any offload or crypto change, which must not move it.
 *  - tls_rx_lossy: TLS with 16 KiB records and NIC rx offload on one
 *    saturated server core, 1% loss and 1% reorder toward the server.
 *    It exercises the stream FSM's search/track/resync, the partial-
 *    record software fallback and AES-GCM on both sides.
 */

#include <deque>
#include <unordered_map>

#include "audit.hh"
#include "bench.hh"
#include "tls/ktls.hh"
#include "util/rand.hh"

namespace anicbench {

namespace {

using anic::tcp::StreamSocket;
using anic::tcp::TcpConnection;
using anic::tls::TlsSocket;

constexpr uint16_t kPort = 5201;
constexpr size_t kMsgBytes = 64 << 10; ///< one send(), one timed message
constexpr size_t kSndBuf = 128 << 10;  ///< per-stream sender socket buffer
constexpr uint64_t kTlsSecret = 0x1beef;
/** Streams open at seed-drawn instants over this span, so their
 *  congestion windows are out of phase as in a real fleet. */
constexpr Tick kOpenSpread = 1 * kMillisecond;

struct BulkParams
{
    int streams;
    int srvCores;
    int genCores;
    bool tls;
    double lossToSrv;
    double reorderToSrv;
};

class Bulk : public Workload
{
  public:
    Bulk(const BulkParams &p, uint64_t seed)
        : p_(p), seed_(seed), payloadSeed_(subSeed(seed, 2)), chunk_(kMsgBytes)
    {
    }

    void
    build() override
    {
        WorldConfig wc;
        wc.srvCores = p_.srvCores;
        wc.genCores = p_.genCores;
        wc.link.dir[0].lossRate = p_.lossToSrv;
        wc.link.dir[0].reorderRate = p_.reorderToSrv;
        // Message latency is queueing behind full send buffers (Little's
        // law); small buffers let it reach steady state inside the
        // warm-up instead of drifting through the window.
        wc.genTcp.sndBufSize = kSndBuf;
        wc.seed = seed_;
        w_ = std::make_unique<World>(wc);
        w_->srv.stack().listen(kPort, w_->srv.tcpConfig(),
                               [this](TcpConnection &c) { accept(c); });
    }

    void
    connect() override
    {
        connecting_ = true;
        anic::Rng rng(subSeed(seed_, 3));
        for (int i = 0; i < p_.streams; i++) {
            Stream *s = streams_.emplace_back(std::make_unique<Stream>()).get();
            s->idx = static_cast<uint64_t>(i);
            w_->sim.schedule(rng.below(kOpenSpread), [this, s] { open(*s); });
        }
        w_->sim.runFor(kOpenSpread);
        for (int ms = 0; connected_ < p_.streams; ms++) {
            ANIC_ASSERT(ms < 1000, "%d of %d streams connected", connected_,
                        p_.streams);
            w_->sim.runFor(kMillisecond);
        }
        connecting_ = false;
    }

    void
    start() override
    {
        for (auto &s : streams_) {
            Stream *sp = s.get();
            sp->tx->core().post([this, sp] { pump(*sp); });
        }
    }

    // Senders keep the pipe full through the drain: later messages are
    // outside the window and are not counted.
    void stopIssuing() override {}

    World &world() override { return *w_; }

    void
    report(Metrics &m) const override
    {
        if (!p_.tls)
            return;
        double classified = static_cast<double>(
            rxAgg_.rxFullyOffloaded + rxAgg_.rxPartiallyOffloaded +
            rxAgg_.rxNotOffloaded);
        m.add("offload.full_frac", "ratio",
              ratio(static_cast<double>(rxAgg_.rxFullyOffloaded), classified));
        m.add("tls.partial_frac", "ratio",
              ratio(static_cast<double>(rxAgg_.rxPartiallyOffloaded),
                    classified));
        m.add("tls.none_frac", "ratio",
              ratio(static_cast<double>(rxAgg_.rxNotOffloaded), classified));
    }

    void
    audit(Audit &a) const override
    {
        if (p_.tls)
            auditTls(a, "srv tls rx", rxAgg_);
    }

  private:
    struct Stream
    {
        uint64_t idx = 0;
        std::unique_ptr<TlsSocket> txTls;
        std::unique_ptr<TlsSocket> rxTls;
        StreamSocket *tx = nullptr;
        StreamSocket *rx = nullptr;
        uint64_t sent = 0;     ///< stream bytes the socket accepted
        uint64_t received = 0; ///< stream bytes the receiver consumed
        uint64_t started = 0;  ///< messages whose first byte was accepted
        uint64_t finished = 0; ///< messages fully received
        std::deque<Tick> due;  ///< start ticks of unfinished messages
    };

    uint64_t streamSeed(const Stream &s) const { return payloadSeed_ + s.idx; }

    void
    open(Stream &s)
    {
        TcpConnection *c = nullptr;
        tally(heap.tcp, [&] {
            c = &w_->gen.stack().connect(World::kGenIp, World::kSrvIp, kPort,
                                         w_->gen.tcpConfig());
        });
        heap.flows++;
        byPort_[c->localFlow().srcPort] = &s;
        c->setOnConnected([this, &s, c] {
            if (p_.tls) {
                tally(heap.tls, [&] {
                    s.txTls = std::make_unique<TlsSocket>(
                        *c, anic::tls::SessionKeys::derive(kTlsSecret, true),
                        anic::tls::TlsConfig{});
                });
                s.tx = s.txTls.get();
            } else {
                s.tx = c;
            }
            s.tx->setOnWritable([this, &s] { pump(s); });
            connected_++;
        });
    }

    void
    accept(TcpConnection &c)
    {
        auto it = byPort_.find(c.localFlow().dstPort);
        ANIC_ASSERT(it != byPort_.end(), "accept from an unknown port");
        Stream &s = *it->second;
        if (p_.tls) {
            // Installed on the SYN, so the NIC starts in step with
            // record 0.
            anic::tls::TlsConfig cfg;
            cfg.rxOffload = true;
            cfg.aggregate = &rxAgg_;
            tally(heap.tls, [&] {
                s.rxTls = std::make_unique<TlsSocket>(
                    c, anic::tls::SessionKeys::derive(kTlsSecret, false), cfg);
            });
            install([&] { s.rxTls->enableOffload(w_->srv.device()); });
            s.rx = s.rxTls.get();
        } else {
            s.rx = &c;
        }
        s.rx->setOnReadable([this, &s] { drain(s); });
    }

    /** One application send() per core work item, re-posted while the
     *  socket takes everything, so ack processing on the same core
     *  interleaves as it would behind a blocking send(). */
    void
    pump(Stream &s)
    {
        anic::fillDeterministic(chunk_, streamSeed(s), s.sent);
        size_t acc = s.tx->send(chunk_);
        if (!p_.tls && acc > 0) {
            // Plain TCP sockets charge nothing themselves: account the
            // syscall and the user-to-kernel copy.
            const anic::host::CycleModel &m = s.tx->core().model();
            s.tx->core().charge(m.syscallCost + m.copyLlcPerByte *
                                                    static_cast<double>(acc));
        }
        s.sent += acc;
        Tick now = w_->sim.now();
        while (s.started * kMsgBytes < s.sent) {
            s.due.push_back(now);
            ops.issued(now);
            s.started++;
        }
        if (acc == kMsgBytes)
            s.tx->core().post([this, &s] { pump(s); });
    }

    void
    drain(Stream &s)
    {
        while (s.rx->readable()) {
            anic::tcp::RxSegment seg = s.rx->pop();
            if (!anic::checkDeterministic(seg.data, streamSeed(s),
                                          seg.streamOff))
                integrityFailures++;
            s.received += seg.data.size();
            appBytes += seg.data.size();
        }
        Tick now = w_->sim.now();
        while (!s.due.empty() && (s.finished + 1) * kMsgBytes <= s.received) {
            ops.completed(s.due.front(), now, true);
            s.due.pop_front();
            s.finished++;
        }
    }

    BulkParams p_;
    uint64_t seed_;
    uint64_t payloadSeed_;
    anic::Bytes chunk_;
    anic::tls::TlsStats rxAgg_;
    std::unique_ptr<World> w_;
    std::vector<std::unique_ptr<Stream>> streams_;
    std::unordered_map<uint16_t, Stream *> byPort_;
    int connected_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeTcpBulk(uint64_t seed)
{
    return std::make_unique<Bulk>(BulkParams{64, 4, 4, false, 0.0, 0.0}, seed);
}

std::unique_ptr<Workload>
makeTlsRxLossy(uint64_t seed)
{
    return std::make_unique<Bulk>(BulkParams{128, 1, 8, true, 0.01, 0.01},
                                  seed);
}

} // namespace anicbench
