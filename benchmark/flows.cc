/**
 * @file
 * flows_many: 100,000 TLS flows, five times the NIC's 20K-context
 * cache. An open-loop generator issues 500K requests/s over the flows
 * by Zipf(0.99) rank and cycles 0.2 of the flows per second (close and
 * reopen under a new port). Each request is a 16 B record the server
 * receives with rx offload; each response is a 1 KiB record it sends
 * with tx offload.
 *
 * Requests to one flow wait in a per-flow FIFO, so a request's latency
 * runs from its due tick and includes any wait behind the previous
 * request or a reconnect. The rx offload puts the NIC's context fetch
 * on the request's critical path, so latency responds to the cache hit
 * rate; this is the workload where per-flow state (flow tables,
 * context fetch/evict, connection setup and teardown) and per-packet
 * cost of tiny packets dominate.
 *
 * The link is clean. With loss, a lost response stalls the hottest
 * flows' FIFOs for a whole RTO (the Zipf head takes ~8% of requests),
 * so p99 measured how many losses hit the head in the window: 9 to 26
 * ms across four seeds. Retransmission through tx contexts is covered
 * by storage_rw.
 */

#include "audit.hh"
#include "bench.hh"
#include "tls/ktls.hh"
#include "units.hh"
#include "util/rand.hh"

namespace anicbench {

namespace {

using anic::tcp::TcpConnection;
using anic::tls::TlsSocket;

constexpr int kFlows = 100000;
constexpr int kListenPorts = 16; ///< spreads flows over 16 port spaces
constexpr uint16_t kBasePort = 443;
constexpr size_t kReqBytes = 16;
constexpr size_t kRespBytes = 1024;
constexpr uint64_t kTlsSecret = 0xf10;
constexpr double kZipfSkew = 0.99;
constexpr double kChurnPerSec = 0.2; ///< fraction of flows cycled per second
constexpr Tick kStagger = 200 * kNanosecond;
constexpr Tick kIssueTick = 10 * kMicrosecond;
constexpr int kReqPerTick = 5; ///< 500K requests/s
constexpr Tick kReaperTick = 2 * kMillisecond;

class Flows : public Workload
{
  public:
    explicit Flows(uint64_t seed)
        : seed_(seed), reqSeed_(subSeed(seed, 2)), respSeed_(subSeed(seed, 8)),
          zipf_(kFlows, kZipfSkew, subSeed(seed, 9)),
          churnRng_(subSeed(seed, 10)), reqBuf_(kReqBytes),
          respBuf_(kRespBytes)
    {
        srvTls_.rxOffload = true;
        srvTls_.txOffload = true;
        srvTls_.recordSize = kRespBytes;
        srvTls_.aggregate = &srvAgg_;
        cliTls_.aggregate = &cliAgg_;
    }

    void
    build() override
    {
        WorldConfig wc;
        wc.srvCores = 4;
        wc.genCores = 8;
        // Small per-flow socket buffers: at 10^5 flows the send rings
        // dominate the heap. Responses are one 1 KiB record.
        wc.srvTcp.sndBufSize = 4 << 10;
        wc.srvTcp.rcvBufSize = 8 << 10;
        wc.genTcp.sndBufSize = 512;
        wc.genTcp.rcvBufSize = 16 << 10;
        wc.seed = seed_;
        w_ = std::make_unique<World>(wc);
        for (int i = 0; i < kListenPorts; i++) {
            w_->srv.stack().listen(static_cast<uint16_t>(kBasePort + i),
                                   w_->srv.tcpConfig(),
                                   [this](TcpConnection &c) { accept(c); });
        }
    }

    /** Staggered ramp; returns once every flow is established. */
    void
    connect() override
    {
        connecting_ = true;
        tally(heap.app, [&] {
            slots_.reserve(kFlows);
            for (int i = 0; i < kFlows; i++)
                slots_.push_back(std::make_unique<Slot>());
        });
        heap.flows = kFlows;
        for (size_t i = 0; i < kFlows; i++) {
            w_->sim.schedule(static_cast<Tick>(i) * kStagger,
                             [this, i] { openSlot(i); });
        }
        w_->sim.runFor(static_cast<Tick>(kFlows) * kStagger);
        for (int ms = 0; established_ < kFlows; ms++) {
            ANIC_ASSERT(ms < 1000, "%d of %d flows connected", established_,
                        kFlows);
            w_->sim.runFor(kMillisecond);
        }
        connecting_ = false;
    }

    void
    start() override
    {
        issueTick();
        reaperTick();
    }

    void stopIssuing() override { issuing_ = false; }

    World &world() override { return *w_; }

    void
    report(Metrics &m) const override
    {
        double classified = static_cast<double>(
            srvAgg_.rxFullyOffloaded + srvAgg_.rxPartiallyOffloaded +
            srvAgg_.rxNotOffloaded);
        m.add("offload.full_frac", "ratio",
              ratio(static_cast<double>(srvAgg_.rxFullyOffloaded), classified));
        m.add("tls.partial_frac", "ratio",
              ratio(static_cast<double>(srvAgg_.rxPartiallyOffloaded),
                    classified));
        m.add("tls.none_frac", "ratio",
              ratio(static_cast<double>(srvAgg_.rxNotOffloaded), classified));
    }

    void
    audit(Audit &a) const override
    {
        auditTls(a, "srv tls rx", srvAgg_);
        auditTls(a, "gen tls rx", cliAgg_);
    }

  private:
    enum class State : uint8_t
    {
        Connecting,
        Idle,     ///< established, no request outstanding
        Busy,     ///< awaiting a response
        Draining, ///< close() sent; the reaper reopens it once closed
    };

    struct Slot
    {
        State state = State::Connecting;
        TcpConnection *raw = nullptr;
        std::unique_ptr<TlsSocket> tls;
        std::vector<Tick> fifo; ///< due ticks; front is outstanding if Busy
        size_t expect = 0;      ///< response bytes still due
        uint64_t sentOff = 0;   ///< request plaintext sent on this conn
    };

    struct SrvConn
    {
        TcpConnection *raw = nullptr;
        std::unique_ptr<TlsSocket> tls;
        size_t reqPend = 0;   ///< request bytes collected
        size_t respOwed = 0;  ///< response bytes TLS has not accepted
        uint64_t sentOff = 0; ///< response plaintext sent on this conn
    };

    // ------------------------------------------------- client side

    void
    openSlot(size_t i)
    {
        Slot &s = *slots_[i];
        s.state = State::Connecting;
        s.sentOff = 0;
        uint16_t port = static_cast<uint16_t>(kBasePort + i % kListenPorts);
        TcpConnection *c = nullptr;
        tally(heap.tcp, [&] {
            c = &w_->gen.stack().connect(World::kGenIp, World::kSrvIp, port,
                                         w_->gen.tcpConfig());
        });
        s.raw = c;
        c->setOnConnected([this, i, c] {
            Slot &sl = *slots_[i];
            tally(heap.tls, [&] {
                sl.tls = std::make_unique<TlsSocket>(
                    *c, anic::tls::SessionKeys::derive(kTlsSecret, true),
                    cliTls_);
            });
            sl.tls->setOnReadable([this, i] { onSlotReadable(i); });
            sl.state = State::Idle;
            established_++;
            if (!sl.fifo.empty())
                sendNext(sl);
        });
    }

    void
    sendNext(Slot &s)
    {
        s.state = State::Busy;
        s.expect = kRespBytes;
        anic::fillDeterministic(reqBuf_, reqSeed_, s.sentOff);
        size_t acc = s.tls->send(reqBuf_);
        ANIC_ASSERT(acc == kReqBytes, "request did not fit");
        s.sentOff += acc;
    }

    void
    onSlotReadable(size_t i)
    {
        Slot &s = *slots_[i];
        while (s.tls->readable()) {
            anic::tcp::RxSegment seg = s.tls->pop();
            if (!anic::checkDeterministic(seg.data, respSeed_, seg.streamOff))
                integrityFailures++;
            appBytes += seg.data.size();
            ANIC_ASSERT(s.state == State::Busy && seg.data.size() <= s.expect,
                        "response bytes without an outstanding request");
            s.expect -= seg.data.size();
            if (s.expect == 0) {
                ops.completed(s.fifo.front(), w_->sim.now(), true);
                s.fifo.erase(s.fifo.begin());
                s.state = State::Idle;
                if (!s.fifo.empty())
                    sendNext(s);
            }
        }
    }

    /** Issues Zipf-selected requests and paces churn. */
    void
    issueTick()
    {
        if (!issuing_)
            return;
        Tick now = w_->sim.now();
        for (int r = 0; r < kReqPerTick; r++) {
            size_t i = zipf_.next();
            Slot &s = *slots_[i];
            s.fifo.push_back(now);
            ops.issued(now);
            if (s.state == State::Idle) {
                // The client sends from its connection's core.
                s.state = State::Busy;
                s.tls->core().post([this, i] { sendNext(*slots_[i]); });
            }
        }

        churnCredit_ += kFlows * kChurnPerSec * units::seconds(kIssueTick);
        while (churnCredit_ >= 1.0) {
            churnCredit_ -= 1.0;
            size_t i = churnRng_.below(kFlows);
            Slot &s = *slots_[i];
            if (s.state != State::Idle || !s.fifo.empty())
                continue; // only cycle quiescent flows
            s.state = State::Draining;
            s.tls->close();
            established_--;
            draining_.push_back(i);
        }
        w_->sim.schedule(kIssueTick, [this] { issueTick(); });
    }

    /**
     * Tears down fully closed connections on both sides (destroying the
     * TLS socket first releases its NIC contexts) and reopens churned
     * client slots under a fresh port: same popularity rank, new flow.
     */
    void
    reaperTick()
    {
        size_t kept = 0;
        for (size_t idx : draining_) {
            Slot &s = *slots_[idx];
            if (s.raw->state() == TcpConnection::State::Closed) {
                s.tls.reset();
                w_->gen.stack().destroy(*s.raw);
                s.raw = nullptr;
                openSlot(idx);
            } else {
                draining_[kept++] = idx;
            }
        }
        draining_.resize(kept);

        kept = 0;
        for (size_t idx : srvClosing_) {
            SrvConn &sc = *srvConns_[idx];
            if (sc.raw->state() == TcpConnection::State::Closed) {
                sc.tls.reset();
                w_->srv.stack().destroy(*sc.raw);
                srvConns_[idx].reset();
                srvFree_.push_back(idx);
            } else {
                srvClosing_[kept++] = idx;
            }
        }
        srvClosing_.resize(kept);
        w_->sim.schedule(kReaperTick, [this] { reaperTick(); });
    }

    // ------------------------------------------------- server side

    void
    accept(TcpConnection &c)
    {
        size_t idx;
        if (!srvFree_.empty()) {
            idx = srvFree_.back();
            srvFree_.pop_back();
            srvConns_[idx] = std::make_unique<SrvConn>();
        } else {
            idx = srvConns_.size();
            srvConns_.push_back(std::make_unique<SrvConn>());
        }
        SrvConn &sc = *srvConns_[idx];
        sc.raw = &c;
        tally(heap.tls, [&] {
            sc.tls = std::make_unique<TlsSocket>(
                c, anic::tls::SessionKeys::derive(kTlsSecret, false), srvTls_);
        });
        // On the SYN, so the rx context starts in step with record 0.
        install([&] { sc.tls->enableOffload(w_->srv.device()); });
        sc.tls->setOnReadable([this, idx] { srvReadable(idx); });
        sc.tls->setOnWritable([this, idx] { srvPump(idx); });
        sc.tls->setOnPeerClosed([this, idx] { srvPeerClosed(idx); });
    }

    void
    srvReadable(size_t idx)
    {
        SrvConn &sc = *srvConns_[idx];
        while (sc.tls->readable()) {
            anic::tcp::RxSegment seg = sc.tls->pop();
            if (!anic::checkDeterministic(seg.data, reqSeed_, seg.streamOff))
                integrityFailures++;
            appBytes += seg.data.size();
            sc.reqPend += seg.data.size();
        }
        while (sc.reqPend >= kReqBytes) {
            sc.reqPend -= kReqBytes;
            sc.respOwed += kRespBytes;
        }
        srvPump(idx);
    }

    void
    srvPump(size_t idx)
    {
        SrvConn &sc = *srvConns_[idx];
        while (sc.respOwed > 0) {
            size_t n = std::min(sc.respOwed, kRespBytes);
            anic::ByteSpan out = anic::ByteSpan(respBuf_).subspan(0, n);
            anic::fillDeterministic(out, respSeed_, sc.sentOff);
            size_t acc = sc.tls->send(out);
            sc.sentOff += acc;
            sc.respOwed -= acc;
            if (acc < n)
                return; // ring full; onWritable resumes
        }
    }

    void
    srvPeerClosed(size_t idx)
    {
        SrvConn &sc = *srvConns_[idx];
        sc.tls->close();
        srvClosing_.push_back(idx);
    }

    uint64_t seed_;
    uint64_t reqSeed_;
    uint64_t respSeed_;
    anic::ZipfGen zipf_;
    anic::Rng churnRng_;
    anic::Bytes reqBuf_;
    anic::Bytes respBuf_;
    anic::tls::TlsConfig srvTls_;
    anic::tls::TlsConfig cliTls_;
    anic::tls::TlsStats srvAgg_;
    anic::tls::TlsStats cliAgg_;
    std::unique_ptr<World> w_;

    std::vector<std::unique_ptr<Slot>> slots_;
    std::vector<size_t> draining_;
    std::vector<std::unique_ptr<SrvConn>> srvConns_;
    std::vector<size_t> srvFree_;
    std::vector<size_t> srvClosing_;

    int established_ = 0;
    bool issuing_ = true;
    double churnCredit_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeFlowsMany(uint64_t seed)
{
    return std::make_unique<Flows>(seed);
}

} // namespace anicbench
