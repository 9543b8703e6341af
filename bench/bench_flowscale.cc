/**
 * @file
 * Flow-scale macrobenchmark: 10^5+ concurrent TLS-offloaded flows —
 * five times the NIC's context cache (4 MiB / 208 B ~ 20K contexts) —
 * under Zipf-distributed request popularity and connection churn,
 * sweeping the LRU cache's capacity and reporting the offload hit
 * rate, eviction and resync pressure, and sustained response rate per
 * point.
 *
 * The workload is request/response: a server wraps every accepted
 * connection in an offloaded-tx TlsSocket (one NIC context per flow),
 * clients send tiny requests chosen by a ZipfGen over the flow ranks
 * (rank 0 hottest), and churn closes and reopens a configurable
 * fraction of the flows per second, exercising context destroy /
 * create alongside cache replacement. Mild loss on the server->client
 * direction provokes retransmissions, so evicted contexts also pay
 * tx resyncs, not just refetches.
 *
 * The binary additionally replaces the global allocator with a
 * counting one and runs a serial probe world before the sweep to
 * report steady-state heap bytes per flow — the number the slab/flat
 * state layer (DESIGN.md §15) is accountable for. The probe runs
 * identically for any --jobs value, so stdout stays byte-identical.
 *
 * Knobs: --flows N (default 100000) plus the shared sweep options.
 * Churn (0.2 of the flows per second) and Zipf skew (0.99) are fixed.
 */

#include <atomic>
#include <cstdlib>
#include <new>

#include "bench_common.hh"
#include "util/rand.hh"

// ------------------------------------------------ counting allocator
//
// Every new/delete in the binary is counted so the probe can report
// live heap bytes. A 16-byte header keeps malloc's 16-byte alignment;
// over-aligned types take the (unreplaced, self-consistent) aligned
// operator pair and simply go uncounted.

namespace {
std::atomic<uint64_t> g_heapLive{0};
constexpr size_t kHeapHdr = 16;
} // namespace

// GCC pattern-matches delete(p) -> free(p) and flags the header
// offset as a mismatched free; the pairing is in fact consistent
// because new applies the same offset.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#pragma GCC diagnostic ignored "-Warray-bounds"

void *
operator new(std::size_t n)
{
    void *base = std::malloc(n + kHeapHdr);
    if (base == nullptr)
        throw std::bad_alloc();
    *static_cast<uint64_t *>(base) = n;
    g_heapLive.fetch_add(n, std::memory_order_relaxed);
    return static_cast<char *>(base) + kHeapHdr;
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void
operator delete(void *p) noexcept
{
    if (p == nullptr)
        return;
    char *base = static_cast<char *>(p) - kHeapHdr;
    g_heapLive.fetch_sub(*reinterpret_cast<uint64_t *>(base),
                         std::memory_order_relaxed);
    std::free(base);
}

void
operator delete[](void *p) noexcept
{
    ::operator delete(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

#pragma GCC diagnostic pop

using namespace anic;
using namespace anic::bench;

namespace {

constexpr int kListenPorts = 16; ///< spreads flows over 16 port spaces
constexpr uint16_t kBasePort = 443;
constexpr size_t kReqBytes = 16;
constexpr size_t kRespBytes = 1024;
constexpr uint64_t kTlsSecret = 0xf10;
constexpr sim::Tick kStagger = 200 * sim::kNanosecond;
constexpr sim::Tick kDriverTick = 10 * sim::kMicrosecond;
constexpr int kReqPerTick = 5; ///< 500K requests/s offered load
constexpr sim::Tick kReaperTick = 2 * sim::kMillisecond;
constexpr double kChurnPerSec = 0.2; ///< fraction of flows cycled per second
constexpr double kZipfSkew = 0.99;

struct FlowScaleParams
{
    int flows = 100000;
    size_t cacheCapacity = 20000;
};

/**
 * The flow-scale workload on a MacroWorld: a request/response server
 * with one offloaded-tx TLS context per accepted flow, and a client
 * fleet driven by a Zipf scheduler with background churn.
 */
class FlowScale
{
  public:
    FlowScale(app::MacroWorld &w, const FlowScaleParams &p)
        : w_(w), p_(p),
          zipf_(static_cast<uint32_t>(p.flows), kZipfSkew, 0xf1005),
          churnRng_(0xc4c4), reqBuf_(kReqBytes, 0), respBuf_(kRespBytes, 0)
    {
        srvTlsCfg_.txOffload = true;
        srvTlsCfg_.recordSize = kRespBytes;
        srvTlsCfg_.aggregate = &srvTlsAgg_;
        cliTlsCfg_.aggregate = &cliTlsAgg_;
        slots_.reserve(static_cast<size_t>(p.flows));
        for (int i = 0; i < p_.flows; i++)
            slots_.push_back(std::make_unique<Slot>());
        for (int i = 0; i < kListenPorts; i++) {
            w_.server.stack().listen(
                static_cast<uint16_t>(kBasePort + i), w_.server.tcpConfig(),
                [this](tcp::TcpConnection &c) { accept(c); });
        }
    }

    /** Staggered connection ramp; returns once (almost) every flow is
     *  established. */
    void
    openAll()
    {
        for (int i = 0; i < p_.flows; i++) {
            size_t idx = static_cast<size_t>(i);
            w_.sim.schedule(static_cast<sim::Tick>(i) * kStagger,
                            [this, idx] { openSlot(idx); });
        }
        w_.sim.runFor(static_cast<sim::Tick>(p_.flows) * kStagger +
                      5 * sim::kMillisecond);
        for (int tries = 0;
             established_ < p_.flows * 995 / 1000 && tries < 200; tries++) {
            w_.sim.runFor(5 * sim::kMillisecond);
        }
    }

    /** Starts the request driver and the teardown reaper. */
    void
    startLoad()
    {
        driverTick();
        reaperTick();
    }

    void
    measureStart()
    {
        measuring_ = true;
        windowResponses_ = 0;
    }
    void measureStop() { measuring_ = false; }

    int established() const { return established_; }
    uint64_t responses() const { return responses_; }
    uint64_t windowResponses() const { return windowResponses_; }
    uint64_t requestsIssued() const { return issued_; }
    uint64_t requestsSkipped() const { return skipped_; }
    uint64_t churnsCompleted() const { return churnDone_; }

  private:
    enum class SState : uint8_t
    {
        Closed,
        Connecting,
        Idle,     ///< established, no request outstanding
        Busy,     ///< awaiting a response
        Draining, ///< close() sent; reaper destroys at State::Closed
    };

    struct Slot
    {
        SState state = SState::Closed;
        tcp::TcpConnection *raw = nullptr;
        std::unique_ptr<tls::TlsSocket> tls;
        size_t expect = 0; ///< response plaintext bytes still due
    };

    struct SrvConn
    {
        tcp::TcpConnection *raw = nullptr;
        std::unique_ptr<tls::TlsSocket> tls;
        size_t reqPend = 0;  ///< request bytes collected
        size_t respOwed = 0; ///< response bytes TLS has not accepted
    };

    // ------------------------------------------------- client side

    void
    openSlot(size_t i)
    {
        Slot &s = *slots_[i];
        s.state = SState::Connecting;
        uint16_t port =
            static_cast<uint16_t>(kBasePort + i % kListenPorts);
        tcp::TcpConnection &c = w_.generator.stack().connect(
            app::MacroWorld::kGenIp, app::MacroWorld::kSrvIp, port,
            w_.generator.tcpConfig());
        s.raw = &c;
        c.setOnConnected([this, i, &c] {
            Slot &sl = *slots_[i];
            sl.tls = std::make_unique<tls::TlsSocket>(
                c, tls::SessionKeys::derive(kTlsSecret, true), cliTlsCfg_);
            sl.tls->setOnReadable([this, i] { onSlotReadable(i); });
            sl.state = SState::Idle;
            established_++;
        });
    }

    void
    onSlotReadable(size_t i)
    {
        Slot &s = *slots_[i];
        while (s.tls != nullptr && s.tls->readable()) {
            tcp::RxSegment seg = s.tls->pop();
            if (s.state != SState::Busy)
                continue; // stray bytes on a draining slot
            size_t n = std::min(s.expect, seg.data.size());
            s.expect -= n;
            if (s.expect == 0) {
                s.state = SState::Idle;
                responses_++;
                if (measuring_)
                    windowResponses_++;
            }
        }
    }

    /** Issues Zipf-selected requests and paces churn. */
    void
    driverTick()
    {
        for (int r = 0; r < kReqPerTick; r++) {
            size_t i = zipf_.next();
            issued_++;
            Slot &s = *slots_[i];
            if (s.state != SState::Idle) {
                skipped_++; // outstanding request, reconnecting, ...
                continue;
            }
            s.state = SState::Busy;
            s.expect = kRespBytes;
            size_t acc = s.tls->send(reqBuf_);
            ANIC_ASSERT(acc == kReqBytes, "request did not fit");
        }

        churnCredit_ += static_cast<double>(p_.flows) * kChurnPerSec *
                        sim::ticksToSeconds(kDriverTick);
        while (churnCredit_ >= 1.0) {
            churnCredit_ -= 1.0;
            size_t i = churnRng_.below(static_cast<uint64_t>(p_.flows));
            Slot &s = *slots_[i];
            if (s.state != SState::Idle)
                continue; // only cycle quiescent flows
            s.state = SState::Draining;
            s.tls->close();
            established_--;
            draining_.push_back(i);
        }
        w_.sim.schedule(kDriverTick, [this] { driverTick(); });
    }

    /**
     * Tears down fully-closed connections on both sides (destroying
     * the TLS socket first releases the NIC context via l5o_destroy)
     * and reopens churned client slots under a fresh ephemeral port —
     * same popularity rank, new flow identity.
     */
    void
    reaperTick()
    {
        size_t kept = 0;
        for (size_t idx : draining_) {
            Slot &s = *slots_[idx];
            if (s.raw->state() == tcp::TcpConnection::State::Closed) {
                s.tls.reset();
                w_.generator.stack().destroy(*s.raw);
                s.raw = nullptr;
                s.state = SState::Closed;
                churnDone_++;
                openSlot(idx);
            } else {
                draining_[kept++] = idx;
            }
        }
        draining_.resize(kept);

        kept = 0;
        for (size_t idx : srvClosing_) {
            SrvConn &sc = *srvConns_[idx];
            if (sc.raw->state() == tcp::TcpConnection::State::Closed) {
                sc.tls.reset(); // destroys the NIC tx context
                w_.server.stack().destroy(*sc.raw);
                srvConns_[idx].reset();
                srvFree_.push_back(idx);
            } else {
                srvClosing_[kept++] = idx;
            }
        }
        srvClosing_.resize(kept);
        w_.sim.schedule(kReaperTick, [this] { reaperTick(); });
    }

    // ------------------------------------------------- server side

    void
    accept(tcp::TcpConnection &c)
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
        sc.tls = std::make_unique<tls::TlsSocket>(
            c, tls::SessionKeys::derive(kTlsSecret, false), srvTlsCfg_);
        sc.tls->enableOffload(w_.server.device()); // l5o_create per flow
        sc.tls->setOnReadable([this, idx] { srvReadable(idx); });
        sc.tls->setOnWritable([this, idx] { srvPump(idx); });
        sc.tls->setOnPeerClosed([this, idx] { srvPeerClosed(idx); });
    }

    void
    srvReadable(size_t idx)
    {
        SrvConn &sc = *srvConns_[idx];
        while (sc.tls != nullptr && sc.tls->readable()) {
            tcp::RxSegment seg = sc.tls->pop();
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
            size_t acc = sc.tls->send(ByteView(respBuf_).subspan(0, n));
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

    app::MacroWorld &w_;
    FlowScaleParams p_;
    ZipfGen zipf_;
    Rng churnRng_;
    Bytes reqBuf_;
    Bytes respBuf_;
    tls::TlsConfig srvTlsCfg_;
    tls::TlsConfig cliTlsCfg_;
    tls::TlsStats srvTlsAgg_;
    tls::TlsStats cliTlsAgg_;

    std::vector<std::unique_ptr<Slot>> slots_;
    std::vector<size_t> draining_;
    std::vector<std::unique_ptr<SrvConn>> srvConns_;
    std::vector<size_t> srvFree_;
    std::vector<size_t> srvClosing_;

    int established_ = 0;
    bool measuring_ = false;
    uint64_t responses_ = 0;
    uint64_t windowResponses_ = 0;
    uint64_t issued_ = 0;
    uint64_t skipped_ = 0;
    uint64_t churnDone_ = 0;
    double churnCredit_ = 0;
};

struct PointResult
{
    double hitRate = 0;      ///< ctx hits / touches over the window
    double missPerResp = 0;  ///< context fetches per response
    double evictPerResp = 0; ///< evictions per response
    double respPerSec = 0;
    uint64_t txResyncs = 0;
    uint64_t churns = 0; ///< completed close/reopen cycles (whole run)
    int flowsUp = 0;     ///< established flows at window end
    size_t resident = 0; ///< cache-resident contexts at window end
};

PointResult
runPoint(sim::RunContext *ctx, const FlowScaleParams &p,
         double *heapBytesPerFlow, double *ctxBytesPerFlow)
{
    uint64_t live0 = g_heapLive.load(std::memory_order_relaxed);

    app::MacroWorld::Config wc;
    wc.serverCores = 4;
    wc.generatorCores = 8;
    wc.remoteStorage = false;
    wc.nicCfg.ctxCacheCapacity = p.cacheCapacity;
    // Mild loss toward the generator: server retransmissions hit
    // evicted contexts and show up as tx resyncs (dir 0 = toward the
    // server, dir 1 = toward the generator).
    wc.link.dir[1].lossRate = 0.001;
    // Small per-flow socket buffers: only SendRing preallocates its
    // capacity, and at 10^5 flows the rings dominate heap. Responses
    // are one 1 KiB record, requests a few dozen bytes.
    wc.serverTcp.sndBufSize = 4 << 10;
    wc.serverTcp.rcvBufSize = 8 << 10;
    wc.generatorTcp.sndBufSize = 512;
    wc.generatorTcp.rcvBufSize = 16 << 10;
    wc.run = ctx;
    app::MacroWorld w(wc);

    FlowScale fs(w, p);
    fs.openAll();
    fs.startLoad();
    w.sim.runFor(10 * sim::kMillisecond); // warm the context cache

    sim::Tick window = ctx != nullptr
                           ? ctx->scaleWindow(40 * sim::kMillisecond)
                           : 10 * sim::kMillisecond;
    nic::NicStats n0 = w.server.nicDev().stats();
    fs.measureStart();
    w.sim.runFor(window);
    fs.measureStop();
    nic::NicStats n1 = w.server.nicDev().stats();

    PointResult r;
    uint64_t hits = n1.ctxCacheHits - n0.ctxCacheHits;
    uint64_t misses = n1.ctxCacheMisses - n0.ctxCacheMisses;
    uint64_t evictions = n1.ctxCacheEvictions - n0.ctxCacheEvictions;
    uint64_t resp = fs.windowResponses();
    r.hitRate = hits + misses > 0
                    ? static_cast<double>(hits) /
                          static_cast<double>(hits + misses)
                    : 0.0;
    r.missPerResp = resp > 0 ? static_cast<double>(misses) /
                                   static_cast<double>(resp)
                             : 0.0;
    r.evictPerResp = resp > 0 ? static_cast<double>(evictions) /
                                    static_cast<double>(resp)
                              : 0.0;
    r.respPerSec = static_cast<double>(resp) / sim::ticksToSeconds(window);
    r.txResyncs = n1.txResyncs - n0.txResyncs;
    r.churns = fs.churnsCompleted();
    r.flowsUp = fs.established();
    r.resident = w.server.nicDev().ctxResident();

    // Steady-state heap, after the window so rings/pools are touched.
    if (heapBytesPerFlow != nullptr) {
        uint64_t live = g_heapLive.load(std::memory_order_relaxed);
        *heapBytesPerFlow = static_cast<double>(live - live0) /
                            static_cast<double>(p.flows);
    }
    if (ctxBytesPerFlow != nullptr) {
        *ctxBytesPerFlow =
            static_cast<double>(w.server.nicDev().ctxTableHeapBytes()) /
            static_cast<double>(p.flows);
    }

    if (ctx != nullptr) {
        emitRegistrySnapshot(*ctx, "flowscale",
                             {{"cache", tagNum(static_cast<double>(
                                            p.cacheCapacity))},
                              {"flows", tagNum(p.flows)}});
    }
    return r;
}

constexpr size_t kCaps[] = {4096, 20000};
constexpr int kCapCount = static_cast<int>(std::size(kCaps));

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opt = parseBenchCli(argc, argv);
    const int flows = opt.flows > 0 ? opt.flows : 100000;
    printHeader("flow scale: context-cache capacity under Zipf load + "
                "churn");
    std::printf("flows=%d churn=%.2f/s zipf=%.2f (20K-context cache "
                "default; --flows to change)\n\n",
                flows, kChurnPerSec, kZipfSkew);

    // Heap probe: one serial world, default capacity, measured with the
    // counting allocator. Runs before the sweep and independent of
    // --jobs, so its two stdout lines are byte-identical for any N.
    double heapPerFlow = 0, ctxPerFlow = 0;
    {
        FlowScaleParams pp;
        pp.flows = flows;
        PointResult probe = runPoint(nullptr, pp, &heapPerFlow, &ctxPerFlow);
        std::printf("heap probe (c20000): %.0f bytes/flow steady "
                    "state, %.0f of them NIC context tables\n",
                    heapPerFlow, ctxPerFlow);
        std::printf("heap probe: %d flows up, %llu churn cycles, "
                    "hit rate %.1f%%\n\n",
                    probe.flowsUp,
                    static_cast<unsigned long long>(probe.churns),
                    100.0 * probe.hitRate);
    }

    PointResult res[kCapCount];
    {
        Sweep sweep("flowscale", opt);
        for (int ci = 0; ci < kCapCount; ci++) {
            std::string label = strprintf("c%zu", kCaps[ci]);
            sweep.add(label, [&res, ci, flows](sim::RunContext &ctx) {
                FlowScaleParams p;
                p.flows = flows;
                p.cacheCapacity = kCaps[ci];
                PointResult r = runPoint(&ctx, p, nullptr, nullptr);
                res[ci] = r;
                JsonExtra tags = {
                    {"cache", tagNum(static_cast<double>(p.cacheCapacity))},
                    {"flows", tagNum(flows)},
                    {"churn", tagNum(kChurnPerSec)},
                    {"zipf", tagNum(kZipfSkew)}};
                jsonRecord(ctx, "flowscale", "hit_rate", r.hitRate, tags);
                jsonRecord(ctx, "flowscale", "resp_per_sec", r.respPerSec,
                           tags);
                jsonRecord(ctx, "flowscale", "evict_per_resp",
                           r.evictPerResp, tags);
                jsonRecord(ctx, "flowscale", "tx_resyncs",
                           static_cast<double>(r.txResyncs), tags);
            });
        }
        sweep.drain();
    }

    std::printf("%-8s %7s %10s %11s %9s %10s %9s %9s\n", "cache", "hit%",
                "fetch/resp", "evict/resp", "resyncs", "resp/s", "churns",
                "flows");
    for (int ci = 0; ci < kCapCount; ci++) {
        const PointResult &r = res[ci];
        std::printf("%-8zu %6.1f%% %10.3f %11.3f %9llu %10.0f %9llu %9d\n",
                    kCaps[ci], 100.0 * r.hitRate, r.missPerResp,
                    r.evictPerResp,
                    static_cast<unsigned long long>(r.txResyncs),
                    r.respPerSec, static_cast<unsigned long long>(r.churns),
                    r.flowsUp);
    }
    std::printf("\npaper tension (Fig 19): flows >> cache; the capacity "
                "decides how many contexts stay resident\n");
    return 0;
}
