#include "testing/differential.hh"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <memory>

#include "core/testbed.hh"
#include "host/storage.hh"
#include "iscsi/session.hh"
#include "nvmetcp/host_queue.hh"
#include "nvmetcp/target.hh"
#include "testing/invariants.hh"
#include "testing/traffic.hh"
#include "tls/ktls.hh"

namespace anic::testing {

namespace {

using core::Testbed;

constexpr uint16_t kTlsPortBase = 4000;
constexpr uint16_t kNvmePort = 4420;
constexpr uint16_t kIscsiPort = 3260;
constexpr uint16_t kIncastPort = 4600;
constexpr uint16_t kShortFlowPort = 4700;
constexpr sim::Tick kPollPeriod = 200 * sim::kMicrosecond;

std::string
fmtMsg(const char *format, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, format);
    std::vsnprintf(buf, sizeof buf, format, ap);
    va_end(ap);
    return buf;
}

/** Key-derivation secret for rotation generation @p gen of a flow. */
uint64_t
genSecret(const TlsFlowSpec &f, uint64_t gen)
{
    return f.secret + 0x9e3779b97f4a7c15ull * gen;
}

Testbed::Config
testbedCfg(const Scenario &s, nic::FsmProbe *probeA, nic::FsmProbe *probeB)
{
    Testbed::Config c;
    c.link.seed = s.wireSeed;
    if (!s.phases.empty()) {
        c.link.dir[0] = s.phases[0].dir[0];
        c.link.dir[1] = s.phases[0].dir[1];
    }
    for (core::Node::Config *n : {&c.a, &c.b}) {
        n->nicCfg.ctxCacheCapacity = s.ctxCacheCapacity;
        n->tcpCfg.cc = s.cc;
        n->tcpCfg.ecn = s.ecn;
    }
    // One probe per node: context ids are only unique per NIC.
    c.a.nicCfg.fsmProbe = probeA;
    c.b.nicCfg.fsmProbe = probeB;
    return c;
}

/**
 * One isolated execution world: its own run context (registry and
 * trace ring) and testbed, so the offload and software runs share
 * nothing. The impairment schedule is armed at construction.
 */
struct FuzzWorld
{
    sim::RunContext run{sim::RunConfig{}};
    Testbed bed;
    // Per-phase impairment pairs, indexed by scheduled events (an
    // index capture fits the inline callback budget; the structs
    // themselves would not).
    std::vector<std::array<net::Impairments, 2>> phaseImp;

    FuzzWorld(const Scenario &s, nic::FsmProbe *probeA,
              nic::FsmProbe *probeB)
        : bed(run, testbedCfg(s, probeA, probeB))
    {
        run.trace().setCapacity(1 << 16);
        run.trace().enable();
        // Phase 0 is live from t=0 (via the link config); later phase
        // boundaries and the final clean-drain switch are scheduled.
        sim::Tick at = 0;
        for (size_t i = 0; i < s.phases.size(); i++) {
            at += s.phases[i].duration;
            net::Impairments d0, d1; // clean after the last phase
            if (i + 1 < s.phases.size()) {
                d0 = s.phases[i + 1].dir[0];
                d1 = s.phases[i + 1].dir[1];
            }
            size_t slot = phaseImp.size();
            phaseImp.push_back({d0, d1});
            bed.sim.schedule(at, [this, slot] {
                bed.link.setImpairments(0, phaseImp[slot][0]);
                bed.link.setImpairments(1, phaseImp[slot][1]);
            });
        }
    }
};

/**
 * Drives one TLS flow: client on node a connects to node b, the
 * sender streams fillDeterministic(seed) plaintext in
 * record-granular chunks (so the framed ciphertext stream is
 * identical across the offload and software runs), the receiver
 * verifies every delivered byte against the same generator. Optional
 * mid-stream key rotation swaps the TlsSocket on both sides of the
 * live connection:
 *
 *  - the receiver swaps the moment it has delivered the last
 *    generation byte (zero-delay event; all old-key ciphertext has
 *    been consumed synchronously, so the new socket starts exactly at
 *    the generation boundary of the TCP stream);
 *  - the sender swaps only once the boundary is fully acked (no
 *    staged record tail, sndUna == sndNxt), which happens-after the
 *    receiver consumed — and therefore re-keyed past — the boundary.
 */
class TlsFlowDriver
{
  public:
    TlsFlowDriver(Testbed &w, const TlsFlowSpec &spec, int idx,
                  bool offload)
        : w_(w), spec_(spec), offload_(offload),
          port_(static_cast<uint16_t>(kTlsPortBase + idx))
    {
        // The accept callback fires on the SYN; sockets can only be
        // armed once the connection is established on each side.
        w_.b.stack().listen(port_, w_.b.tcpConfig(),
                            [this](tcp::TcpConnection &c) {
                                connB_ = &c;
                                c.setOnConnected(
                                    [this] { makeSocket(false); });
                            });
        w_.sim.schedule(spec_.startAt, [this] {
            tcp::TcpConnection &c = w_.a.stack().connect(
                Testbed::kIpA, Testbed::kIpB, port_, w_.a.tcpConfig());
            connA_ = &c;
            c.setOnConnected([this] { makeSocket(true); });
        });
        if (spec_.rotateEvery != 0)
            w_.sim.schedule(spec_.startAt + kPollPeriod,
                            [this] { senderPoll(); });
    }

    bool done() const { return received_ >= spec_.bytes; }
    uint64_t delivered() const { return received_; }
    bool corrupt() const { return corrupt_; }

    /** Ciphertext stream bytes the receiver's TCP delivered. */
    uint64_t
    tcpDelivered() const
    {
        tcp::TcpConnection *c = spec_.reverse ? connA_ : connB_;
        return c != nullptr ? c->stats().bytesDelivered.value() : 0;
    }

    /** End-of-run diagnostics (printed on failure by the runner). */
    std::string
    debugState() const
    {
        tcp::TcpConnection *sc = spec_.reverse ? connB_ : connA_;
        tcp::TcpConnection *rc = spec_.reverse ? connA_ : connB_;
        const tls::TlsSocket *ss = spec_.reverse ? bSock_.get() : aSock_.get();
        const tls::TlsSocket *rs = spec_.reverse ? aSock_.get() : bSock_.get();
        std::string out = fmtMsg(
            "sent=%" PRIu64 "/%" PRIu64 " recv=%" PRIu64 " gens=%" PRIu64
            "/%" PRIu64,
            sent_, spec_.bytes, received_, sendGen_, recvGen_);
        if (sc != nullptr)
            out += fmtMsg(" | snd una=%u nxt=%u retx=%" PRIu64
                          " rto=%" PRIu64,
                          sc->sndUna(), sc->sndNextByteSeq(),
                          sc->stats().retransmits.value(),
                          sc->stats().rtoFires.value());
        if (rc != nullptr)
            out += fmtMsg(" | rcv nxt=%u queued=%zu delivered=%" PRIu64,
                          rc->rcvNxt(), rc->rxQueuedBytes(),
                          rc->stats().bytesDelivered.value());
        if (ss != nullptr)
            out += fmtMsg(" | stx rec=%" PRIu64 " backlog=%zu",
                          ss->stats().recordsTx.value(), ss->txBacklog());
        if (rs != nullptr)
            out += fmtMsg(" | rrx rec=%" PRIu64 " tagfail=%" PRIu64
                          " framingerr=%" PRIu64 " resync=%" PRIu64
                          "/%" PRIu64,
                          rs->stats().recordsRx.value(),
                          rs->stats().tagFailures.value(),
                          rs->stats().framingErrors.value(),
                          rs->stats().rxResyncRequests.value(),
                          rs->stats().rxResyncConfirmed.value());
        return out;
    }

  private:
    uint64_t
    genEnd(uint64_t gen) const
    {
        if (spec_.rotateEvery == 0)
            return spec_.bytes;
        return std::min<uint64_t>(spec_.bytes,
                                  (gen + 1) * spec_.rotateEvery);
    }

    tls::TlsSocket *
    senderSock()
    {
        return (spec_.reverse ? bSock_ : aSock_).get();
    }

    tls::TlsSocket *
    recvSock()
    {
        return (spec_.reverse ? aSock_ : bSock_).get();
    }

    /** (Re)creates one side's socket for its current generation. */
    void
    makeSocket(bool aSide)
    {
        tcp::TcpConnection *conn = aSide ? connA_ : connB_;
        bool isSender = (aSide != spec_.reverse);
        uint64_t gen = isSender ? sendGen_ : recvGen_;
        tls::TlsConfig cfg;
        cfg.recordSize = spec_.recordSize;
        cfg.txOffload = offload_ && isSender;
        cfg.rxOffload = offload_ && !isSender;
        auto &slot = aSide ? aSock_ : bSock_;
        slot.reset(); // old l5o contexts must go before the new ones
        slot = std::make_unique<tls::TlsSocket>(
            *conn, tls::SessionKeys::derive(genSecret(spec_, gen), aSide),
            cfg);
        if (offload_)
            slot->enableOffload(aSide ? w_.a.device(0) : w_.b.device(0));
        if (isSender) {
            slot->setOnWritable([this] { pump(); });
            pump();
        } else {
            slot->setOnReadable([this] { drain(); });
        }
    }

    void
    pump()
    {
        tls::TlsSocket *s = senderSock();
        if (s == nullptr)
            return;
        uint64_t end = genEnd(sendGen_);
        while (sent_ < end) {
            size_t n = static_cast<size_t>(
                std::min<uint64_t>(spec_.recordSize, end - sent_));
            Bytes buf(n);
            fillDeterministic(buf, spec_.seed, sent_);
            size_t acc = s->send(buf);
            sent_ += acc;
            if (acc < n)
                break;
        }
    }

    void
    drain()
    {
        tls::TlsSocket *s = recvSock();
        if (s == nullptr)
            return;
        while (s->readable()) {
            tcp::RxSegment seg = s->pop();
            // streamOff restarts at 0 in each post-rotation socket.
            if (!checkDeterministic(seg.data, spec_.seed,
                                    recvBase_ + seg.streamOff))
                corrupt_ = true;
            received_ += seg.data.size();
        }
        maybeRotateRecv();
    }

    void
    maybeRotateRecv()
    {
        if (spec_.rotateEvery == 0 || rotatePending_)
            return;
        if (received_ >= spec_.bytes || received_ < genEnd(recvGen_))
            return;
        rotatePending_ = true;
        // Defer the swap out of the delivery callback: the socket we
        // are destroying is the one that invoked drain().
        w_.sim.schedule(0, [this] {
            rotatePending_ = false;
            recvGen_++;
            recvBase_ = received_;
            makeSocket(spec_.reverse);
        });
    }

    void
    senderPoll()
    {
        tls::TlsSocket *s = senderSock();
        tcp::TcpConnection *c = spec_.reverse ? connB_ : connA_;
        if (s != nullptr && sent_ < spec_.bytes &&
            sent_ == genEnd(sendGen_) && s->txBacklog() == 0 &&
            c->sndUna() == c->sndNextByteSeq()) {
            sendGen_++;
            makeSocket(!spec_.reverse);
        }
        if (!done())
            w_.sim.schedule(kPollPeriod, [this] { senderPoll(); });
    }

    Testbed &w_;
    TlsFlowSpec spec_;
    bool offload_;
    uint16_t port_;

    tcp::TcpConnection *connA_ = nullptr;
    tcp::TcpConnection *connB_ = nullptr;
    std::unique_ptr<tls::TlsSocket> aSock_;
    std::unique_ptr<tls::TlsSocket> bSock_;

    uint64_t sent_ = 0;
    uint64_t received_ = 0;
    uint64_t sendGen_ = 0;
    uint64_t recvGen_ = 0;
    uint64_t recvBase_ = 0;
    bool rotatePending_ = false;
    bool corrupt_ = false;
};

/** NVMe-TCP's storage workload: only the host queue is offloaded. */
struct NvmeWorkload
{
    using Spec = NvmeFlowSpec;
    using Wire = nvmetcp::WireConfig;
    using Target = nvmetcp::NvmeTarget;
    using Host = nvmetcp::NvmeHostQueue;
    static constexpr uint16_t kPort = kNvmePort;
    static constexpr uint64_t kSeedSalt = 0x5eedb10cull;
    static constexpr bool kOffloadTarget = false;
    static const Spec &spec(const Scenario &s) { return s.nvme; }
};

/** iSCSI's storage workload: the offload run offloads BOTH endpoints,
 *  so reads exercise the initiator's digest/placement engines and
 *  writes the target's Data-Out placement path. */
struct IscsiWorkload
{
    using Spec = IscsiFlowSpec;
    using Wire = iscsi::IscsiWireConfig;
    using Target = iscsi::IscsiTarget;
    using Host = iscsi::IscsiInitiator;
    static constexpr uint16_t kPort = kIscsiPort;
    static constexpr uint64_t kSeedSalt = 0x15c51f10ull;
    static constexpr bool kOffloadTarget = true;
    static const Spec &spec(const Scenario &s) { return s.iscsi; }
};

/**
 * Drives one storage workload (NvmeWorkload or IscsiWorkload): target
 * + drive on node a, host endpoint on node b, a pre-generated command
 * list (identical in both runs) issued through a fixed-depth window.
 * Reads verify content against the drive's deterministic generator;
 * writes carry the same content seed so they never perturb what later
 * reads expect.
 */
template <typename W>
class StorageDriver
{
  public:
    StorageDriver(Testbed &w, const Scenario &s, bool offload)
        : w_(w), spec_(W::spec(s)), drive_(w.sim, {})
    {
        Rng r(s.seed ^ W::kSeedSalt);
        ops_.resize(spec_.ops);
        for (Op &op : ops_) {
            op.write = r.uniform() < spec_.writeRatio;
            op.len = static_cast<uint32_t>(r.range(512, spec_.maxLen));
            op.slba = r.range(0, 1u << 20);
        }
        w_.a.stack().listen(W::kPort, w_.a.tcpConfig(),
                            [this, offload](tcp::TcpConnection &c) {
                                target_ = std::make_unique<
                                    typename W::Target>(c, drive_, wc_);
                                if (!W::kOffloadTarget)
                                    return;
                                core::StorageOffloadConfig tcfg;
                                tcfg.crcRx = tcfg.copyRx = tcfg.crcTx =
                                    offload;
                                target_->enableOffload(w_.a.device(0), c,
                                                       tcfg);
                            });
        w_.sim.schedule(spec_.startAt, [this, offload] {
            tcp::TcpConnection &c = w_.b.stack().connect(
                Testbed::kIpB, Testbed::kIpA, W::kPort, w_.b.tcpConfig());
            c.setOnConnected([this, &c, offload] {
                core::StorageOffloadConfig ocfg;
                ocfg.crcRx = ocfg.copyRx = ocfg.crcTx = offload;
                host_ = std::make_unique<typename W::Host>(c, wc_, ocfg);
                connB_ = &c;
                if (offload)
                    host_->enableOffload(w_.b.device(0), c);
                issueMore();
            });
        });
    }

    bool
    done() const
    {
        if (completed_ == ops_.size())
            return true;
        return host_ != nullptr && host_->desynced() && inFlight_ == 0;
    }

    bool desynced() const { return host_ != nullptr && host_->desynced(); }
    uint64_t readsOk() const { return readsOk_; }
    uint64_t writesOk() const { return writesOk_; }
    uint64_t failures() const { return failures_; }
    bool contentMismatch() const { return contentMismatch_; }

    uint64_t
    tcpDelivered() const
    {
        return connB_ != nullptr ? connB_->stats().bytesDelivered.value()
                                 : 0;
    }

  private:
    struct Op
    {
        bool write = false;
        uint64_t slba = 0;
        uint32_t len = 0;
    };

    void
    issueMore()
    {
        while (next_ < ops_.size() && inFlight_ < spec_.qdepth &&
               !host_->desynced()) {
            const Op &op = ops_[next_++];
            inFlight_++;
            if (op.write) {
                host_->write(op.slba, op.len, drive_.config().contentSeed,
                             [this](bool ok) { onDone(ok, true); });
            } else {
                uint64_t slba = op.slba;
                host_->read(
                    op.slba, op.len,
                    [this, slba](bool ok, host::BlockBufferPtr buf) {
                        if (ok &&
                            !checkDeterministic(
                                buf->data, drive_.config().contentSeed,
                                slba))
                            contentMismatch_ = true;
                        onDone(ok, false);
                    });
            }
        }
    }

    void
    onDone(bool ok, bool write)
    {
        inFlight_--;
        completed_++;
        if (ok)
            (write ? writesOk_ : readsOk_)++;
        else
            failures_++;
        issueMore();
    }

    Testbed &w_;
    typename W::Spec spec_;
    host::NvmeDrive drive_;
    typename W::Wire wc_;
    std::unique_ptr<typename W::Target> target_;
    std::unique_ptr<typename W::Host> host_;
    tcp::TcpConnection *connB_ = nullptr;

    std::vector<Op> ops_;
    size_t next_ = 0;
    uint32_t inFlight_ = 0;
    size_t completed_ = 0;
    uint64_t readsOk_ = 0;
    uint64_t writesOk_ = 0;
    uint64_t failures_ = 0;
    bool contentMismatch_ = false;
};

/**
 * Incast fan-in: spec.senders plain-TCP connections from node a
 * converge on one acceptor port on node b. Every round releases
 * bytesPerSender more bytes to every sender at the same tick — the
 * synchronized microburst that makes the shared egress queue (and,
 * with ECN armed, the CE marker) earn its keep. All senders share one
 * content seed, so the receiver verifies any connection's bytes from
 * its own stream offset without knowing which sender it accepted.
 */
class IncastDriver
{
  public:
    IncastDriver(Testbed &w, const Scenario &s)
        : w_(w), spec_(s.incast), seed_((s.seed ^ 0x1ca5717eull) | 1)
    {
        check_.seed = seed_;
        w_.b.stack().listen(kIncastPort, w_.b.tcpConfig(),
                            [this](tcp::TcpConnection &c) {
                                c.setOnReadable([this, &c] { drain(c); });
                            });
        senders_.resize(spec_.senders);
        for (uint32_t i = 0; i < spec_.senders; i++)
            w_.sim.schedule(spec_.startAt, [this, i] {
                tcp::TcpConnection &c = w_.a.stack().connect(
                    Testbed::kIpA, Testbed::kIpB, kIncastPort,
                    w_.a.tcpConfig());
                senders_[i].conn = &c;
                c.setOnConnected([this, i] { pump(i); });
                c.setOnWritable([this, i] { pump(i); });
            });
        roundsOpen_ = 1;
        for (uint32_t k = 1; k < spec_.rounds; k++)
            w_.sim.schedule(spec_.startAt + k * spec_.gap, [this] {
                roundsOpen_++;
                for (uint32_t i = 0; i < senders_.size(); i++)
                    pump(i);
            });
    }

    uint64_t
    expectedBytes() const
    {
        return static_cast<uint64_t>(spec_.senders) * spec_.rounds *
               spec_.bytesPerSender;
    }

    bool done() const { return check_.received >= expectedBytes(); }
    uint64_t delivered() const { return check_.received; }
    bool corrupt() const { return check_.corrupt; }

  private:
    struct Sender
    {
        tcp::TcpConnection *conn = nullptr;
        uint64_t sent = 0;
        bool closed = false;
    };

    void
    pump(uint32_t i)
    {
        Sender &sn = senders_[i];
        if (sn.conn == nullptr || sn.closed)
            return;
        uint64_t target = std::min<uint64_t>(roundsOpen_, spec_.rounds) *
                          spec_.bytesPerSender;
        while (sn.sent < target) {
            size_t n = static_cast<size_t>(
                std::min<uint64_t>(4096, target - sn.sent));
            Bytes buf(n);
            fillDeterministic(buf, seed_, sn.sent);
            size_t acc = sn.conn->send(buf);
            sn.sent += acc;
            if (acc < n)
                return;
        }
        if (sn.sent >= static_cast<uint64_t>(spec_.rounds) *
                           spec_.bytesPerSender) {
            sn.closed = true;
            sn.conn->close();
        }
    }

    void
    drain(tcp::TcpConnection &c)
    {
        while (c.readable())
            check_.onSegment(c.pop());
    }

    Testbed &w_;
    IncastSpec spec_;
    uint64_t seed_;
    std::vector<Sender> senders_;
    uint32_t roundsOpen_ = 0;
    DeliveryChecker check_{};
};

/**
 * Open-loop short flows: one-shot a->b connections whose sizes and
 * exponential inter-arrival gaps are drawn from the scenario seed at
 * construction (identical in the offload and software runs). Each
 * flow connects, streams its bytes, and closes — connection churn and
 * cross traffic next to the offloaded flows.
 */
class ShortFlowDriver
{
  public:
    ShortFlowDriver(Testbed &w, const Scenario &s)
        : w_(w), spec_(s.shortFlows), seed_((s.seed ^ 0x5f10775eedull) | 1)
    {
        check_.seed = seed_;
        w_.b.stack().listen(kShortFlowPort, w_.b.tcpConfig(),
                            [this](tcp::TcpConnection &c) {
                                c.setOnReadable([this, &c] { drain(c); });
                            });
        Rng r(seed_);
        flows_.resize(spec_.count);
        sim::Tick at = spec_.startAt;
        for (uint32_t i = 0; i < spec_.count; i++) {
            flows_[i].bytes = r.range(64, spec_.maxBytes);
            expected_ += flows_[i].bytes;
            w_.sim.schedule(at, [this, i] {
                tcp::TcpConnection &c = w_.a.stack().connect(
                    Testbed::kIpA, Testbed::kIpB, kShortFlowPort,
                    w_.a.tcpConfig());
                flows_[i].conn = &c;
                c.setOnConnected([this, i] { pump(i); });
                c.setOnWritable([this, i] { pump(i); });
            });
            double u = r.uniform();
            at += static_cast<sim::Tick>(
                -std::log(1.0 - u * 0.999) *
                static_cast<double>(spec_.meanGap));
        }
    }

    uint64_t expectedBytes() const { return expected_; }
    bool done() const { return check_.received >= expected_; }
    uint64_t delivered() const { return check_.received; }
    bool corrupt() const { return check_.corrupt; }

  private:
    struct Flow
    {
        tcp::TcpConnection *conn = nullptr;
        uint64_t bytes = 0;
        uint64_t sent = 0;
        bool closed = false;
    };

    void
    pump(uint32_t i)
    {
        Flow &f = flows_[i];
        if (f.conn == nullptr || f.closed)
            return;
        while (f.sent < f.bytes) {
            size_t n = static_cast<size_t>(
                std::min<uint64_t>(4096, f.bytes - f.sent));
            Bytes buf(n);
            fillDeterministic(buf, seed_, f.sent);
            size_t acc = f.conn->send(buf);
            f.sent += acc;
            if (acc < n)
                return;
        }
        f.closed = true;
        f.conn->close();
    }

    void
    drain(tcp::TcpConnection &c)
    {
        while (c.readable())
            check_.onSegment(c.pop());
    }

    Testbed &w_;
    ShortFlowSpec spec_;
    uint64_t seed_;
    std::vector<Flow> flows_;
    uint64_t expected_ = 0;
    DeliveryChecker check_{};
};

} // namespace

RunResult
DifferentialRunner::runOne(const Scenario &s, bool offload)
{
    RunResult r;
    FsmInvariantChecker probeA, probeB;
    FuzzWorld w(s, &probeA, &probeB);
    // Drivers after the world: their sockets must die while the NIC
    // devices (and thus the l5o contexts they tear down) still exist.
    std::vector<std::unique_ptr<TlsFlowDriver>> tls;
    for (size_t i = 0; i < s.tls.size(); i++)
        tls.push_back(std::make_unique<TlsFlowDriver>(
            w.bed, s.tls[i], static_cast<int>(i), offload));
    std::unique_ptr<StorageDriver<NvmeWorkload>> nvme;
    if (s.nvme.enabled)
        nvme = std::make_unique<StorageDriver<NvmeWorkload>>(w.bed, s,
                                                             offload);
    std::unique_ptr<StorageDriver<IscsiWorkload>> iscsi;
    if (s.iscsi.enabled)
        iscsi = std::make_unique<StorageDriver<IscsiWorkload>>(w.bed, s,
                                                               offload);
    std::unique_ptr<IncastDriver> incast;
    if (s.incast.senders > 0)
        incast = std::make_unique<IncastDriver>(w.bed, s);
    std::unique_ptr<ShortFlowDriver> shortFlows;
    if (s.shortFlows.count > 0)
        shortFlows = std::make_unique<ShortFlowDriver>(w.bed, s);

    auto allDone = [&] {
        for (auto &f : tls)
            if (!f->done())
                return false;
        if (nvme != nullptr && !nvme->done())
            return false;
        if (iscsi != nullptr && !iscsi->done())
            return false;
        if (incast != nullptr && !incast->done())
            return false;
        return shortFlows == nullptr || shortFlows->done();
    };
    while (w.bed.sim.now() < s.timeLimit && !allDone())
        w.bed.sim.runFor(kPollPeriod);

    r.completed = allDone();
    for (size_t i = 0; i < tls.size(); i++) {
        r.tlsDelivered.push_back(tls[i]->delivered());
        r.tlsTcpDelivered.push_back(tls[i]->tcpDelivered());
        if (tls[i]->corrupt())
            r.errors.push_back(fmtMsg(
                "tls flow %zu delivered bytes that differ from the "
                "ground-truth plaintext", i));
    }
    if (nvme != nullptr) {
        r.nvmeReadsOk = nvme->readsOk();
        r.nvmeWritesOk = nvme->writesOk();
        r.nvmeFailures = nvme->failures();
        r.nvmeTcpDelivered = nvme->tcpDelivered();
        r.nvmeDesynced = nvme->desynced();
        if (nvme->contentMismatch())
            r.errors.push_back(
                "nvme read completed ok with wrong content");
    }
    if (iscsi != nullptr) {
        r.iscsiReadsOk = iscsi->readsOk();
        r.iscsiWritesOk = iscsi->writesOk();
        r.iscsiFailures = iscsi->failures();
        r.iscsiTcpDelivered = iscsi->tcpDelivered();
        r.iscsiDesynced = iscsi->desynced();
        if (iscsi->contentMismatch())
            r.errors.push_back(
                "iscsi read completed ok with wrong content");
    }
    if (incast != nullptr) {
        r.incastDelivered = incast->delivered();
        r.plainCorrupt = r.plainCorrupt || incast->corrupt();
    }
    if (shortFlows != nullptr) {
        r.shortDelivered = shortFlows->delivered();
        r.plainCorrupt = r.plainCorrupt || shortFlows->corrupt();
    }
    // Plain TCP has no authentication: corrupted payload is delivered
    // as-is, so a mismatch is only an oracle error on a clean wire.
    if (r.plainCorrupt && !s.hasCorruption())
        r.errors.push_back(
            "plain-TCP flow delivered bytes that differ from the "
            "ground-truth stream");
    for (const std::string &v : probeA.violations())
        r.errors.push_back("fsm invariant (nic a): " + v);
    for (const std::string &v : probeB.violations())
        r.errors.push_back("fsm invariant (nic b): " + v);
    for (const std::string &v : checkTraceRing(w.run.trace()))
        r.errors.push_back(v);
    r.traceHash = traceHash(w.run.trace());
    r.fsmEvents = probeA.eventsSeen() + probeB.eventsSeen();
    if (!r.errors.empty())
        for (size_t i = 0; i < tls.size(); i++)
            r.errors.push_back(fmtMsg("tls flow %zu state: %s", i,
                                      tls[i]->debugState().c_str()));
    return r;
}

std::vector<std::string>
DifferentialRunner::check(const Scenario &s, TraceHashes *hashes)
{
    std::vector<std::string> errs;
    RunResult off = runOne(s, true);
    RunResult sw = runOne(s, false);
    if (hashes != nullptr)
        *hashes = TraceHashes{off.traceHash, sw.traceHash};
    for (const std::string &e : off.errors)
        errs.push_back("[offload] " + e);
    for (const std::string &e : sw.errors)
        errs.push_back("[software] " + e);

    // Corrupting scenarios get the weaker oracle: per-run content and
    // invariant checks above. Authentication failures legitimately
    // stall a flow, and which packet gets flipped differs between the
    // runs (the wire RNG sees different packet sequences), so
    // completion and goodput are not comparable.
    if (s.hasCorruption())
        return errs;

    if (!off.completed)
        errs.push_back("[offload] scenario did not complete in time");
    if (!sw.completed)
        errs.push_back("[software] scenario did not complete in time");
    for (size_t i = 0; i < s.tls.size(); i++) {
        if (off.tlsDelivered[i] != s.tls[i].bytes)
            errs.push_back(fmtMsg(
                "[offload] tls flow %zu delivered %" PRIu64
                " of %" PRIu64 " bytes",
                i, off.tlsDelivered[i], s.tls[i].bytes));
        if (sw.tlsDelivered[i] != s.tls[i].bytes)
            errs.push_back(fmtMsg(
                "[software] tls flow %zu delivered %" PRIu64
                " of %" PRIu64 " bytes",
                i, sw.tlsDelivered[i], s.tls[i].bytes));
        if (off.tlsTcpDelivered[i] != sw.tlsTcpDelivered[i])
            errs.push_back(fmtMsg(
                "tls flow %zu TCP goodput differs: offload %" PRIu64
                " vs software %" PRIu64,
                i, off.tlsTcpDelivered[i], sw.tlsTcpDelivered[i]));
    }
    if (s.incast.senders > 0) {
        uint64_t want = static_cast<uint64_t>(s.incast.senders) *
                        s.incast.rounds * s.incast.bytesPerSender;
        if (off.incastDelivered != want)
            errs.push_back(fmtMsg(
                "[offload] incast delivered %" PRIu64 " of %" PRIu64
                " bytes",
                off.incastDelivered, want));
        if (sw.incastDelivered != want)
            errs.push_back(fmtMsg(
                "[software] incast delivered %" PRIu64 " of %" PRIu64
                " bytes",
                sw.incastDelivered, want));
    }
    if (s.shortFlows.count > 0 &&
        off.shortDelivered != sw.shortDelivered)
        errs.push_back(fmtMsg(
            "short-flow goodput differs: offload %" PRIu64
            " vs software %" PRIu64,
            off.shortDelivered, sw.shortDelivered));
    if (s.nvme.enabled) {
        if (off.nvmeReadsOk != sw.nvmeReadsOk ||
            off.nvmeWritesOk != sw.nvmeWritesOk)
            errs.push_back(fmtMsg(
                "nvme completions differ: offload %" PRIu64 "r/%" PRIu64
                "w vs software %" PRIu64 "r/%" PRIu64 "w",
                off.nvmeReadsOk, off.nvmeWritesOk, sw.nvmeReadsOk,
                sw.nvmeWritesOk));
        if (off.nvmeFailures != 0 || sw.nvmeFailures != 0)
            errs.push_back(fmtMsg(
                "nvme failures on a clean link: offload %" PRIu64
                " software %" PRIu64,
                off.nvmeFailures, sw.nvmeFailures));
        if (off.nvmeTcpDelivered != sw.nvmeTcpDelivered)
            errs.push_back(fmtMsg(
                "nvme TCP goodput differs: offload %" PRIu64
                " vs software %" PRIu64,
                off.nvmeTcpDelivered, sw.nvmeTcpDelivered));
    }
    if (s.iscsi.enabled) {
        if (off.iscsiReadsOk != sw.iscsiReadsOk ||
            off.iscsiWritesOk != sw.iscsiWritesOk)
            errs.push_back(fmtMsg(
                "iscsi completions differ: offload %" PRIu64 "r/%" PRIu64
                "w vs software %" PRIu64 "r/%" PRIu64 "w",
                off.iscsiReadsOk, off.iscsiWritesOk, sw.iscsiReadsOk,
                sw.iscsiWritesOk));
        if (off.iscsiFailures != 0 || sw.iscsiFailures != 0)
            errs.push_back(fmtMsg(
                "iscsi failures on a clean link: offload %" PRIu64
                " software %" PRIu64,
                off.iscsiFailures, sw.iscsiFailures));
        if (off.iscsiTcpDelivered != sw.iscsiTcpDelivered)
            errs.push_back(fmtMsg(
                "iscsi TCP goodput differs: offload %" PRIu64
                " vs software %" PRIu64,
                off.iscsiTcpDelivered, sw.iscsiTcpDelivered));
    }
    return errs;
}

Scenario
DifferentialRunner::minimize(Scenario s, int maxEvals)
{
    int evals = 0;
    auto stillFails = [&](const Scenario &cand) {
        if (evals >= maxEvals)
            return false;
        evals++;
        return !check(cand).empty();
    };

    bool progress = true;
    while (progress && evals < maxEvals) {
        progress = false;

        if (s.phases.size() > 1) {
            Scenario c = s;
            c.phases.resize((s.phases.size() + 1) / 2);
            if (stillFails(c)) {
                s = std::move(c);
                progress = true;
                continue;
            }
        }
        for (size_t i = 0; i < s.tls.size(); i++) {
            Scenario c = s;
            c.tls.erase(c.tls.begin() + static_cast<ptrdiff_t>(i));
            if (stillFails(c)) {
                s = std::move(c);
                progress = true;
                break;
            }
        }
        if (progress)
            continue;
        if (s.nvme.enabled) {
            Scenario c = s;
            c.nvme.enabled = false;
            if (stillFails(c)) {
                s = std::move(c);
                progress = true;
                continue;
            }
        }
        if (s.iscsi.enabled) {
            Scenario c = s;
            c.iscsi.enabled = false;
            if (stillFails(c)) {
                s = std::move(c);
                progress = true;
                continue;
            }
        }
        if (s.incast.senders > 0) {
            Scenario c = s;
            c.incast.senders = 0;
            if (stillFails(c)) {
                s = std::move(c);
                progress = true;
                continue;
            }
        }
        if (s.shortFlows.count > 0) {
            Scenario c = s;
            c.shortFlows.count = 0;
            if (stillFails(c)) {
                s = std::move(c);
                progress = true;
                continue;
            }
        }
        // Is the failure CC-specific? Reno without ECN is the
        // best-understood baseline.
        if (s.cc != tcp::CcAlgo::Reno || s.ecn) {
            Scenario c = s;
            c.cc = tcp::CcAlgo::Reno;
            c.ecn = false;
            if (stillFails(c)) {
                s = std::move(c);
                progress = true;
                continue;
            }
        }
        // Zero one impairment knob at a time.
        for (size_t p = 0; p < s.phases.size() && !progress; p++) {
            for (int d = 0; d < 2 && !progress; d++) {
                double net::Impairments::*knobs[] = {
                    &net::Impairments::lossRate,
                    &net::Impairments::reorderRate,
                    &net::Impairments::duplicateRate,
                    &net::Impairments::corruptRate,
                    &net::Impairments::ecnMarkRate,
                };
                for (auto knob : knobs) {
                    if (s.phases[p].dir[d].*knob == 0.0)
                        continue;
                    Scenario c = s;
                    c.phases[p].dir[d].*knob = 0.0;
                    if (stillFails(c)) {
                        s = std::move(c);
                        progress = true;
                        break;
                    }
                }
                if (!progress &&
                    s.phases[p].dir[d].ecnMarkThresholdBytes != 0) {
                    Scenario c = s;
                    c.phases[p].dir[d].ecnMarkThresholdBytes = 0;
                    if (stillFails(c)) {
                        s = std::move(c);
                        progress = true;
                    }
                }
            }
        }
        if (progress)
            continue;
        // Shrink flows: halve byte counts, drop rotation.
        for (size_t i = 0; i < s.tls.size() && !progress; i++) {
            if (s.tls[i].bytes > 8192) {
                Scenario c = s;
                c.tls[i].bytes /= 2;
                if (stillFails(c)) {
                    s = std::move(c);
                    progress = true;
                    break;
                }
            }
            if (s.tls[i].rotateEvery != 0) {
                Scenario c = s;
                c.tls[i].rotateEvery = 0;
                if (stillFails(c)) {
                    s = std::move(c);
                    progress = true;
                    break;
                }
            }
        }
    }
    return s;
}

} // namespace anic::testing
