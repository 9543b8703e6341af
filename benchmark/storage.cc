/**
 * @file
 * storage_rw: one NVMe-TCP queue and one iSCSI session from the server
 * (initiator, the node under test) to the generator (both targets, each
 * with its own drive), 2 cores per node. Each session is closed-loop at
 * queue depth 8 with 50% writes and IO sizes drawn from {4, 64, 256}
 * KiB. Host and target offloads are on (rx digest, placement, tx
 * digest). Reads are verified against the drive's content seed.
 *
 * 0.1% loss toward the initiator makes its rx FSMs resync on read
 * data. Loss the other way as well made goodput vary 8.5% (IQR) across
 * seeds, against 3.5% with one lossy direction. The IO kinds come from
 * a shuffled deck holding each (read|write, size) pair once, so every
 * seed offers the same mix and only its order varies.
 *
 * Writes beside reads and small IOs beside large ones run both storage
 * L5Ps' PDU assemblers, CRC32C, tagged placement and R2T. The drives
 * are sized well above the offered load (see README.md), so per-IO
 * cost rather than a saturated device sets the latency.
 */

#include <algorithm>
#include <array>

#include "audit.hh"
#include "bench.hh"
#include "iscsi/session.hh"
#include "nvmetcp/host_queue.hh"
#include "nvmetcp/target.hh"
#include "units.hh"
#include "util/rand.hh"

namespace anicbench {

namespace {

using anic::tcp::TcpConnection;

constexpr uint16_t kNvmePort = 4420;
constexpr uint16_t kIscsiPort = 3260;
constexpr int kQueueDepth = 8;
constexpr uint32_t kIoSizes[] = {4 << 10, 64 << 10, 256 << 10};
constexpr uint64_t kAreaBytes = 1ull << 30;
constexpr uint64_t kBlock = 4096;
/** Drive bandwidth, reads and writes alike: each drive stays under 8%
 *  busy (host.drive_util), so IOs rarely queue at a drive. */
constexpr double kDriveGBps = 16.0;

class Storage;

/** One closed-loop job on an NVMe host queue or iSCSI initiator. */
template <typename Queue> class IoJob
{
  public:
    IoJob(Storage &owner, uint64_t seed, uint64_t driveSeed)
        : owner_(owner), rng_(seed), writeSeed_(seed), driveSeed_(driveSeed)
    {
    }

    void
    attach(std::unique_ptr<Queue> q)
    {
        q_ = std::move(q);
    }

    Queue *queue() const { return q_.get(); }

    void
    start()
    {
        for (int i = 0; i < kQueueDepth; i++)
            issue();
    }

    uint64_t readBytes = 0;  ///< payload of completed reads
    uint64_t writeBytes = 0; ///< payload of completed writes

  private:
    void issue();
    void done(Tick due, uint32_t len, bool write, bool ok);

    Storage &owner_;
    std::unique_ptr<Queue> q_;
    anic::Rng rng_;
    uint64_t writeSeed_;
    uint64_t driveSeed_;
    /** (size index << 1 | write) for every IO kind, dealt in order. */
    std::array<int, 2 * std::size(kIoSizes)> deck_ = {0, 1, 2, 3, 4, 5};
    size_t next_ = deck_.size();
};

class Storage : public Workload
{
  public:
    explicit Storage(uint64_t seed)
        : seed_(seed), driveSeed_(subSeed(seed, 2)),
          nvme_(*this, subSeed(seed, 6), driveSeed_),
          iscsi_(*this, subSeed(seed, 7), driveSeed_)
    {
    }

    void
    build() override
    {
        WorldConfig wc;
        wc.srvCores = 2;
        wc.genCores = 2;
        wc.link.dir[0].lossRate = 0.001;
        wc.seed = seed_;
        w_ = std::make_unique<World>(wc);

        anic::host::NvmeDrive::Config dc;
        dc.readGBps = kDriveGBps;
        dc.writeGBps = kDriveGBps;
        dc.contentSeed = driveSeed_;
        nvmeDrive_ = std::make_unique<anic::host::NvmeDrive>(w_->sim, dc);
        iscsiDrive_ = std::make_unique<anic::host::NvmeDrive>(w_->sim, dc);

        w_->gen.stack().listen(kNvmePort, w_->gen.tcpConfig(),
                               [this](TcpConnection &c) {
            nvmeTarget_ = std::make_unique<anic::nvmetcp::NvmeTarget>(
                c, *nvmeDrive_, anic::nvmetcp::WireConfig{});
            install([&] {
                nvmeTarget_->enableOffload(w_->gen.device(), c,
                                           nvmeOffload());
            });
        });
        w_->gen.stack().listen(kIscsiPort, w_->gen.tcpConfig(),
                               [this](TcpConnection &c) {
            iscsiTarget_ = std::make_unique<anic::iscsi::IscsiTarget>(
                c, *iscsiDrive_, anic::iscsi::IscsiWireConfig{});
            install([&] {
                iscsiTarget_->enableOffload(w_->gen.device(), c,
                                            iscsiOffload());
            });
        });
    }

    void
    connect() override
    {
        connecting_ = true;
        TcpConnection &nc = open(kNvmePort);
        nc.setOnConnected([this, &nc] {
            nvme_.attach(std::make_unique<anic::nvmetcp::NvmeHostQueue>(
                nc, anic::nvmetcp::WireConfig{}, nvmeOffload(), nullptr));
            install([&] { nvme_.queue()->enableOffload(w_->srv.device(), nc); });
        });
        TcpConnection &ic = open(kIscsiPort);
        ic.setOnConnected([this, &ic] {
            iscsi_.attach(std::make_unique<anic::iscsi::IscsiInitiator>(
                ic, anic::iscsi::IscsiWireConfig{}, iscsiOffload(), nullptr));
            install([&] { iscsi_.queue()->enableOffload(w_->srv.device(), ic); });
        });
        for (int ms = 0; nvme_.queue() == nullptr || iscsi_.queue() == nullptr ||
                        nvmeTarget_ == nullptr || iscsiTarget_ == nullptr;
             ms++) {
            ANIC_ASSERT(ms < 1000, "storage sessions failed to connect");
            w_->sim.runFor(kMillisecond);
        }
        connecting_ = false;
    }

    void
    start() override
    {
        nvme_.start();
        iscsi_.start();
    }

    void stopIssuing() override { issuing = false; }

    World &world() override { return *w_; }

    void
    report(Metrics &m) const override
    {
        const anic::nvmetcp::NvmeHostStats &nh = nvme_.queue()->stats();
        const anic::nvmetcp::NvmeTargetStats &nt = nvmeTarget_->stats();
        const anic::iscsi::IscsiInitiatorStats &ih = iscsi_.queue()->stats();
        const anic::iscsi::IscsiTargetStats &it = iscsiTarget_->stats();

        double nPlaced = static_cast<double>(nh.bytesPlaced + nt.h2cBytesPlaced);
        double nCopied = static_cast<double>(nh.bytesCopied + nt.h2cBytesCopied);
        double nSkip = static_cast<double>(nh.crcSkipped + nt.h2cDigestSkipped);
        double nSw = static_cast<double>(nh.crcSoftware + nt.h2cDigestSoftware);
        double iPlaced = static_cast<double>(ih.bytesPlaced + it.bytesPlaced);
        double iCopied = static_cast<double>(ih.bytesCopied + it.bytesCopied);
        double iSkip = static_cast<double>(ih.digestSkipped + it.digestSkipped);
        double iSw = static_cast<double>(ih.digestSoftware + it.digestSoftware);

        m.add("nvmetcp.placed_frac", "ratio", ratio(nPlaced, nPlaced + nCopied));
        m.add("nvmetcp.digest_sw_frac", "ratio", ratio(nSw, nSkip + nSw));
        m.add("iscsi.placed_frac", "ratio", ratio(iPlaced, iPlaced + iCopied));
        m.add("iscsi.digest_sw_frac", "ratio", ratio(iSw, iSkip + iSw));
        m.add("offload.full_frac", "ratio",
              ratio(nSkip + iSkip, nSkip + nSw + iSkip + iSw));

        // Drive service time (transfer, not access latency, which
        // overlaps) over the whole run: the not-saturated guard.
        double busy = 0;
        for (const auto *d : {nvmeDrive_.get(), iscsiDrive_.get()}) {
            busy = std::max(
                busy, (static_cast<double>(d->bytesRead()) +
                       static_cast<double>(d->bytesWritten())) /
                          (kDriveGBps * 1e9));
        }
        m.add("host.drive_util", "ratio",
              ratio(busy, units::seconds(w_->sim.now())));
    }

    void
    audit(Audit &a) const override
    {
        const anic::nvmetcp::NvmeHostStats &nh = nvme_.queue()->stats();
        const anic::nvmetcp::NvmeTargetStats &nt = nvmeTarget_->stats();
        const anic::iscsi::IscsiInitiatorStats &ih = iscsi_.queue()->stats();
        const anic::iscsi::IscsiTargetStats &it = iscsiTarget_->stats();
        a.equal("nvme host: crcSkipped + crcSoftware == C2HData PDUs",
                nh.crcSkipped + nh.crcSoftware, nh.dataPdusRx);
        a.equal("nvme host: bytesPlaced + bytesCopied == read bytes",
                nh.bytesPlaced + nh.bytesCopied, nvme_.readBytes);
        a.equal("nvme target: h2cBytesPlaced + h2cBytesCopied == bytesWritten",
                nt.h2cBytesPlaced + nt.h2cBytesCopied, nt.bytesWritten);
        a.equal("nvme target: bytesWritten == host write bytes",
                nt.bytesWritten, nvme_.writeBytes);
        a.equal("iscsi initiator: digestSkipped + digestSoftware == Data-In "
                "+ SCSI Response PDUs",
                ih.digestSkipped + ih.digestSoftware,
                ih.dataInPdus + ih.readsCompleted + ih.writesCompleted);
        a.equal("iscsi initiator: bytesPlaced + bytesCopied == read bytes",
                ih.bytesPlaced + ih.bytesCopied, iscsi_.readBytes);
        a.equal("iscsi target: digestSkipped + digestSoftware == SCSI Command "
                "+ Data-Out PDUs",
                it.digestSkipped + it.digestSoftware,
                it.readsServed + it.writesServed + it.dataOutPdus);
        a.equal("iscsi target: bytesPlaced + bytesCopied == bytesWritten",
                it.bytesPlaced + it.bytesCopied, it.bytesWritten);
    }

    Tick now() const { return w_->sim.now(); }

    bool issuing = true;

  private:
    static anic::nvmetcp::NvmeOffloadConfig
    nvmeOffload()
    {
        anic::nvmetcp::NvmeOffloadConfig o;
        o.crcRx = o.copyRx = o.crcTx = true;
        return o;
    }

    static anic::iscsi::IscsiOffloadConfig
    iscsiOffload()
    {
        anic::iscsi::IscsiOffloadConfig o;
        o.crcRx = o.copyRx = o.crcTx = true;
        return o;
    }

    TcpConnection &
    open(uint16_t port)
    {
        TcpConnection *c = nullptr;
        tally(heap.tcp, [&] {
            c = &w_->srv.stack().connect(World::kSrvIp, World::kGenIp, port,
                                         w_->srv.tcpConfig());
        });
        heap.flows++;
        return *c;
    }

    uint64_t seed_;
    uint64_t driveSeed_;
    std::unique_ptr<World> w_;
    std::unique_ptr<anic::host::NvmeDrive> nvmeDrive_;
    std::unique_ptr<anic::host::NvmeDrive> iscsiDrive_;
    std::unique_ptr<anic::nvmetcp::NvmeTarget> nvmeTarget_;
    std::unique_ptr<anic::iscsi::IscsiTarget> iscsiTarget_;
    IoJob<anic::nvmetcp::NvmeHostQueue> nvme_;
    IoJob<anic::iscsi::IscsiInitiator> iscsi_;
};

template <typename Queue>
void
IoJob<Queue>::issue()
{
    if (!owner_.issuing)
        return;
    if (next_ == deck_.size()) {
        for (size_t i = deck_.size() - 1; i > 0; i--)
            std::swap(deck_[i], deck_[rng_.below(i + 1)]);
        next_ = 0;
    }
    int kind = deck_[next_++];
    bool write = kind % 2 == 1;
    uint32_t len = kIoSizes[kind / 2];
    uint64_t slba = rng_.below((kAreaBytes - len) / kBlock) * kBlock;
    Tick due = owner_.now();
    owner_.ops.issued(due);
    if (write) {
        q_->write(slba, len, writeSeed_,
                  [this, due, len](bool ok) { done(due, len, true, ok); });
        return;
    }
    q_->read(slba, len,
             [this, due, len, slba](bool ok, anic::host::BlockBufferPtr buf) {
                 ok = ok && buf != nullptr &&
                      anic::checkDeterministic(buf->data, driveSeed_, slba);
                 done(due, len, false, ok);
             });
}

template <typename Queue>
void
IoJob<Queue>::done(Tick due, uint32_t len, bool write, bool ok)
{
    owner_.ops.completed(due, owner_.now(), ok);
    (write ? writeBytes : readBytes) += len;
    if (ok)
        owner_.appBytes += len;
    issue();
}

} // namespace

std::unique_ptr<Workload>
makeStorageRw(uint64_t seed)
{
    return std::make_unique<Storage>(seed);
}

} // namespace anicbench
